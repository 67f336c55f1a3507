"""anharm benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload thermo-cold --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ./src.  Ops run
back to back in whole input blocks until --seconds have passed, then every
output is checked against the benchmark's own exact reference.  The last
line of stdout is one JSON object:

* --trace 0: the end-to-end metrics, with tracing off;
* --trace 1: the per-layer metrics of a traced pass over half the time,
  plus the tracing overhead against an untraced replay of the same ops in a
  fresh interpreter.

Lines before it name every metric with its unit, list failing inputs and
any trace hook that no longer exists.  See perfbench/README.md.
"""

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

from speedclock import SpeedClock

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
LAYERS = ("hyper", "kernels", "oep", "thermo", "oracle", "cli")
SETUP_REPEATS = 7
TAIL_BEYOND = 10          # the tail percentile keeps this many samples above it
CHILD_TIMEOUT_S = 150
MAX_LOOP_S = 100          # wall-clock cap on the op loop, so a run ends within 180 s

# the child exits without interpreter teardown, which set-up time does not include
SETUP_CODE = """
import os, sys
sys.path.insert(0, sys.argv[1])
import anharm
from anharm import cli, hyper, kernels, oep, oracle, thermo
print("ready", flush=True)
os._exit(0)
"""

END_TO_END_UNITS = {
    "setup_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "ops_per_s": "1/s",
    "err_vs_exact": "dimensionless", "peak_rss_mb": "MB",
}


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup():
    """Fresh interpreter to ready for the first op, median of SETUP_REPEATS spawns.

    Returns (speed-corrected seconds, wall seconds)."""
    clock = SpeedClock()
    corrected, wall = [], []
    for _ in range(SETUP_REPEATS):
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = clock.time(lambda: proc.stdout.readline().strip())
            corrected.append(clock.corrected_s)
            wall.append(clock.wall_s)
            try:
                proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise
        if line != "ready" or proc.returncode != 0:
            _fail("the package could not be imported in a fresh interpreter")
    return statistics.median(corrected), statistics.median(wall)


class Record:
    __slots__ = ("op", "out", "seconds", "wall_s", "error")

    def __init__(self, op, out, seconds, wall_s, error):
        self.op, self.out, self.error = op, out, error
        self.seconds = seconds   # corrected for machine speed (speedclock.py)
        self.wall_s = wall_s


def run_ops(workload, api, clock, seconds=None, count=None, tracer=None):
    """Closed loop over whole blocks until `count` ops ran, or until the ops
    took `seconds` (speed-corrected, so the op count does not follow the
    machine's load) and at least workload.MIN_OPS ran; never past MAX_LOOP_S."""
    records = []
    keys = set()
    last_key = None
    start = time.perf_counter()
    op_seconds = 0.0
    while True:
        for op in workload.block():
            if op.shares_key:
                if op.key != last_key:
                    raise RuntimeError(f"op {op} was meant to share the previous key")
            elif op.key in keys:
                raise RuntimeError(f"two ops share the cache key {op.key}")
            keys.add(op.key)
            last_key = op.key
            if tracer is not None:
                tracer.tag = op.family
            try:
                out, error = clock.time(lambda: workload.run(api, op)), None
            except Exception as exc:  # noqa: BLE001 - a raising op is a counted failure
                out, error = None, f"{type(exc).__name__}: {exc}"
            records.append(Record(op, out, clock.corrected_s, clock.wall_s, error))
            op_seconds += clock.corrected_s
        if count is not None and len(records) >= count:
            return records
        if seconds is not None and len(records) >= workload.MIN_OPS and op_seconds >= seconds:
            return records
        if time.perf_counter() - start >= MAX_LOOP_S:
            return records


def check_all(workload, api, records):
    """Untimed checks of every op; returns (failure lines, note lines, errors).

    The errors against the reference, as (family, error) pairs, come from the
    first MIN_OPS ops only, a panel fixed by the seed, so err_vs_exact does
    not move with speed.
    """
    failures, notes, errs = [], [], []
    for i, r in enumerate(records):
        problems = [r.error] if r.error else []
        seen = len(workload.notes)
        if not problems:
            try:
                found, err = workload.check(api, r.op, r.out, i < workload.MIN_OPS)
            except Exception as exc:  # noqa: BLE001 - a check that raises is a failure
                found, err = [f"check raised {type(exc).__name__}: {exc}"], None
            problems += found
            if err is not None and i < workload.MIN_OPS:
                errs.append((r.op.family, err))
        if problems:
            failures.append(f"FAIL {_describe(i, r.op)}: " + "; ".join(problems))
        notes += [f"NOTE {_describe(i, r.op)}: {n}" for n in workload.notes[seen:]]
    return failures, notes, errs


def _describe(i, op):
    args = {k: (v if not hasattr(v, "shape") else f"array{v.shape}") for k, v in op.args.items()}
    return f"op {i} {op.kind} family={op.family} m2={op.m2!r} lam={op.lam!r} args={args}"


def tail(latencies):
    """Highest order statistic with TAIL_BEYOND samples above it, its percentile."""
    s = sorted(latencies)
    i = max(len(s) - TAIL_BEYOND - 1, 0)
    return s[i], 100.0 * (i + 1) / len(s)


def end_to_end(workload, records, errs, setup, rss_mb):
    lat = [r.seconds for r in records]
    tail_s, tail_pct = tail(lat)
    metrics = {
        "setup_s": setup[0],
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail_s,
        "ops_per_s": len(lat) / sum(lat),
        "err_vs_exact": workload.summarize(errs) if errs else math.inf,
        "peak_rss_mb": rss_mb,
    }
    wall = [r.wall_s for r in records]
    uncorrected = {"setup_s": setup[1], "op_p50_ms": 1e3 * statistics.median(wall),
                   "op_tail_ms": 1e3 * tail(wall)[0], "ops_per_s": len(wall) / sum(wall)}
    notes = [f"op_tail_ms is p{tail_pct:.1f} of {len(lat)} ops "
             f"({TAIL_BEYOND} samples above it)"]
    notes += [f"uncorrected {name} = {value:.6g} {END_TO_END_UNITS[name]}"
              for name, value in uncorrected.items()]
    return metrics, END_TO_END_UNITS, notes


def per_layer(tracer, records, overhead, cache_delta):
    """Per-op counts and times of the traced pass.

    Span times are wall-clock; they are scaled by the pass's corrected-to-wall
    ratio so that they read in the same milliseconds as the op times.
    """
    n_ops = len(records)
    speed = sum(r.seconds for r in records) / sum(r.wall_s for r in records)
    c, ms = tracer.counts, lambda s: 1e3 * s * speed
    solves = c["oep.imag_solves"]
    traces = c["thermo.traces"]
    fallbacks = c["oep.fallbacks"]

    def ratio(a, b):
        return a / b if b else 0.0

    hits, misses = cache_delta
    rows = [
        ("hyper.self_ms", ms(tracer.self_s["hyper"]) / n_ops, "ms/op"),
        ("hyper.scalar_calls", c["hyper.scalar_calls"] / n_ops, "count/op"),
        ("hyper.grid_calls", c["hyper.grid_calls"] / n_ops, "count/op"),
        ("kernels.self_ms", ms(tracer.self_s["kernels"]) / n_ops, "ms/op"),
        ("kernels.calls", c["kernels.calls"] / n_ops, "count/op"),
        ("oep.self_ms", ms(tracer.self_s["oep"]) / n_ops, "ms/op"),
        ("oep.gap_solves", solves / n_ops, "count/op"),
        ("oep.resid_evals_per_solve", ratio(c["oep.residual_evals"], solves), "count"),
        ("oep.real_solve_ms", ratio(ms(tracer.elapsed_s["oep.optimize_omega_real"]),
                                    c["oep.real_solves"]), "ms"),
        ("oep.fallback_ratio", ratio(fallbacks, solves), "ratio"),
        ("oep.fallback_share_double_well", ratio(c["oep.fallbacks.double"], fallbacks), "ratio"),
        ("oep.multi_root_ratio", ratio(c["oep.multi_root"], solves), "ratio"),
        ("oep.worst_residual", tracer.worst_residual, "abs"),
        ("oep.cache_hit_ratio", ratio(hits, hits + misses), "ratio"),
        ("thermo.self_ms", ms(tracer.self_s["thermo"]) / n_ops, "ms/op"),
        ("thermo.traces", traces / n_ops, "count/op"),
        ("thermo.quad_nodes_per_trace", ratio(c["thermo.quad_nodes"], traces), "count"),
        ("thermo.probe_solves", ratio(c["thermo.probe_solves"], traces), "count/trace"),
        ("oracle.self_ms", ms(tracer.self_s["oracle"]) / n_ops, "ms/op"),
        ("oracle.eig_ms", ms(tracer.elapsed_s["oracle.jacobi_eigh"]) / n_ops, "ms/op"),
        ("oracle.density_ms", ms(tracer.elapsed_s["oracle.exact_density"]) / n_ops, "ms/op"),
        ("cli.self_ms", ms(tracer.self_s["cli"]) / n_ops, "ms/op"),
        ("trace.overhead_ratio", overhead, "ratio"),
        ("trace.ops", n_ops, "count"),
        ("trace.absent_hooks", len(tracer.absent), "count"),
    ]
    metrics = {name: value for name, value, _ in rows}
    units = {name: unit for name, _, unit in rows}
    notes = [f"absent trace hook: {name}" for name in tracer.absent]
    notes.append(f"base: {n_ops} ops, {solves} gap solves, {traces} OEP traces, "
                 f"{fallbacks} fallbacks, {c['oep.real_solves']} real-time solves")
    return metrics, units, notes


def replay_seconds(args, n_ops):
    """Untraced op time of the first n_ops ops, in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--replay-ops", str(n_ops)]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            text, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode != 0:
        _fail("the untraced replay failed")
    return json.loads(text.strip().splitlines()[-1])["op_seconds"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay-ops", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "anharm" / "__init__.py").is_file():
        _fail(f"no package source at {SRC.name}/anharm; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import numpy as np
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    index = list(WORKLOADS).index(args.workload)

    def new_workload():
        return WORKLOADS[args.workload](np.random.default_rng([args.seed, index]))

    setup = measure_setup() if not (args.trace or args.replay_ops) else None

    import anharm
    import anharm.cli  # noqa: F401 - the cli layer is part of the public surface
    plain = types.SimpleNamespace(**{name: getattr(anharm, name) for name in LAYERS})

    if args.replay_ops:
        records = run_ops(new_workload(), plain, SpeedClock(), count=args.replay_ops)
        print(json.dumps({"op_seconds": sum(r.seconds for r in records)}))
        return 0

    workload = new_workload()
    clock = SpeedClock()
    if args.trace:
        from layertrace import Tracer
        solver = anharm.oep.optimize_omega_imag
        info0 = solver.cache_info() if hasattr(solver, "cache_info") else None
        with Tracer(anharm) as tracer:
            traced_api = types.SimpleNamespace(**tracer.proxies)
            records = run_ops(workload, traced_api, clock, seconds=args.seconds / 2,
                              tracer=tracer)
        info1 = solver.cache_info() if info0 else None
        cache_delta = ((info1.hits - info0.hits, info1.misses - info0.misses)
                       if info0 else (0, 0))
        if info0 is None:
            tracer.absent.append("oep.optimize_omega_imag.cache_info")
        traced_s = sum(r.seconds for r in records)
        overhead = traced_s / replay_seconds(args, len(records))
        metrics, units, notes = per_layer(tracer, records, overhead, cache_delta)
        failures, findings, _ = check_all(workload, plain, records)
    else:
        records = run_ops(workload, plain, clock, seconds=args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures, findings, errs = check_all(workload, plain, records)
        metrics, units, notes = end_to_end(workload, records, errs, setup, rss_mb)
        notes.append(f"failed_ratio = {len(failures)}/{len(records)} = "
                     f"{len(failures) / len(records):.4g}")

    for line in failures + findings:
        print(line)
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    for line in notes + clock.notes():
        print(f"{args.workload} {line}")
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
