"""Seeded audit of the gap solves' minimal-sensitivity searches and of the
OEP trace, for comparing two checkouts of the package.

    python tools/gap_audit.py run CHECKOUT OUT.json [--seed S] [--real N]
                                 [--imag N] [--oef N] [--trace N]
    python tools/gap_audit.py compare BEFORE.json AFTER.json

`run` imports anharm from CHECKOUT/src and records, for the same seeded
draws on either side:

* real-time solves (optimized_w1_real) over the weak, strong, double-well,
  harmonic and near-harmonic (lam = 1e-10) families, in turn at a real T
  in [0.2, 2.5], inside the wedge and on the continuation edge T = -i*beta,
  with a check that i times an edge W1 is the imaginary-time W1 exactly;
* imaginary-time point solves whose scan has no bracket and an interior
  least sample (deep double wells at low temperature), with a check that
  every row of a diagonal batch equals its point solve bit for bit;
* free_energy_oef solves with such an interior dip (OEF at high
  temperature, small lam);
* traces: free_energy_oep and density_oep on its default grid, and one
  300-row optimize_omega_imag_diagonal batch, at seeded (params, beta) over
  the weak, strong and double-well families and high-temperature double
  wells (beta in [0.2, 0.7], where fallback kinks make the trace refine).

Every search is counted by wrapping the minimizers of oep.  `compare`
prints flag changes, how far omega* moved, the search calls, and lists every
solve whose omega* moved by more than 1e-6 relative with |dW1/domega|
before and after.  For the real-time solves it also counts the records that
are byte-identical off the edge but for the solution's value (None there
before W1 went into it) and, on the edge, the solutions that are equal and
how far W1 moved.  For the traces it reports every draw where a bit of
ln Z, the half-width, quad_nodes, the worst residual, rho or a batch row
moved, and the totals of the trace's counts (solve_calls, gap_solves,
fallbacks), which may change without any bit moving.  Run each side in its
own process.
"""

import argparse
import cmath
import json
import math
import statistics
import sys

FAMILIES = {"weak": ((0.5, 2.0), (0.005, 0.05)), "strong": ((0.0, 1.0), (0.5, 5.0)),
            "double": ((-1.5, -0.5), (0.08, 0.2)), "near": ((0.5, 2.0), (1e-10, 1e-10)),
            "harmonic": ((0.5, 2.0), None)}
MOVED = 1e-6
REAL_KINDS = ("real", "wedge", "edge")
GAP_FIELDS = ("omega", "res", "n_roots", "fb", "bracket", "value")
# (m2 range, lam range, beta range) of the trace draws
TRACE_FAMILIES = {"weak": ((0.5, 2.0), (0.005, 0.05), (0.1, 20.0)),
                  "strong": ((0.0, 1.0), (0.5, 5.0), (0.1, 20.0)),
                  "double": ((-1.5, -0.5), (0.08, 0.2), (0.7, 10.0)),
                  "hot-double": ((-1.5, -0.5), (0.08, 0.2), (0.2, 0.7))}
TRACE_BITS = ("ln_z", "halfwidth", "quad_nodes", "worst_residual", "rho", "rows")
TRACE_COUNTS = ("solve_calls", "gap_solves", "fallbacks")


def _log_uniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _traces(np, thermo, oep, OscillatorParams, seed, n):
    """The trace records of `run`, seeded on their own."""
    rng = np.random.default_rng(seed)
    names = list(TRACE_FAMILIES)
    out = []
    for k in range(n):
        fam = names[k % len(names)]
        (a, b), lam_range, beta_range = TRACE_FAMILIES[fam]
        params = OscillatorParams(float(rng.uniform(a, b)), _log_uniform(rng, *lam_range))
        beta = _log_uniform(rng, *beta_range)
        r = thermo.free_energy_oep(params, beta)
        rho = thermo.density_oep(params, beta).rho
        batch = oep.optimize_omega_imag_diagonal(params, beta, np.linspace(-3.0, 3.0, 300))
        rows = b"".join(np.asarray(getattr(batch, f)).tobytes()
                        for f in ("omega_star", "residual", "n_roots", "fallback_used", "w1"))
        info = r.omega_info
        out.append({"fam": fam, "in": [params.m2, params.lam, beta], "ln_z": -beta * r.f,
                    "halfwidth": info["halfwidth"], "quad_nodes": info["quad_nodes"],
                    "worst_residual": info["worst_residual"],
                    "rho": rho.tobytes().hex(), "rows": rows.hex(),
                    **{key: info[key] for key in TRACE_COUNTS}})
    return out


def _compare_traces(before, after):
    pairs = list(zip(before, after))
    assert all(x["in"] == y["in"] for x, y in pairs), "the two runs drew other inputs"
    moved = [(x, [key for key in TRACE_BITS if x[key] != y[key]]) for x, y in pairs]
    moved = [(x, keys) for x, keys in moved if keys]
    print(f"trace: {len(pairs)} draws, {len(moved)} with a bit moved")
    for key in TRACE_COUNTS:
        print(f"  {key}: {sum(x[key] for x in before)} -> {sum(y[key] for y in after)}")
    for x, keys in moved:
        print(f"  MOVED {x['fam']} {x['in']}: {', '.join(keys)}")


def run(checkout, out_path, seed, n_real, n_imag, n_oef, n_trace):
    sys.path.insert(0, checkout + "/src")
    import numpy as np
    from anharm import oep, thermo
    from anharm.kernels import EuclideanPoint, OscillatorParams, RealTimePoint

    calls = []      # residual calls of each search, in order

    def counted(body):
        def search(f, lo, hi):
            n = [0]

            def g(w):
                n[0] += 1
                return f(w)
            found = body(g, lo, hi)
            calls.append(n[0])
            return found
        return search

    for name in ("_golden_min", "_brent_min"):
        if hasattr(oep, name):
            setattr(oep, name, counted(getattr(oep, name)))

    def searched(n0):
        return calls[n0] if len(calls) > n0 else None

    rng = np.random.default_rng(seed)
    out = {"real": [], "imag": [], "oef": [], "rows_equal": True}
    names = list(FAMILIES)
    for k in range(n_real):
        fam = names[k % len(names)]
        (a, b), lam_range = FAMILIES[fam]
        m2 = float(rng.uniform(a, b))
        lam = 0.0 if lam_range is None else _log_uniform(rng, *lam_range)
        xa, xb = (float(v) for v in rng.uniform(-2.0, 2.0, 2))
        r = float(rng.uniform(0.2, 2.5))
        where = REAL_KINDS[(k // len(names)) % len(REAL_KINDS)]
        if where == "wedge":
            t = r * cmath.exp(-0.5j * math.pi * float(rng.uniform(0.1, 0.9)))
        else:
            t = complex(0.0, -r) if where == "edge" else complex(r)
        n0 = len(calls)
        params = OscillatorParams(m2, lam)
        amp = oep.optimized_w1_real(params, RealTimePoint(xa, xb, t))
        g = amp.gap
        v = None if g.value is None else complex(g.value)
        rec = {"fam": fam, "where": where, "in": [m2, lam, xa, xb, t.real, t.imag],
               "omega": g.omega_star, "res": g.residual, "n_roots": g.n_roots,
               "fb": g.fallback_used, "bracket": list(g.bracket),
               "value": v if v is None else [v.real, v.imag],
               "w": [amp.w_value.real, amp.w_value.imag], "calls": searched(n0)}
        if where == "edge":
            w_imag = oep.optimized_w1_imag(params, EuclideanPoint(xa, xb, r)).w_value
            rec["exact"] = 1j * amp.w_value == w_imag
        out["real"].append(rec)
    while len(out["imag"]) < n_imag:
        m2 = float(rng.uniform(-3.0, -1.5))
        lam, beta = _log_uniform(rng, 1e-3, 0.02), _log_uniform(rng, 5.0, 50.0)
        params = OscillatorParams(m2, lam)
        xs = rng.uniform(0.0, 3.0, 12)
        batch = oep.optimize_omega_imag_diagonal(params, beta, xs)
        for j, x in enumerate(xs.tolist()):
            n0 = len(calls)
            g = oep.optimize_omega_imag.__wrapped__(params, EuclideanPoint(x, x, beta))
            out["rows_equal"] &= bool(
                batch.omega_star[j] == g.omega_star and batch.residual[j] == g.residual
                and batch.w1[j] == g.value and int(batch.n_roots[j]) == g.n_roots
                and bool(batch.fallback_used[j]) == g.fallback_used)
            if searched(n0):
                out["imag"].append({"in": [m2, lam, x, beta], "omega": g.omega_star,
                                    "res": g.residual, "n_roots": g.n_roots,
                                    "fb": g.fallback_used, "w": g.value, "calls": calls[n0]})
    for _ in range(100 * n_oef):       # about one draw in three has an interior dip
        if len(out["oef"]) == n_oef:
            break
        m2 = float(rng.uniform(-1.0, 1.0))
        lam, beta = _log_uniform(rng, 1e-4, 4e-4), _log_uniform(rng, 0.008, 0.014)
        n0 = len(calls)
        r = thermo.free_energy_oef(OscillatorParams(m2, lam), beta)
        if searched(n0):
            info = r.omega_info
            out["oef"].append({"in": [m2, lam, beta], "omega": info["omega_star"],
                               "res": info["residual"], "n_roots": info["n_roots"],
                               "fb": info["fallback_used"], "w": r.f, "calls": calls[n0]})
    out["trace"] = _traces(np, thermo, oep, OscillatorParams, seed, n_trace)
    with open(out_path, "w") as fh:
        json.dump(out, fh)


def _compare_real(pairs):
    """Byte-identical records off the edge, value aside; equal solutions,
    W1 moved and exact continuation on it."""
    off = [(x, y) for x, y in pairs if x["where"] != "edge"]
    same = sum(json.dumps({**x, "value": 0}) == json.dumps({**y, "value": 0}) for x, y in off)
    print(f"  off the edge: {same} of {len(off)} records byte-identical")
    edge = [(x, y) for x, y in pairs if x["where"] == "edge"]
    equal = sum(all(x[f] == y[f] for f in GAP_FIELDS) for x, y in edge)
    dw = [abs(complex(*y["w"]) - complex(*x["w"])) for x, y in edge]
    print(f"  on the edge: {equal} of {len(edge)} solutions equal, W1 moved by at most",
          f"{max(dw, default=0.0):.2g} absolute ({sum(d > 0.0 for d in dw)} moved); i W1 is",
          f"the imaginary-time W1 exactly in {sum(x['exact'] for x, _ in edge)} before,",
          f"{sum(y['exact'] for _, y in edge)} after")


def compare(before_path, after_path):
    with open(before_path) as fh:
        before = json.load(fh)
    with open(after_path) as fh:
        after = json.load(fh)
    print("diagonal rows equal their point solves:", before["rows_equal"], after["rows_equal"])
    if "trace" in before and "trace" in after:
        _compare_traces(before["trace"], after["trace"])
    for kind in ("real", "imag", "oef"):
        pairs = list(zip(before[kind], after[kind]))
        assert all(x["in"] == y["in"] for x, y in pairs), "the two runs drew other inputs"
        flags = sum((x["n_roots"], x["fb"]) != (y["n_roots"], y["fb"]) for x, y in pairs)
        rel = [abs(y["omega"] / x["omega"] - 1.0) for x, y in pairs]
        moved = [d for d in rel if d > 0.0]
        big = [(x, y, d) for (x, y), d in zip(pairs, rel) if d > MOVED]
        print(f"{kind}: {len(pairs)} solves, {flags} flag changes, {len(moved)} omega* moved",
              f"(median {statistics.median(moved) if moved else 0.0:.2g},",
              f"max {max(rel, default=0.0):.2g} relative), {len(big)} by more than {MOVED:g}")
        for side, runs in (("before", before[kind]), ("after", after[kind])):
            n = [s["calls"] for s in runs if s["calls"]]
            if n:
                print(f"  search calls {side}: {len(n)} searches, median {statistics.median(n)},",
                      f"mean {statistics.mean(n):.1f}, max {max(n)}")
        dw = [abs(complex(*y["w"]) - complex(*x["w"])) / abs(complex(*x["w"]))
              if kind == "real" else abs(y["w"] - x["w"]) / abs(x["w"]) for x, y in pairs]
        print(f"  {'F' if kind == 'oef' else 'W1'} moved by at most {max(dw, default=0.0):.2g}",
              "relative")
        if kind == "real":
            _compare_real(pairs)
        for x, y, d in big:
            print(f"  MOVED {x.get('fam', kind)} {x['in']}: omega* {x['omega']!r} -> {y['omega']!r}",
                  f"({d:.3g}), |dW1/domega| {x['res']!r} -> {y['res']!r}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("checkout")
    r.add_argument("out")
    r.add_argument("--seed", type=int, default=2027)
    r.add_argument("--real", type=int, default=3000)
    r.add_argument("--imag", type=int, default=2500)
    r.add_argument("--oef", type=int, default=300)
    r.add_argument("--trace", type=int, default=160)
    c = sub.add_parser("compare")
    c.add_argument("before")
    c.add_argument("after")
    a = parser.parse_args(argv)
    if a.cmd == "run":
        run(a.checkout, a.out, a.seed, a.real, a.imag, a.oef, a.trace)
    else:
        compare(a.before, a.after)


if __name__ == "__main__":
    main()
