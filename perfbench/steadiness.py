"""Run the benchmark repeatedly and report each end-to-end metric's spread against its bound.

    python3 perfbench/steadiness.py --workloads thermo-cold,local-density --sets 1-10 101-110

Each set is a seed list (``1-10``, ``3,7,11``, or ``1*10`` for seed 1 ten
times).  Runs are sequential, one seed each, exactly as BENCHMARK.json's
command.  For every set the output ends in a markdown table with each
metric's median, quartiles (statistics.quantiles, n=4), spread
(q3 - q1) / median and bound, and the same for the uncorrected wall-clock
figures each run prints beside its speed-corrected times; with two sets, a
table of the drift of the second median against the first, in the
direction the metric gets worse; and a table of the wall time per run.  BASELINE.md's tables are this output.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        seed, star, times = part.partition("*")
        if star:
            seeds += [int(seed)] * int(times)
            continue
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        print("\n".join(line for line in lines if line.startswith("FAIL")))
    values = {name: r["value"] for name, r in result["metrics"].items()}
    # lines "<workload> uncorrected <metric> = <value> <unit>"
    for words in map(str.split, lines[:-1]):
        if len(words) == 6 and words[1] == "uncorrected" and words[3] == "=":
            values[f"{words[2]}, uncorrected"] = float(words[4])
    return result, values, wall


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma list")
    parser.add_argument("--sets", nargs="+", default=["1-10"], help="seed lists, e.g. 1-10 101-110")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",")
    runs = {}   # (set, workload) -> (results, walls)
    for spec in args.sets:
        for workload in workloads:
            results, walls = [], []
            for seed in parse_seeds(spec):
                result, values, wall = run_once(bench, workload, seed)
                results.append(values)
                walls.append(wall)
                print(f"{workload} seed {seed}: {wall:.1f} s, correct={result['correct']}, "
                      f"failed={result['failed']}/{result['attempted']}", flush=True)
            runs[spec, workload] = results, walls

    medians = {}
    for spec in args.sets:
        print(f"\nSeeds {spec}\n")
        print("| workload | metric | median | q1 | q3 | spread | bound | spread / bound |")
        print("|---|---|---|---|---|---|---|---|")
        for workload in workloads:
            results = runs[spec, workload][0]
            for metric in bench["end_to_end"]:
                for name in (metric["name"], f"{metric['name']}, uncorrected"):
                    if name not in results[0]:
                        continue
                    med, q1, q3, spread = summarize([r[name] for r in results])
                    medians[spec, workload, name] = med
                    print(f"| {workload} | {name} | {med:.6g} | {q1:.6g} | {q3:.6g} "
                          f"| {spread:.3f} | {metric['bound']:.3g} "
                          f"| {spread / metric['bound']:.2f} |")

    if len(args.sets) == 2:
        first, second = args.sets
        print(f"\nDrift, seeds {second} against seeds {first}\n")
        print("| workload | metric | first median | second median | change, worse direction | bound |")
        print("|---|---|---|---|---|---|")
        for workload in workloads:
            for metric in bench["end_to_end"]:
                a = medians[first, workload, metric["name"]]
                b = medians[second, workload, metric["name"]]
                worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
                print(f"| {workload} | {metric['name']} | {a:.6g} | {b:.6g} | {worse:+.3f} "
                      f"| {metric['bound']:.3g} |")

    print("\nWall time per run, median (min-max), seconds\n")
    print("| workload | " + " | ".join(f"seeds {s}" for s in args.sets) + " |")
    print("|---|" + "---|" * len(args.sets))
    for workload in workloads:
        cells = []
        for spec in args.sets:
            walls = runs[spec, workload][1]
            cells.append(f"{statistics.median(walls):.1f} ({min(walls):.1f}-{max(walls):.1f})")
        print(f"| {workload} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
