"""Run-to-run steadiness of the benchmark's end-to-end metrics.

Usage, from the repository root:

    python3 perfbench/steadiness.py

Runs two sets of ten untraced runs of the same code on every workload, one
workload after another, each run ``run_seconds`` long (``BENCHMARK.json``);
run i of both sets has seed i, and the set that goes first alternates.  For
every end-to-end metric on every workload it prints each set's median and
quartiles, the spread (quartile distance over median), and whether both
spreads are within the metric's bound in ``BENCHMARK.json`` and set B's
median is within the bound of set A's.  It then makes one traced run per workload and prints
the tracing overhead: traced round time over the untraced median.  Raw
results go to ``perfbench/results/steadiness.json``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from run import run_workload  # noqa: E402

RUNS = 10
FIRST_SEED = 1


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    res = run_workload(workload, seed, seconds, trace)
    if res["problems"]:
        raise RuntimeError(f"{workload} seed {seed}: " + "; ".join(res["problems"]))
    return res


def stats(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = list(workloads.WORKLOADS)
    raw: dict[str, dict[str, list[dict]]] = {w: {"A": [], "B": []} for w in names}
    for w in names:
        for i in range(RUNS):
            seed = FIRST_SEED + i
            for side in ("AB" if i % 2 == 0 else "BA"):
                raw[w][side].append(run(w, seed, seconds, 0))
                print(f"run {i + 1}/{RUNS} {w} set {side}: "
                      f"wall_s {raw[w][side][-1]['metrics']['wall_s']['value']:.3f}", file=sys.stderr, flush=True)

    ok = True
    print(f"{RUNS} runs per set, seeds {FIRST_SEED}..{FIRST_SEED + RUNS - 1}, "
          f"{seconds} s each\n")
    print("| workload | metric | bound | set A median [q1, q3] | spread A | set B median [q1, q3] | spread B | B vs A | agree |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    for w in names:
        shares = {side: {r["failed"] / r["attempted"] for r in raw[w][side]} for side in "AB"}
        for metric, bound in bounds.items():
            row = {}
            for side in "AB":
                row[side] = stats([r["metrics"][metric]["value"] for r in raw[w][side]])
            spread = {side: (row[side][2] - row[side][1]) / row[side][0] for side in "AB"}
            shift = row["B"][0] / row["A"][0] - 1
            agree = abs(shift) <= bound and max(spread.values()) <= bound
            ok = ok and agree
            cell = lambda s: f"{row[s][0]:.4g} [{row[s][1]:.4g}, {row[s][2]:.4g}]"  # noqa: E731
            print(f"| {w} | {metric} | {bound} | {cell('A')} | {spread['A']:.3f} | {cell('B')} | "
                  f"{spread['B']:.3f} | {shift:+.3f} | {'yes' if agree else 'NO'} |")
        if shares["A"] != shares["B"] or len(shares["A"]) != 1:
            ok = False
            print(f"| {w} | failed share | 0 | {sorted(shares['A'])} | | {sorted(shares['B'])} | | | NO |")

    print("\ntracing overhead (one traced run per workload, seed "
          f"{FIRST_SEED}):\n")
    print("| workload | untraced wall_s median (set A) | traced round time | overhead |")
    print("| --- | --- | --- | --- |")
    traced = {}
    for w in names:
        traced[w] = run(w, FIRST_SEED, seconds, 1)
        base = stats([r["metrics"]["wall_s"]["value"] for r in raw[w]["A"]])[0]
        t = statistics.median(traced[w]["rounds"])
        print(f"| {w} | {base:.3f} s | {t:.3f} s | {t / base - 1:+.1%} |")

    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / "steadiness.json").write_text(json.dumps({"runs": raw, "traced": traced}))
    print("\nall agree" if ok else "\nSOME DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
