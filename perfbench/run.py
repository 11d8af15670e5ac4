"""Round-trip benchmark for automu.

Usage, from the repository root:

    python3 perfbench/run.py --workload roundtrip-up --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each run starts a fresh single-threaded interpreter (``child.py``) with
``PYTHONHASHSEED`` derived from ``--seed``.  It runs as many whole rounds of
the workload's ``automu`` subcommands as fit in ``--seconds`` (at least one),
and this process then checks every output against the oracles in
``oracles.py``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Exit code 0 means
the run finished; 2 means the checkout holds no automu to run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 9          # set-up samples per run: eight set-up-only children and the workload child
CHILD_TIMEOUT = 170     # seconds
UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB",
         "up_rules": "rules", "down_formula_bytes": "bytes"}


def _child(workload: str, seed: int, seconds: float, trace: int, work: Path,
           setup_only: bool = False, spans: Path | None = None) -> dict:
    result = work / ("setup.json" if setup_only else "result.json")
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--work", str(work), "--result", str(result)]
    if setup_only:
        argv.append("--setup-only")
    if spans is not None:
        argv += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONHASHSEED=str(workloads.hash_seed(seed)))
    argv = [sys.executable, str(HERE / "child.py"), *argv, "--t0", repr(time.monotonic())]
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} child exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(result.read_text())


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run: set-up samples, the timed rounds, then the checks."""
    work = HERE / ".work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setups = []
        if not trace:
            for _ in range(SETUP_RUNS - 1):
                setups.append(_child(workload, seed, seconds, trace, work, setup_only=True)["setup_s"])
        spans = None
        if trace:
            (HERE / "results").mkdir(exist_ok=True)
            spans = HERE / "results" / f"spans-{workload}-{seed}.json.gz"
        res = _child(workload, seed, seconds, trace, work, spans=spans)
        setups.append(res["setup_s"])
        ops = workloads.operations(workload, seed)
        fails, problems = checks.check_run(ops, res["records"], work, seed)
        attempted = len(ops) * len(res["rounds"])
        out = {
            "correct": not problems,
            "attempted": attempted,
            "failed": fails,
            "problems": problems,
            "rounds": res["rounds"],
            "cpu": res["cpu"],
        }
        if trace:
            out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in res["layers"].items()}
            out["self_by_module"] = res["self_by_module"]
            out["quiescent_at_start"] = res["quiescent_at_start"]
        else:
            values = {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(res["rounds"]),
                "peak_rss_mib": res["peak_rss_mib"],
                **checks.sizes(ops, work),
            }
            out["metrics"] = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
        return out
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _describe(workload: str, res: dict) -> list[str]:
    lines = [f"== {workload}: attempted {res['attempted']} operations, failed {res['failed']}, "
             f"correct {str(res['correct']).lower()}, rounds "
             + " ".join(f"{t:.2f}s" for t in res["rounds"]) + ", cpu "
             + " ".join(f"{t:.2f}s" for t in res["cpu"])]
    lines += [f"   {name:36} {m['value']:>14.6g} {m['unit']}" for name, m in res["metrics"].items()]
    if "self_by_module" in res:
        total = sum(res["self_by_module"].values())
        lines.append("   self time by module, per round: " + ", ".join(
            f"{k} {v:.2f}s ({100 * v / total:.0f}%)"
            for k, v in sorted(res["self_by_module"].items(), key=lambda kv: -kv[1])))
        for op, (quiet, total) in sorted(res["quiescent_at_start"].items()):
            lines.append(f"   quiescent at step 0: {quiet}/{total} graphs of `{op}`")
    lines += [f"   PROBLEM {p}" for p in res["problems"]]
    return lines


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "automu" / "cli.py").is_file() or not (ROOT / "samples").is_dir():
        print(f"error: no automu sources under {ROOT}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        print("\n".join(_describe(name, results[name])), flush=True)
    if len(names) == 1:
        res = results[names[0]]
        summary = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
