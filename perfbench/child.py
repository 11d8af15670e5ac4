"""One run of one workload, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  Timeline:

1. set-up: import automu, write the workload's input documents into the
   scratch directory and parse each with automu's own parsers.  ``setup_s``
   runs from the parent's clock reading just before this process was started
   to the end of this step.
2. timed body: whole rounds of the workload's operations, each one
   ``automu.cli.main(argv)`` with the documents in the scratch directory,
   as many as fit in ``--seconds`` (at least one).  Exit codes and standard
   output are kept for the checker.
3. the result (and, traced, the per-layer figures and the span dump) is
   written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def setup(work: Path) -> None:
    from automu import cli

    for name, text in workloads.FORMULAS.items():
        target = work / f"{name}.sexp"
        if text is None:
            shutil.copyfile(ROOT / "samples" / target.name, target)
        else:
            target.write_text(text)
        cli.parse_formula(target.read_text())
    for doc in workloads.AUTOMATA:
        shutil.copyfile(ROOT / "samples" / doc, work / doc)
        cli.parse_automaton((work / doc).read_text())


def run_op(argv: tuple[str, ...]) -> dict:
    from automu.cli import main

    out, err = io.StringIO(), io.StringIO()
    record: dict = {}
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            record["rc"] = main(list(argv))
    except Exception:  # a traceback is a failed operation, not a crashed run
        record["rc"] = None
        record["error"] = traceback.format_exc()
    record["out"] = out.getvalue()
    return record


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--t0", type=float, required=True, help="parent's time.monotonic() at spawn")
    p.add_argument("--work", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", help="where a traced run writes its span dump")
    args = p.parse_args()

    work = Path(args.work)
    setup(work)
    setup_s = time.monotonic() - args.t0
    result: dict = {"setup_s": setup_s}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    ops = workloads.operations(args.workload, args.seed)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    os.chdir(work)
    rounds: list[float] = []
    cpu: list[float] = []
    records: list[list[dict]] = []
    start = time.perf_counter()
    while True:
        t, c = time.perf_counter(), time.process_time()
        done = []
        for op in ops:
            if tracer is None:
                done.append(run_op(op.argv))
            else:
                tracer.op = " ".join(op.argv)
                with tracer.span(f"cli.{op.argv[0]}"):
                    done.append(run_op(op.argv))
        rounds.append(time.perf_counter() - t)
        cpu.append(time.process_time() - c)
        records.append(done)
        # stop before a round that would not fit in the time left
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > args.seconds:
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result.update(rounds=rounds, cpu=cpu, records=records, peak_rss_mib=peak_kib / 1024)
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, len(rounds))
        result["self_by_module"] = {k: v / len(rounds) for k, v in tracer.self_by_module().items()}
        if args.spans:
            tracer.dump(args.spans)
        tracing.uninstall(tracer)
        result["quiescent_at_start"] = {
            op: (quiet // len(rounds), total // len(rounds))
            for op, (quiet, total) in tracing.quiescent_at_start(tracer).items()
        }
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
