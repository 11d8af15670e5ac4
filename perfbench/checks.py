"""Checks of every operation's output against the oracles.

An operation *failed* when automu raised or exited with a code other than 0
or 1; failed operations are counted, not checked.  Every other operation
must meet what the method requires:

* ``equiv``: exit 0, verdict ``equivalent``, ``checked`` equal to the closed
  form (exhaustive) or to the samples requested (sampled);
* ``fuzz`` of a criterion-4 subject: exit 0, ``consistent_up_to_budget`` with
  ``graphs_checked`` equal to the graphs requested;
* ``fuzz`` of the synchrony probe: exit 1, ``inconsistent``, and both witness
  timings replay to their claimed verdicts in the oracle's simulator;
* ``compile-up``: exit 0; the rule-target diagram is acyclic apart from
  self-loops, and the synchronous simulator agrees with the source
  property's graph-search definition on a seeded sample of graphs;
* ``compile-down``: exit 0, and the set-based evaluator of the written text
  agrees with the source property on a seeded sample of graphs.
"""

from __future__ import annotations

import json
from pathlib import Path

import oracles as o
from workloads import Op

SAMPLE_GRAPHS = 40   # seeded graphs per translated document
SAMPLE_NODES = 4


def failed(record: dict) -> bool:
    return record["rc"] not in (0, 1)


def check_record(op: Op, record: dict, work: Path) -> list[str]:
    """Problems with one successful operation's exit code and output."""
    label = " ".join(op.argv)
    if record["rc"] != op.expect:
        return [f"{label}: exit {record['rc']}, expected {op.expect}"]
    if op.kind == "equiv":
        got = json.loads(record["out"])
        want = op.meta["samples"] or o.count_instances(op.meta["nodes"], op.meta["bits"])
        if got.get("verdict") != "equivalent" or got.get("checked") != want:
            return [f"{label}: {got.get('verdict')} with checked={got.get('checked')}, want equivalent/{want}"]
    elif op.kind == "fuzz" and op.expect == 0:
        got = json.loads(record["out"])
        if got != {"verdict": "consistent_up_to_budget", "graphs_checked": op.meta["graphs"]}:
            return [f"{label}: {got}"]
    elif op.kind == "fuzz":
        got = json.loads(record["out"])
        if got.get("verdict") != "inconsistent" or {got["verdict_a"], got["verdict_b"]} != {"yes", "no"}:
            return [f"{label}: no yes/no witness in {got.get('verdict')}"]
        machine = o.Machine(json.loads((work / op.meta["automaton"]).read_text()))
        graph = o.graph_from_doc(got["graph"])
        for side in ("a", "b"):
            replay = o.async_replay(machine, graph, got[f"timing_{side}"])[got["node"]]
            if replay != got[f"verdict_{side}"]:
                return [f"{label}: timing_{side} replays to {replay}, claimed {got[f'verdict_{side}']}"]
    return []


def check_document(op: Op, work: Path, seed: int) -> list[str]:
    """Problems with a translation's written document."""
    path = work / op.meta["output"]
    prop = o.PROPERTIES[op.meta["source"]]
    graphs = o.sample_graphs(f"{seed}:{op.meta['output']}", SAMPLE_GRAPHS, SAMPLE_NODES, op.meta["bits"])
    if op.kind == "compile-up":
        doc = json.loads(path.read_text())
        if not o.rule_diagram_acyclic(doc):
            return [f"{path.name}: rule-target diagram has a cycle"]
        machine = o.Machine(doc)
        evaluate = lambda g: o.sync_accepting(machine, g)  # noqa: E731
    else:
        system = o.parse_system(path.read_text())
        evaluate = lambda g: o.formula_holds(system, g)  # noqa: E731
    for g in graphs:
        got, want = evaluate(g), prop(g)
        if got != want:
            return [f"{path.name}: accepts {sorted(got)} on {g.to_doc()}, {op.meta['source']} holds at {sorted(want)}"]
    return []


def check_run(ops: list[Op], records: list[list[dict]], work: Path, seed: int) -> tuple[int, list[str]]:
    """Failed operations over all rounds, and the problems found in the rest.
    Exit codes and outputs are checked in every round; the documents, which
    every round rewrites, once at the end of the run."""
    fails = 0
    problems: list[str] = []
    for done in records:
        for op, record in zip(ops, done):
            if failed(record):
                fails += 1
            else:
                problems += check_record(op, record, work)
    last = records[-1]
    for op, record in zip(ops, last):
        if op.kind in ("compile-up", "compile-down") and not failed(record):
            problems += check_document(op, work, seed)
    return fails, problems


def sizes(ops: list[Op], work: Path) -> dict[str, int]:
    """Total rules of the compile-up outputs and total bytes of the
    compile-down outputs of one round."""
    up = sum(o.rule_count(json.loads((work / op.meta["output"]).read_text()))
             for op in ops if op.kind == "compile-up")
    down = sum((work / op.meta["output"]).stat().st_size for op in ops if op.kind == "compile-down")
    return {"up_rules": up, "down_formula_bytes": down}
