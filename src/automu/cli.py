"""Command-line surface.

Subcommands: eval, run, compile-up, compile-down, check, fuzz, equiv,
enables.  Exit codes: 0 = pass/true, 1 = counterexample/false/inconsistent,
2 = usage or input error.  All randomness is seeded through explicit flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import transform
from .automata import Automaton, _bits, automaton_to_json, parse_automaton
from .graphs import digraph_to_dict, parse_digraph
from .harness import Device, equiv_exhaustive, equiv_sampled
from .logic import MuSystem, format_formula, lfp, parse_formula, share
from .runtime import (
    async_run,
    fuzz_consistency,
    parse_timing,
    sample_timing,
    synchronous_prefix,
    timing_to_dict,
)


class CliError(Exception):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _load_automaton(path: str) -> Automaton:
    return parse_automaton(_read(path))


def _load_formula(path: str, bits: int | None = None) -> MuSystem:
    return parse_formula(_read(path), bits=bits)


def _load_device(path: str, bits: int | None = None) -> Device:
    """Dispatch on content: JSON object -> automaton, otherwise s-expression."""
    text = _read(path)
    if text.lstrip().startswith("{"):
        return parse_automaton(text)
    return parse_formula(text, bits=bits)


def _harmonize(d1: Device, d2: Device) -> tuple[Device, Device]:
    """Formulas state no label width of their own; lift an inferred-width
    formula to its partner's width when its constants fit."""
    b1, b2 = d1.bits, d2.bits
    if b1 == b2:
        return d1, d2
    if isinstance(d1, MuSystem) and b1 < b2:
        return MuSystem(bits=b2, vars=d1.vars, bodies=d1.bodies), d2
    if isinstance(d2, MuSystem) and b2 < b1:
        return d1, MuSystem(bits=b1, vars=d2.vars, bodies=d2.bodies)
    return d1, d2


def cmd_eval(args: argparse.Namespace) -> int:
    graph = parse_digraph(_read(args.graph))
    system = _load_formula(args.formula, bits=args.bits if args.bits is not None else graph.bits)
    fixpoint = lfp(system, graph)
    out = {
        "satisfied_at": sorted(fixpoint[system.vars[0]]),
        "fixpoint": {x: sorted(s) for x, s in fixpoint.items()},
    }
    if args.point is not None:
        if args.point not in graph.nodes:
            raise CliError(f"point {args.point!r} is not a node of the graph")
        out["point"] = args.point
        out["satisfied"] = args.point in fixpoint[system.vars[0]]
    print(json.dumps(out, indent=2))
    return 0 if out.get("satisfied", True) else 1


def cmd_run(args: argparse.Namespace) -> int:
    automaton = _load_automaton(args.automaton)
    graph = parse_digraph(_read(args.graph))
    if args.timing:
        timing = parse_timing(_read(args.timing))
    elif args.sync:
        timing = synchronous_prefix(graph, args.steps)
    else:
        steps = args.sample if args.sample is not None else args.steps
        timing = sample_timing(graph, steps=steps, lossless=args.lossless, seed=args.seed)
    report = async_run(automaton, graph, timing,
                       extend_until_quiescent=not args.no_quiescence)
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def cmd_compile_up(args: argparse.Namespace) -> int:
    system = _load_formula(args.formula, bits=args.bits)
    automaton = transform.formula_to_automaton(system)
    _write(args.output, automaton_to_json(automaton) + "\n")
    return 0


def cmd_compile_down(args: argparse.Namespace) -> int:
    automaton = _load_automaton(args.automaton)
    print(
        "note: the construction assumes the automaton's verdicts do not depend on "
        "lossless-asynchronous timing; that hypothesis is not checked here "
        "(see `fuzz` for empirical falsification)",
        file=sys.stderr,
    )
    system = transform.automaton_to_formula(automaton)
    _write(args.output, format_formula(share(system)))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    automaton = _load_automaton(args.automaton)
    quasi = automaton.trace_length_bound() is not None
    print(f"states: {len(automaton.states)}")
    print("transition function total: true")  # enforced at parse time
    print(f"quasi-acyclic: {'true' if quasi else 'false'}")
    if quasi:
        print(f"traces: {len(automaton.traces())}")
    return 0 if quasi else 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    automaton = _load_automaton(args.automaton)
    verdict = fuzz_consistency(
        automaton,
        max_nodes=args.max_nodes,
        graphs=args.graphs,
        timings_per_graph=args.samples,
        lossless_only=args.lossless_only,
        seed=args.seed,
        jobs=args.jobs,
    )
    if verdict.consistent:
        print(json.dumps({"verdict": "consistent_up_to_budget",
                          "graphs_checked": verdict.graphs_checked}))
        return 0
    w = verdict.witness
    print(json.dumps({
        "verdict": "inconsistent",
        "graphs_checked": verdict.graphs_checked,
        "graph": digraph_to_dict(w.graph),
        "node": w.witness.node,
        "verdict_a": w.witness.verdict_a,
        "timing_a": timing_to_dict(w.witness.timing_a),
        "verdict_b": w.witness.verdict_b,
        "timing_b": timing_to_dict(w.witness.timing_b),
    }, indent=2))
    return 1


def cmd_equiv(args: argparse.Namespace) -> int:
    d1 = _load_device(args.a, bits=args.bits)
    d2 = _load_device(args.b, bits=args.bits)
    d1, d2 = _harmonize(d1, d2)
    if args.samples:
        verdict = equiv_sampled(d1, d2, args.max_nodes, args.samples, seed=args.seed, jobs=args.jobs)
    else:
        verdict = equiv_exhaustive(d1, d2, args.max_nodes, jobs=args.jobs)
    print(json.dumps(verdict.to_dict(), indent=2))
    return 0 if verdict.equivalent else 1


def cmd_enables(args: argparse.Namespace) -> int:
    automaton = _load_automaton(args.automaton)
    closure = transform.compute_enables(automaton, max_rounds=args.max_rounds,
                                        max_traces=args.max_traces)
    # rows go by node trace (shorter first), then by neighbor set (smaller
    # first, then by its sorted traces): a set's key is its size and its mask
    # with the bits reversed and negated, as of two sets of one size the one
    # holding the lowest (first sorted) bit they differ in comes first, so no
    # text is compared.  Each trace and each distinct set is written as JSON once.
    traces = closure.traces
    as_json = [json.dumps(list(t)) for t in traces]
    hood = functools.cache(lambda h: (h.bit_count(), -int(f"{h:0{len(traces)}b}"[::-1], 2),
                                      "[" + ", ".join(as_json[i] for i in _bits(h)) + "]"))
    lines = []
    for t in sorted(range(len(traces)), key=lambda i: (len(traces[i]), traces[i])):
        for *_, h in sorted(map(hood, transform._members(closure.families[t]))):
            lines.append(f'{{"H": {h}, "t": {as_json[t]}}}\n')
    _write(args.output, "".join(lines))
    print(f"pairs: {sum(map(int.bit_count, closure.families))}  iterations: {closure.iterations_used}",
          file=sys.stderr)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (``parse_args``
    does not change it)."""
    parser = argparse.ArgumentParser(
        prog="automu",
        description="distributed automata, backward fixpoint logic, and the translations between them",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a formula's fixpoint on a graph")
    p.add_argument("--formula", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--point")
    p.add_argument("--bits", type=int)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("run", help="run an automaton on a graph under a timing")
    p.add_argument("--automaton", required=True)
    p.add_argument("--graph", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--timing", help="replay a timing prefix from JSON")
    group.add_argument("--sync", action="store_true", help="use the synchronous timing")
    group.add_argument("--sample", type=int, metavar="N",
                       help="sample an N-step random fair timing (the default, with N = --steps)")
    p.add_argument("--steps", type=int, default=64, help="prefix length")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lossless", action="store_true", help="sample a lossless timing")
    p.add_argument("--no-quiescence", action="store_true",
                   help="stop at prefix end instead of extending until quiescent")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compile-up", help="formula -> quasi-acyclic automaton")
    p.add_argument("--formula", required=True)
    p.add_argument("--bits", type=int)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_compile_up)

    p = sub.add_parser("compile-down", help="quasi-acyclic automaton -> formula")
    p.add_argument("--automaton", required=True)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_compile_down)

    p = sub.add_parser("check", help="report totality, quasi-acyclicity and trace count")
    p.add_argument("--automaton", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("fuzz", help="falsify timing independence on random graphs")
    p.add_argument("--automaton", required=True)
    p.add_argument("--max-nodes", type=int, default=5)
    p.add_argument("--samples", type=int, default=100, help="timings per graph")
    p.add_argument("--graphs", type=int, default=50, help="random graphs to try")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lossless-only", action="store_true")
    p.add_argument("--jobs", type=int, default=1, help="worker processes (1 = deterministic order)")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("equiv", help="check two devices (automaton or formula) for equivalence")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--max-nodes", type=int, default=3)
    p.add_argument("--samples", type=int, default=0,
                   help="random digraphs to sample; 0 = exhaustive enumeration")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bits", type=int)
    p.add_argument("--jobs", type=int, default=1, help="worker processes (1 = deterministic order)")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("enables", help="dump the trace-driving closure as JSON lines")
    p.add_argument("--automaton", required=True)
    p.add_argument("--max-rounds", type=int, help="bound the derivation depth")
    p.add_argument("--max-traces", type=int, default=transform.MAX_ENABLES_TRACES)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_enables)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (CliError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
