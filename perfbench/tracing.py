"""Per-layer tracing by wrapping automu's functions from outside.

A wrapper is installed wherever a caller looks the name up: in the defining
module, in every module that imported the name directly, or on the class for
methods.  Each wrapped call is a span (name, start, end, parent).  Calls that
happen hundreds of thousands of times per round (``delta``, single steps, enumeration) are
"hot": they are timed and counted like spans and charged to their parent's
child time, but not kept one by one, so memory stays bounded.  Every other
span is kept in memory and written out when the run ends.

Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import time
from collections import defaultdict
from typing import Callable

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        # name id, start, end, index of the parent span (-1 at the top)
        self.spans: list[tuple[int, float, float, int] | None] = []
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(int)
        # open frames: [name, start, child time, span index or -1 if not kept]
        self._stack: list[list] = []
        self.op = ""  # the operation running now, for per-operation counts
        # (operation, automaton, graph) of every consistency check
        self.consistency_checked: list[tuple[str, object, object]] = []
        self.originals: list[tuple[object, str, object]] = []  # what install replaced

    # -- recording ---------------------------------------------------------

    def _name(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def _enter(self, name: str, keep: bool) -> list:
        index = -1
        if keep:
            index = len(self.spans)
            self.spans.append(None)
        frame = [name, 0.0, 0.0, index]
        self._stack.append(frame)
        frame[1] = _clock()
        return frame

    def _exit(self, frame: list) -> None:
        end = _clock()
        self._stack.pop()
        name, start, child, index = frame
        dur = end - start
        self.total[name] += dur
        self.self_time[name] += dur - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dur
        if index >= 0:
            parent = next((f[3] for f in reversed(self._stack) if f[3] >= 0), -1)
            self.spans[index] = (self._name(name), start, end, parent)

    def wrap(self, fn: Callable, name: str, hot: bool = False,
             count: Callable[[object, tuple], None] | None = None) -> Callable:
        def wrapper(*args, **kwargs):
            frame = self._enter(name, keep=not hot)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if count is not None:
                count(out, args)
            return out

        return wrapper

    def wrap_iter(self, fn: Callable, name: str) -> Callable:
        """Wrap a generator function so that every ``next`` is timed."""
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = self._enter(name, keep=False)
                try:
                    item = next(it)
                except StopIteration:
                    self._exit(frame)
                    return
                self._exit(frame)
                self.counters[name + ".items"] += 1
                yield item

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self._enter(name, keep=True)
        try:
            yield
        finally:
            self._exit(frame)

    # -- reporting ---------------------------------------------------------

    def self_by_module(self) -> dict[str, float]:
        """Self time grouped by the module part of each span name."""
        out: dict[str, float] = defaultdict(float)
        for name, t in self.self_time.items():
            out[name.split(".", 1)[0]] += t
        return dict(out)

    def dump(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            json.dump({
                "names": self.names,
                "spans": self.spans,
                "aggregate": {
                    n: {"calls": self.calls[n], "total_s": self.total[n], "self_s": self.self_time[n]}
                    for n in sorted(self.calls)
                },
                "counters": dict(self.counters),
            }, fh)


def install(t: Tracer) -> None:
    """Wrap the public functions of every automu layer, and the private
    hotspots of the translations, at every place they are looked up."""
    from automu import automata, cli, graphs, harness, logic, runtime, transform

    c = t.counters
    def add(key: str, f: Callable[[object], int]) -> Callable[[object, tuple], None]:
        def count(out, args):
            c[key] += f(out)
        return count

    delta_keys: dict[int, set] = {}
    keep_alive: list[object] = []  # ids stay unique while the automata live

    def count_delta(out, args):
        a, q, hood = args
        seen = delta_keys.get(id(a))
        if seen is None:
            seen = delta_keys[id(a)] = set()
            keep_alive.append(a)
        key = (q, frozenset(hood))
        if key not in seen:
            seen.add(key)
            c["automata.delta_keys"] += 1

    def count_consistency(out, args):
        c["runtime.consistency_runs"] += out.runs
        t.consistency_checked.append((t.op, args[0], args[1]))

    A = automata.Automaton
    wraps = [
        # owners, attribute, wrapper
        ([logic, harness, cli], "lfp", t.wrap(logic.lfp, "logic.lfp")),
        ([logic], "lfp_iterations", t.wrap(logic.lfp_iterations, "logic.lfp_iterations",
                                           count=add("logic.applications", lambda out: out[1]))),
        ([cli], "parse_formula", t.wrap(logic.parse_formula, "logic.parse_formula")),
        ([cli], "format_formula", t.wrap(logic.format_formula, "logic.format_formula")),
        ([cli], "parse_automaton", t.wrap(automata.parse_automaton, "automata.parse_automaton")),
        ([A], "is_quasi_acyclic", t.wrap(A.is_quasi_acyclic, "automata.is_quasi_acyclic", hot=True)),
        ([A], "delta", t.wrap(A.delta, "automata.delta", hot=True, count=count_delta)),
        ([graphs, harness], "enumerate_digraphs",
         t.wrap_iter(graphs.enumerate_digraphs, "graphs.enumerate_digraphs")),
        ([graphs, harness, runtime], "random_digraph",
         t.wrap(graphs.random_digraph, "graphs.random_digraph", hot=True)),
        ([runtime, harness], "sync_accepting_nodes",
         t.wrap(runtime.sync_accepting_nodes, "runtime.sync_accepting_nodes")),
        ([runtime], "sync_step", t.wrap(runtime.sync_step, "runtime.sync_step", hot=True)),
        ([runtime], "async_step", t.wrap(runtime.async_step, "runtime.async_step", hot=True)),
        ([runtime], "is_quiescent", t.wrap(runtime.is_quiescent, "runtime.is_quiescent", hot=True)),
        ([runtime.TimingSampler], "next_step",
         t.wrap(runtime.TimingSampler.next_step, "runtime.TimingSampler.next_step", hot=True)),
        ([runtime], "check_consistency",
         t.wrap(runtime.check_consistency, "runtime.check_consistency", count=count_consistency)),
        ([runtime, cli], "fuzz_consistency", t.wrap(runtime.fuzz_consistency, "runtime.fuzz_consistency")),
        ([harness, cli], "equiv_exhaustive",
         t.wrap(harness.equiv_exhaustive, "harness.equiv_exhaustive",
                count=add("harness.instances", lambda out: out.checked))),
        ([harness, cli], "equiv_sampled",
         t.wrap(harness.equiv_sampled, "harness.equiv_sampled",
                count=add("harness.instances", lambda out: out.checked))),
        ([transform], "formula_to_automaton",
         t.wrap(transform.formula_to_automaton, "transform.formula_to_automaton",
                count=add("transform.up_states", lambda out: len(out.states)))),
        ([transform], "automaton_to_formula",
         t.wrap(transform.automaton_to_formula, "transform.automaton_to_formula",
                count=add("transform.down_vars", lambda out: len(out.vars)))),
        ([transform], "_driver_closure",
         t.wrap(transform._driver_closure, "transform._driver_closure",
                count=add("transform.closure_pairs", lambda out: sum(map(len, out.values()))))),
        ([transform], "_extension_choices",
         t.wrap(transform._extension_choices, "transform._extension_choices",
                count=add("transform.extension_choices_sets", len))),
        ([transform], "_prune_family", t.wrap(transform._prune_family, "transform._prune_family")),
    ]
    for owners, attr, wrapper in wraps:
        for owner in owners:
            t.originals.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)


def uninstall(t: Tracer) -> None:
    """Put back every function ``install`` wrapped."""
    for owner, attr, original in reversed(t.originals):
        setattr(owner, attr, original)
    t.originals.clear()


def quiescent_at_start(t: Tracer) -> dict[str, tuple[int, int]]:
    """Per operation: (graphs whose initial configuration is already
    quiescent, graphs checked for consistency).  On the former no timing can
    change a verdict.  Call after ``uninstall``, so the probe is not traced."""
    from automu import runtime

    out: dict[str, tuple[int, int]] = {}
    for op, a, g in t.consistency_checked:
        quiet, total = out.get(op, (0, 0))
        out[op] = (quiet + runtime.is_quiescent(a, g, runtime.initial_configuration(a, g)), total + 1)
    return out


def layer_metrics(t: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one round (totals divided by the rounds run)."""
    def s(name: str) -> float:
        return t.total[name] / rounds

    def n(name: str) -> float:
        return t.calls[name] / rounds

    def k(name: str) -> float:
        return t.counters[name] / rounds

    equiv = ("harness.equiv_exhaustive", "harness.equiv_sampled")
    return {
        "logic.lfp_s": (s("logic.lfp"), "s"),
        "logic.lfp_calls": (n("logic.lfp"), "count"),
        "logic.applications": (k("logic.applications"), "count"),
        "logic.parse_s": (s("logic.parse_formula"), "s"),
        "logic.format_s": (s("logic.format_formula"), "s"),
        "runtime.sync_run_s": (s("runtime.sync_accepting_nodes"), "s"),
        "runtime.sync_runs": (n("runtime.sync_accepting_nodes"), "count"),
        "runtime.sync_steps": (n("runtime.sync_step"), "count"),
        "runtime.async_step_s": (s("runtime.async_step"), "s"),
        "runtime.async_steps": (n("runtime.async_step"), "count"),
        "runtime.quiescence_s": (s("runtime.is_quiescent"), "s"),
        "runtime.quiescence_checks": (n("runtime.is_quiescent"), "count"),
        "runtime.sampler_s": (s("runtime.TimingSampler.next_step"), "s"),
        "runtime.sampler_steps": (n("runtime.TimingSampler.next_step"), "count"),
        "runtime.consistency_runs": (k("runtime.consistency_runs"), "count"),
        "automata.delta_calls": (n("automata.delta"), "count"),
        "automata.delta_keys": (k("automata.delta_keys"), "count"),
        "automata.quasi_acyclic_s": (s("automata.is_quasi_acyclic"), "s"),
        "automata.parse_s": (s("automata.parse_automaton"), "s"),
        "graphs.enumerate_s": (s("graphs.enumerate_digraphs"), "s"),
        "graphs.enumerated": (k("graphs.enumerate_digraphs.items"), "count"),
        "graphs.random_s": (s("graphs.random_digraph"), "s"),
        "graphs.random_drawn": (n("graphs.random_digraph"), "count"),
        "harness.equiv_s": (sum(s(x) for x in equiv), "s"),
        "harness.self_s": (sum(t.self_time[x] for x in equiv) / rounds, "s"),
        "harness.instances": (k("harness.instances"), "count"),
        "transform.compile_up_s": (s("transform.formula_to_automaton"), "s"),
        "transform.up_states": (k("transform.up_states"), "count"),
        "transform.compile_down_s": (s("transform.automaton_to_formula"), "s"),
        "transform.down_vars": (k("transform.down_vars"), "count"),
        "transform.closure_s": (s("transform._driver_closure"), "s"),
        "transform.closure_pairs": (k("transform.closure_pairs"), "count"),
        "transform.extension_choices_s": (s("transform._extension_choices"), "s"),
        "transform.extension_choices_calls": (n("transform._extension_choices"), "count"),
        "transform.extension_choices_sets": (k("transform.extension_choices_sets"), "count"),
        "transform.prune_s": (s("transform._prune_family"), "s"),
    }
