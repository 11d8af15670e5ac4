"""Execution engine for distributed automata on digraphs.

Every edge is a FIFO buffer holding a trace of states its writer has
traversed.  A timing says which nodes and edges are active at each step:

* an inactive node keeps its state; an active node applies the transition
  function to the set of *fronts* of its incoming buffers;
* every buffer appends (pushlast) the writer's new state; an active buffer
  additionally drops its front (popfirst).

Node updates are computed before edge updates within a step, because the edge
update reads the writer's *new* state.  With everything active at every step
this collapses to the synchronous semantics, where each buffer always holds
exactly the writer's current state.

Runs are infinite in principle; here they are replaced by finite timing
prefixes plus quiescence detection.  A configuration is quiescent when a
fully-active step changes nothing and every buffer holds exactly its writer's
state; quiescence is absorbing under any timing, so verdicts at quiescence
are definitive.
"""

from __future__ import annotations

import itertools
import json
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .automata import (
    _GUARD_SYNTAX,
    Automaton,
    Guard,
    NotQuasiAcyclic,
    Trace,
    _guard_parts,
    trace_popfirst,
    trace_pushlast,
)
from .graphs import BitWidthMismatch, Digraph, Domain, Edge, PointedDigraph, node_set, random_digraph


class RuntimeFormatError(ValueError):
    """A timing document is malformed or does not match the graph."""


DEFAULT_P_ACTIVE = 0.5
DEFAULT_STARVATION_BOUND = 8


def split_range(total: int, parts: int) -> list[tuple[int, int]]:
    """Cover range(total) with at most ``parts`` contiguous chunks."""
    parts = max(1, min(parts, total)) if total else 1
    size, extra = divmod(total, parts)
    out, start = [], 0
    for i in range(parts):
        stop = start + size + (1 if i < extra else 0)
        out.append((start, stop))
        start = stop
    return out


def check_budget(max_nodes: int, jobs: int, **counts: int) -> None:
    """Reject a scan budget that is empty or invalid before any work starts."""
    if max_nodes < 1:
        raise ValueError(f"max_nodes must be >= 1, got {max_nodes}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    for name, count in counts.items():
        if count < 0:
            raise ValueError(f"{name} must be >= 0, got {count}")


def first_hit(scan: Callable[..., tuple], slices: list[tuple], jobs: int) -> tuple:
    """Run ``scan(*args)`` over contiguous slices given in index order, in
    ``jobs`` worker processes when more than one.  Each call returns its first
    hit (or None) and how many items it checked up to and including it.  The
    result is the hit of the earliest slice that has one, with the full counts
    of the slices before it plus its own partial count, so both are the same
    at any job count."""
    if jobs > 1 and len(slices) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(scan, *zip(*slices)))
    else:
        results = (scan(*args) for args in slices)
    checked = 0
    for hit, count in results:
        checked += count
        if hit is not None:
            return hit, checked
    return None, checked


# ---------------------------------------------------------------------------
# configurations and activations

@dataclass(frozen=True, eq=True)
class Configuration:
    node_state: dict[str, str]
    buffers: dict[Edge, Trace]


@dataclass(frozen=True, eq=True)
class Activation:
    """One step of a timing: which nodes and edges act."""

    nodes: dict[str, int]
    edges: dict[Edge, int]


@dataclass(frozen=True, eq=True)
class TimingPrefix:
    """A finite prefix of a timing, as sampled or replayed.

    ``lossless`` records that every step delivers only to active targets
    (an active edge implies an active target node).  ``starvation_bound``
    records the fairness surrogate used by the sampler: within the prefix no
    entity stays inactive for that many consecutive steps.
    """

    steps: tuple[Activation, ...]
    lossless: bool
    starvation_bound: int


def synchronous_activation(g: Digraph) -> Activation:
    return Activation(nodes={v: 1 for v in g.nodes}, edges={e: 1 for e in g.edges})


def synchronous_prefix(g: Digraph, steps: int) -> TimingPrefix:
    act = synchronous_activation(g)
    return TimingPrefix(steps=(act,) * steps, lossless=True, starvation_bound=1)


def initial_configuration(a: Automaton, g: Digraph) -> Configuration:
    if a.bits != g.bits:
        raise BitWidthMismatch(f"automaton is {a.bits}-bit, graph is {g.bits}-bit")
    states = {v: a.init[g.labels[v]] for v in g.nodes}
    return Configuration(
        node_state=states,
        buffers={(u, v): (states[u],) for (u, v) in g.edges},
    )


def _check_configuration(g: Digraph, c: Configuration) -> None:
    if set(c.node_state) != set(g.nodes) or set(c.buffers) != set(g.edges):
        raise RuntimeFormatError("configuration does not match the graph's nodes and edges")


def sync_step(a: Automaton, g: Digraph, c: Configuration) -> Configuration:
    """One synchronous step: every node reads its incoming neighbors' current
    states; every buffer ends up holding exactly its writer's new state."""
    _check_configuration(g, c)
    new_states = {
        v: a.delta(c.node_state[v], frozenset(c.node_state[u] for u in g.incoming(v)))
        for v in g.nodes
    }
    return Configuration(
        node_state=new_states,
        buffers={(u, v): (new_states[u],) for (u, v) in g.edges},
    )


def async_step(a: Automaton, g: Digraph, c: Configuration, act: Activation) -> Configuration:
    """One asynchronous step under an activation map (see module docstring)."""
    _check_configuration(g, c)
    missing = (set(g.nodes) - set(act.nodes)) | (set(g.edges) - set(act.edges))
    if missing:
        raise RuntimeFormatError(f"activation map incomplete: missing {sorted(map(str, missing))!r}")
    new_states = {}
    for v in g.nodes:
        if act.nodes[v]:
            fronts = frozenset(c.buffers[(u, v)][0] for u in g.incoming(v))
            new_states[v] = a.delta(c.node_state[v], fronts)
        else:
            new_states[v] = c.node_state[v]
    new_buffers = {}
    for (u, v) in g.edges:
        b = trace_pushlast(c.buffers[(u, v)], new_states[u])
        if act.edges[(u, v)]:
            b = trace_popfirst(b)
        new_buffers[(u, v)] = b
    return Configuration(node_state=new_states, buffers=new_buffers)


def is_quiescent(a: Automaton, g: Digraph, c: Configuration) -> bool:
    """True iff a fully-active step would change nothing: every buffer holds
    exactly its writer's state and every node's transition is a self-loop on
    the current neighborhood."""
    for (u, v), b in c.buffers.items():
        if len(b) != 1 or b[0] != c.node_state[u]:
            return False
    for v in g.nodes:
        ns = frozenset(c.node_state[u] for u in g.incoming(v))
        if a.delta(c.node_state[v], ns) != c.node_state[v]:
            return False
    return True


# ---------------------------------------------------------------------------
# timing sampler

class TimingSampler:
    """Deterministic stream of activation maps for a graph.

    Each entity is active with probability ``p_active``; an entity that has
    been inactive for ``starvation_bound - 1`` consecutive steps is forced
    active (the finite surrogate of fairness).  With ``lossless``, after
    sampling a step, every node with an active incoming edge is forced active
    as well; edge activations are never removed.
    """

    def __init__(
        self,
        g: Digraph,
        p_active: float = DEFAULT_P_ACTIVE,
        starvation_bound: int = DEFAULT_STARVATION_BOUND,
        lossless: bool = False,
        seed: int = 0,
    ):
        if not 0 < p_active <= 1:
            raise ValueError("p_active must be in (0, 1]")
        if starvation_bound < 1:
            raise ValueError("starvation_bound must be >= 1")
        self.g = g
        self.p_active = p_active
        self.starvation_bound = starvation_bound
        self.lossless = lossless
        self._rng = random.Random(seed)
        self._edges = sorted(g.edges)  # edges draw in this order, not in hash order
        self._idle: dict[object, int] = {x: 0 for x in itertools.chain(g.nodes, self._edges)}

    def __iter__(self) -> Iterator[Activation]:
        while True:
            yield self.next_step()

    def _draw(self, key: object) -> int:
        if self._idle[key] >= self.starvation_bound - 1:
            return 1
        return 1 if self._rng.random() < self.p_active else 0

    def next_step(self) -> Activation:
        nodes = {v: self._draw(v) for v in self.g.nodes}
        edges = {e: self._draw(e) for e in self._edges}
        if self.lossless:
            for (u, v), on in edges.items():
                if on:
                    nodes[v] = 1
        for v, on in nodes.items():
            self._idle[v] = 0 if on else self._idle[v] + 1
        for e, on in edges.items():
            self._idle[e] = 0 if on else self._idle[e] + 1
        return Activation(nodes=nodes, edges=edges)


def sample_timing(
    g: Digraph,
    steps: int,
    p_active: float = DEFAULT_P_ACTIVE,
    starvation_bound: int = DEFAULT_STARVATION_BOUND,
    lossless: bool = False,
    seed: int = 0,
) -> TimingPrefix:
    """Materialize ``steps`` activation maps from a TimingSampler."""
    sampler = TimingSampler(g, p_active, starvation_bound, lossless, seed)
    return TimingPrefix(
        steps=tuple(sampler.next_step() for _ in range(steps)),
        lossless=lossless,
        starvation_bound=starvation_bound,
    )


def _edge_key(e: Edge) -> str:
    return f"{e[0]}->{e[1]}"


def timing_to_dict(t: TimingPrefix) -> dict:
    return {
        "lossless": t.lossless,
        "K": t.starvation_bound,
        "steps": [
            {
                "nodes": dict(sorted(step.nodes.items())),
                "edges": {_edge_key(e): on for e, on in sorted(step.edges.items())},
            }
            for step in t.steps
        ],
    }


def timing_to_json(t: TimingPrefix) -> str:
    return json.dumps(timing_to_dict(t), indent=2)


def parse_timing(text: str) -> TimingPrefix:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise RuntimeFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not all(k in doc for k in ("lossless", "K", "steps")):
        raise RuntimeFormatError("timing document needs 'lossless', 'K' and 'steps'")
    if not isinstance(doc["lossless"], bool):
        raise RuntimeFormatError("'lossless' must be true or false")
    if not isinstance(doc["K"], int) or doc["K"] < 1:
        raise RuntimeFormatError("'K' must be an integer >= 1")
    if not isinstance(doc["steps"], list):
        raise RuntimeFormatError("'steps' must be a list")
    steps = []
    for i, step in enumerate(doc["steps"]):
        if not isinstance(step, dict) or "nodes" not in step or "edges" not in step:
            raise RuntimeFormatError(f"step #{i} needs 'nodes' and 'edges'")
        for part in ("nodes", "edges"):
            if not (isinstance(step[part], dict) and all(on in (0, 1) for on in step[part].values())):
                raise RuntimeFormatError(f"step #{i}: '{part}' must map ids to 0 or 1")
        edges = {}
        for key, on in step["edges"].items():
            if "->" not in key:
                raise RuntimeFormatError(f"step #{i}: bad edge key {key!r} (want 'src->dst')")
            u, _, v = key.partition("->")
            edges[(u, v)] = on
        steps.append(Activation(nodes=dict(step["nodes"]), edges=edges))
    return TimingPrefix(steps=tuple(steps), lossless=doc["lossless"], starvation_bound=doc["K"])


# ---------------------------------------------------------------------------
# runs

@dataclass(frozen=True)
class RunReport:
    """Outcome of a finite run.

    ``accepted`` maps each node to "yes", "no" or "unknown"; "no" is only
    reported once quiescence proves no accepting state can be visited later.
    ``visited_accepting_at`` is the earliest step (0 = initial configuration)
    at which the node was in an accepting state.  ``trace_of`` is the full
    trace each node traversed.  ``steps_taken`` counts the activation steps
    actually applied (a run stops early once quiescent).
    """

    accepted: dict[str, str]
    visited_accepting_at: dict[str, int | None]
    stabilized_at: int | None
    trace_of: dict[str, Trace]
    steps_taken: int
    final: Configuration

    def to_dict(self) -> dict:
        return {
            "accepted": dict(sorted(self.accepted.items())),
            "visited_accepting_at": dict(sorted(self.visited_accepting_at.items())),
            "stabilized_at": self.stabilized_at,
            "trace_of": {v: list(t) for v, t in sorted(self.trace_of.items())},
            "steps_taken": self.steps_taken,
        }


def _run(
    a: Automaton,
    g: Digraph,
    activations: Iterable[Activation],
    extend_until_quiescent: bool,
) -> RunReport:
    """Drive a run along ``activations``; optionally keep stepping with the
    fully-active (round-robin-fair) policy until quiescent."""
    config = initial_configuration(a, g)
    visited: dict[str, int | None] = {
        v: 0 if config.node_state[v] in a.accepting else None for v in g.nodes
    }
    traces: dict[str, Trace] = {v: (config.node_state[v],) for v in g.nodes}
    stabilized: int | None = 0 if is_quiescent(a, g, config) else None
    step = 0

    def schedule() -> Iterator[Activation]:
        """The supplied activations, then the fully-active extension."""
        yield from activations
        if not extend_until_quiescent:
            return
        # termination bound for the fully-active policy: every node moves at
        # most (longest trace - 1) times in total, buffers never exceed the
        # longest trace in length, and a move-free stretch of longest+2 steps
        # drains every buffer and forces the quiescence check to succeed
        longest = a.trace_length_bound()
        if longest is None:
            raise NotQuasiAcyclic(
                "cannot extend to quiescence: buffers of a non-quasi-acyclic automaton may grow forever"
            )
        budget = (len(g.nodes) * (longest + 1) + 2) * (longest + 2)
        budget += sum(len(b) for b in config.buffers.values())
        yield from itertools.repeat(synchronous_activation(g), budget)
        raise AssertionError("quiescence not reached within its theoretical bound")

    if stabilized is None:
        for act in schedule():
            step += 1
            config = async_step(a, g, config, act)
            for v in g.nodes:
                traces[v] = trace_pushlast(traces[v], config.node_state[v])
                if visited[v] is None and config.node_state[v] in a.accepting:
                    visited[v] = step
            if is_quiescent(a, g, config):
                stabilized = step
                break

    unvisited = "no" if stabilized is not None else "unknown"
    return RunReport(
        accepted={v: "yes" if visited[v] is not None else unvisited for v in g.nodes},
        visited_accepting_at=dict(visited),
        stabilized_at=stabilized,
        trace_of=dict(traces),
        steps_taken=step,
        final=config,
    )


def async_run(
    a: Automaton,
    g: Digraph,
    timing: TimingPrefix,
    extend_until_quiescent: bool = True,
) -> RunReport:
    """Simulate the run along a timing prefix.

    With ``extend_until_quiescent`` (allowed only for quasi-acyclic automata)
    the run continues past the prefix under the fully-active fair policy until
    the configuration is quiescent, at which point every verdict is a
    definitive yes/no.  Otherwise verdicts are yes/unknown at prefix end.
    """
    return _run(a, g, timing.steps, extend_until_quiescent)


_ANY, _ALL, _NOT, _AND, _OR, _TRUE = range(6)


@dataclass(frozen=True)
class _Kernel:
    """An automaton's rules compiled once into bitwise ops over has[q], the
    domain nodes with an incoming neighbour in state q.  Guard slot i is op
    ``(i, code, args)``: args is a mask of states for _ANY/_ALL and a tuple
    of earlier slots otherwise.  ``rules[q]`` are q's rules as (slot, target
    state), first match wins, and ``ops[q]`` the ops they read, in slot
    order."""

    init: dict[str, int]  # label -> initial state
    accepting: int  # a mask of states
    slots: int
    ops: tuple[tuple[tuple[int, int, int | tuple[int, ...]], ...], ...]
    rules: tuple[tuple[tuple[int, int], ...], ...]


def _compile_kernel(a: Automaton) -> _Kernel:
    index = {q: i for i, q in enumerate(a.states)}
    keys: dict[tuple, int] = {}
    ops: list[tuple[int, int, int | tuple[int, ...]]] = []
    reads: list[int] = []  # slot -> the slots it is computed from, itself included, as a mask

    def intern(code: int, args: int | tuple[int, ...]) -> int:
        if (code, args) not in keys:
            mask = 1 << len(ops)
            for x in args if isinstance(args, tuple) else ():
                mask |= reads[x]
            keys[code, args] = len(ops)
            ops.append((len(ops), code, args))
            reads.append(mask)
        return keys[code, args]

    def states(qs: Iterable[str]) -> int:
        return sum(1 << index[q] for q in set(qs))

    def guard_slot(guard: Guard) -> int:
        """subseteq(A) is "no neighbour outside A", supseteq(B) "a neighbour
        in every state of B"; the combinators fold their parts' slots."""
        slot: dict[int, int] = {}
        for g in reversed(_guard_parts(guard)):  # every part before its whole
            kind = _GUARD_SYNTAX[type(g)][0]
            if kind == "subseteq":
                slot[id(g)] = intern(_NOT, (intern(_ANY, (1 << len(index)) - 1 ^ states(g.states)),))
            elif kind == "supseteq":
                slot[id(g)] = intern(_ALL, states(g.states))
            elif kind == "not":
                slot[id(g)] = intern(_NOT, (slot[id(g.inner)],))
            elif kind == "else":
                slot[id(g)] = intern(_TRUE, ())
            else:
                parts = tuple(sorted({slot[id(p)] for p in g.parts}))
                slot[id(g)] = intern(_AND if kind == "and" else _OR, parts)
        return slot[id(guard)]

    rules = tuple(tuple((guard_slot(r.guard), index[r.target]) for r in a.rules[q]) for q in a.states)
    per_state = []
    for lst in rules:
        mask = 0
        for slot, _ in lst:
            mask |= reads[slot]
        per_state.append(tuple(op for op in ops if mask >> op[0] & 1))
    return _Kernel(
        init={w: index[q] for w, q in a.init.items()},
        accepting=states(a.accepting),
        slots=len(ops),
        ops=tuple(per_state),
        rules=rules,
    )


def sync_accepting_mask(a: Automaton, domain: Domain) -> int:
    """The domain nodes that visit an accepting state in the synchronous
    run, on every digraph of the domain at once.  Each occupied state q
    holds the mask of the nodes in q; a step computes the guards its rules
    read once for all nodes from has[q], and moves q's nodes by a
    first-match fold over them.  The run is deterministic over finitely
    many configurations, so it is simulated until the whole configuration
    repeats: every digraph's own run has then repeated too, and acceptance
    is decided exactly."""
    kernel = a._cache.get("kernel")
    if kernel is None:
        kernel = a._cache["kernel"] = _compile_kernel(a)
    full, dia, accepting = domain.full, domain.dia, kernel.accepting
    states: dict[int, int] = {}  # occupied state -> its nodes
    for w, nodes in domain.words.items():
        q = kernel.init[w]
        states[q] = states.get(q, 0) | nodes
    visited = 0
    seen: set[frozenset[tuple[int, int]]] = set()
    vals = [0] * kernel.slots
    while True:
        for q, nodes in states.items():
            if accepting >> q & 1:
                visited |= nodes
        key = frozenset(states.items())
        if key in seen:
            return visited
        seen.add(key)
        has = [(1 << q, dia(nodes)) for q, nodes in states.items()]
        occupied = sum(q for q, _ in has)
        fresh = [False] * kernel.slots  # computed in this step
        new: dict[int, int] = {}
        for q, rest in states.items():
            for i, code, args in kernel.ops[q]:
                if fresh[i]:
                    continue
                fresh[i] = True
                if code == _ANY:
                    v = 0
                    for x, h in has:
                        if args & x:
                            v |= h
                elif code == _ALL:
                    v = 0 if args & ~occupied else full
                    for x, h in has if v else ():
                        if args & x:
                            v &= h
                elif code == _NOT:
                    v = full ^ vals[args[0]]
                elif code == _AND:
                    v = full
                    for x in args:
                        v &= vals[x]
                elif code == _OR:
                    v = 0
                    for x in args:
                        v |= vals[x]
                else:
                    v = full
                vals[i] = v
            for slot, target in kernel.rules[q]:
                fire = rest & vals[slot]
                if fire:
                    new[target] = new.get(target, 0) | fire
                    rest ^= fire
                    if not rest:
                        break
        states = new


def sync_accepting_nodes(a: Automaton, g: Digraph) -> frozenset[str]:
    """Nodes that visit an accepting state in the synchronous run: the W = 1
    call of ``sync_accepting_mask``.  ``sync_step`` is the reference step."""
    if a.bits != g.bits:
        raise BitWidthMismatch(f"automaton is {a.bits}-bit, graph is {g.bits}-bit")
    return node_set(g, sync_accepting_mask(a, Domain.of_digraph(g)))


def sync_accepts(a: Automaton, p: PointedDigraph) -> bool:
    """Acceptance of a pointed digraph under the synchronous run."""
    return p.point in sync_accepting_nodes(a, p.graph)


# ---------------------------------------------------------------------------
# consistency fuzzing

@dataclass(frozen=True)
class ConsistencyWitness:
    node: str
    timing_a: TimingPrefix
    verdict_a: str
    timing_b: TimingPrefix
    verdict_b: str


@dataclass(frozen=True)
class ConsistencyVerdict:
    """``consistent`` means no disagreement was found within the budget; it is
    never a proof that the automaton is asynchronous."""

    consistent: bool
    runs: int
    witness: ConsistencyWitness | None = None


def check_consistency(
    a: Automaton,
    g: Digraph,
    samples: int,
    lossless_only: bool = False,
    seed: int = 0,
    budget: int | None = None,
) -> ConsistencyVerdict:
    """Run ``samples`` sampled fair timings plus the synchronous timing and
    compare definitive per-node verdicts.  A graph whose initial
    configuration is already quiescent takes the synchronous run alone.

    Without ``lossless_only``, sampled timings alternate lossless and lossy.
    A disagreement is returned with the two timings (truncated to the steps
    actually executed, hence replayable) and the node as witness.
    """
    if budget is None:
        budget = 10 * DEFAULT_STARVATION_BOUND * len(g.nodes)
    quasi = a.trace_length_bound() is not None

    def run_prefix(activations: Iterable[Activation], lossless: bool, k: int) -> tuple[RunReport, TimingPrefix]:
        consumed_steps: list[Activation] = []

        def tee() -> Iterator[Activation]:
            for act in itertools.islice(activations, budget):
                consumed_steps.append(act)
                yield act

        report = _run(a, g, tee(), extend_until_quiescent=quasi)
        return report, TimingPrefix(tuple(consumed_steps), lossless=lossless, starvation_bound=k)

    base_report, base_prefix = run_prefix(iter(synchronous_prefix(g, budget).steps), True, 1)
    if base_report.stabilized_at == 0:
        # quiescent from the start: every timing gives this run's verdicts
        return ConsistencyVerdict(consistent=True, runs=1)
    verdicts: dict[str, tuple[str, TimingPrefix]] = {
        v: (base_report.accepted[v], base_prefix) for v in g.nodes
    }

    rng = random.Random(seed)
    runs = 1
    for i in range(samples):
        lossless = True if lossless_only else (i % 2 == 0)
        sampler = TimingSampler(g, lossless=lossless, seed=rng.randrange(2**32))
        report, prefix = run_prefix(iter(sampler), lossless, DEFAULT_STARVATION_BOUND)
        runs += 1
        for v in g.nodes:
            got = report.accepted[v]
            ref, ref_prefix = verdicts[v]
            if got == "unknown":
                continue
            if ref == "unknown":  # first definitive verdict becomes the reference
                verdicts[v] = (got, prefix)
                continue
            if got != ref:
                return ConsistencyVerdict(
                    consistent=False,
                    runs=runs,
                    witness=ConsistencyWitness(
                        node=v, timing_a=ref_prefix, verdict_a=ref,
                        timing_b=prefix, verdict_b=got,
                    ),
                )
    return ConsistencyVerdict(consistent=True, runs=runs)


@dataclass(frozen=True)
class FuzzWitness:
    graph: Digraph
    witness: ConsistencyWitness


@dataclass(frozen=True)
class FuzzVerdict:
    consistent: bool
    graphs_checked: int
    witness: FuzzWitness | None = None


def _fuzz_slice(
    a: Automaton,
    max_nodes: int,
    specs: list[tuple[int, int]],
    timings_per_graph: int,
    lossless_only: bool,
) -> tuple[FuzzWitness | None, int]:
    for offset, (graph_seed, timing_seed) in enumerate(specs):
        g = random_digraph(random.Random(graph_seed), max_nodes, a.bits).graph
        verdict = check_consistency(
            a, g, samples=timings_per_graph, lossless_only=lossless_only, seed=timing_seed,
        )
        if not verdict.consistent:
            return FuzzWitness(graph=g, witness=verdict.witness), offset + 1
    return None, len(specs)


def fuzz_consistency(
    a: Automaton,
    max_nodes: int,
    graphs: int,
    timings_per_graph: int,
    lossless_only: bool = False,
    seed: int = 0,
    jobs: int = 1,
) -> FuzzVerdict:
    """check_consistency over ``graphs`` random digraphs.  Every graph runs
    off its own derived sub-seed, so the first inconsistent graph (by index)
    and ``graphs_checked`` are the same at any job count."""
    check_budget(max_nodes, jobs, graphs=graphs, timings_per_graph=timings_per_graph)
    rng = random.Random(seed)
    specs = [(rng.randrange(2**32), rng.randrange(2**32)) for _ in range(graphs)]
    witness, checked = first_hit(_fuzz_slice, [
        (a, max_nodes, specs[start:stop], timings_per_graph, lossless_only)
        for start, stop in split_range(graphs, jobs)
    ], jobs)
    return FuzzVerdict(consistent=witness is None, graphs_checked=checked, witness=witness)
