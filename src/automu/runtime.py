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
prefixes plus quiescence detection.  A prefix holds one mask per step, bit
i for entity i (see ``TimingPrefix``).  It comes from ``TimingSampler``,
which draws each step by its definition, one ``random()`` per entity that
is not starved, or from a timing document, which ``parse_timing`` checks
against the graph as it reads it.  A configuration is quiescent when a
fully-active step changes nothing and every buffer holds exactly its
writer's state; quiescence is absorbing under any timing, so verdicts at
quiescence are definitive.

``async_run`` and ``check_consistency``'s sampled loop run on one engine,
``_run``, over an automaton and a graph compiled once into indices
(``_Net``): the automaton's state encoding, buffers of state indices, the
timing's masks and the memoized ``Automaton.step``.  Before it samples,
``check_consistency`` asks the automaton's certificate
``Automaton.is_monotone``, which proves every graph consistent at once, and
then runs the lossy explorer ``_outcomes`` on the same ``_Net``, which can
prove one graph consistent; either way no engine runs.  ``fuzz_consistency``
settles what it can before that, from the integers a graph is drawn as
(``random_indices``): a graph no node of which moves at the start
(``_index_movers``, which shares ``_initial_targets`` with ``_Net``), and
every graph that moves once the certificate holds, as it does for the
flagship ``samples/safe_one.json`` and the compile-ups of the criterion-4
formulas.  Only the other graphs are built as a ``Digraph`` and a
``_Net``.  ``async_step``, ``is_quiescent``, ``sync_step`` and
``initial_configuration`` are the single-step API on named configurations
and ``Activation`` maps, and the reference the engine is tested against.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .automata import Automaton, NotQuasiAcyclic, Trace, trace_popfirst, trace_pushlast
from .graphs import (
    BitWidthMismatch,
    Digraph,
    Domain,
    Edge,
    PointedDigraph,
    indexed_digraph,
    labeling,
    node_set,
    random_digraph,  # not called here, but a module attribute the benchmark's tracer wraps by name
    random_indices,
)


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


def check_counts(**counts: int) -> None:
    """Reject a negative count, naming it, before any work starts."""
    for name, count in counts.items():
        if count < 0:
            raise ValueError(f"{name} must be >= 0, got {count}")


def check_budget(max_nodes: int, jobs: int, **counts: int) -> None:
    """Reject a scan budget that is empty or invalid before any work starts."""
    if max_nodes < 1:
        raise ValueError(f"max_nodes must be >= 1, got {max_nodes}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    check_counts(**counts)


def first_hit(scan: Callable[..., tuple], slices: list[tuple], jobs: int) -> tuple:
    """Run ``scan(*args)`` over contiguous slices given in index order, in
    ``jobs`` worker processes when more than one.  Each call returns its first
    hit (or None) and its counts up to and including it, the first being how
    many items it checked.  The result is the hit of the earliest slice that
    has one, with each count summed over the slices before it plus its own
    partial count, so all are the same at any job count."""
    if jobs > 1 and len(slices) > 1:
        # imported here: it pulls in multiprocessing, which a one-process run never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(scan, *zip(*slices)))
    else:
        results = (scan(*args) for args in slices)
    totals = None
    for hit, *counts in results:
        totals = counts if totals is None else [t + c for t, c in zip(totals, counts)]
        if hit is not None:
            break
    return (hit, *totals)


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
    """A finite prefix of a timing on one graph g, as sampled or replayed.

    A step is the mask of the entities that act, bit i for entity i: the
    nodes in ``g.nodes`` order, then ``g.sorted_edges``.  ``lossless``
    records that every step delivers only to active targets (an active edge
    implies an active target node).  ``starvation_bound`` records the
    fairness surrogate used by the sampler: within the prefix no entity
    stays inactive for that many consecutive steps.
    """

    steps: tuple[int, ...]
    lossless: bool
    starvation_bound: int


def synchronous_activation(g: Digraph) -> Activation:
    return Activation(nodes={v: 1 for v in g.nodes}, edges={e: 1 for e in g.edges})


def synchronous_prefix(g: Digraph, steps: int) -> TimingPrefix:
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    full = (1 << len(g.nodes) + len(g.edges)) - 1  # every entity active
    return TimingPrefix(steps=(full,) * steps, lossless=True, starvation_bound=1)


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

def _sample(g: Digraph, p_active: float, starvation_bound: int, lossless: bool,
            rng: random.Random) -> Iterator[int]:
    """The sampler's steps as masks (see ``TimingSampler``).  An entity is
    starved when it was inactive in each of the last K-1 steps: none is
    before K-1 steps exist, and every one is at each step when K = 1."""
    n = len(g.nodes)
    entities = [1 << i for i in range(n + len(g.edges))]
    full = (1 << len(entities)) - 1
    # (the edges into a node, as entity bits, and the node's bit)
    deliver = [(into << n, 1 << v) for v, into in enumerate(g.in_edges) if into] if lossless else ()
    recent: deque[int] = deque(maxlen=starvation_bound - 1)
    draw = rng.random
    while True:
        starved = 0
        if len(recent) == recent.maxlen:
            starved = full
            for on in recent:
                starved &= ~on
        on = starved  # a starved entity is active and takes no draw
        for bit in entities:
            if not starved & bit and draw() < p_active:
                on |= bit
        for into, node in deliver:
            if on & into:
                on |= node
        recent.append(on)
        yield on


class TimingSampler:
    """Deterministic stream of activation maps for a graph.

    Each entity is active with probability ``p_active``; an entity that has
    been inactive for ``starvation_bound - 1`` consecutive steps is forced
    active (the finite surrogate of fairness).  With ``lossless``, after
    sampling a step, every node with an active incoming edge is forced active
    as well; edge activations are never removed.

    The entities are indexed: the nodes in ``g.nodes`` order, then the edges
    in sorted order, which is also the order of the random draws.  Each step
    takes one ``random()`` per entity that is not starved, which is active
    iff the draw is below ``p_active``; a starved one takes no draw.
    ``next_bits`` gives a step as a mask whose bit i is entity i, and
    ``next_step`` wraps it into an ``Activation`` for ``async_step``.  Both
    read one stream, ``_sample``, which ``check_consistency`` runs the
    engine on directly.
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
        self._masks = _sample(g, p_active, starvation_bound, lossless, random.Random(seed))

    def next_bits(self) -> int:
        """The next step as a mask: bit i is entity i."""
        return next(self._masks)

    def next_step(self) -> Activation:
        on = self.next_bits()
        nodes = self.g.nodes
        return Activation(nodes={v: on >> i & 1 for i, v in enumerate(nodes)},
                          edges={e: on >> i & 1 for i, e in enumerate(self.g.sorted_edges, len(nodes))})


def sample_timing(
    g: Digraph,
    steps: int,
    p_active: float = DEFAULT_P_ACTIVE,
    starvation_bound: int = DEFAULT_STARVATION_BOUND,
    lossless: bool = False,
    seed: int = 0,
) -> TimingPrefix:
    """Materialize ``steps`` masks from a TimingSampler."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    sampler = TimingSampler(g, p_active, starvation_bound, lossless, seed)
    return TimingPrefix(
        steps=tuple(sampler.next_bits() for _ in range(steps)),
        lossless=lossless,
        starvation_bound=starvation_bound,
    )


def _entity_keys(g: Digraph) -> tuple[list[tuple[str, int]], list[tuple[str, int]]]:
    """The nodes and the edges of ``g`` as (document key, entity index)
    pairs, each list in the order a timing document writes them: the nodes
    by name, the edges sorted, keyed "u->v"."""
    n = len(g.nodes)
    return (sorted((v, i) for i, v in enumerate(g.nodes)),
            [(f"{u}->{v}", i) for i, (u, v) in enumerate(g.sorted_edges, n)])


def timing_to_dict(t: TimingPrefix, g: Digraph) -> dict:
    """The document of a timing on ``g`` (the one ``parse_timing`` reads)."""
    nodes, edges = _entity_keys(g)
    return {
        "lossless": t.lossless,
        "K": t.starvation_bound,
        "steps": [
            {"nodes": {v: on >> i & 1 for v, i in nodes}, "edges": {key: on >> i & 1 for key, i in edges}}
            for on in t.steps
        ],
    }


def timing_to_json(t: TimingPrefix, g: Digraph) -> str:
    return json.dumps(timing_to_dict(t, g), indent=2)


def parse_timing(text: str, g: Digraph) -> TimingPrefix:
    """Read a timing document on ``g`` into masks.  Each step maps exactly
    g's nodes under 'nodes' and its edges, keyed "u->v", under 'edges' to
    the integer 0 or 1, and a lossless one activates no edge whose target
    node is inactive; any other raises ``RuntimeFormatError``."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise RuntimeFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not all(k in doc for k in ("lossless", "K", "steps")):
        raise RuntimeFormatError("timing document needs 'lossless', 'K' and 'steps'")
    if not isinstance(doc["lossless"], bool):
        raise RuntimeFormatError("'lossless' must be true or false")
    if type(doc["K"]) is not int or doc["K"] < 1:  # a JSON true is an int subclass, not an integer
        raise RuntimeFormatError("'K' must be an integer >= 1")
    if not isinstance(doc["steps"], list):
        raise RuntimeFormatError("'steps' must be a list")
    node_bits, edge_bits = ({key: 1 << i for key, i in keys} for keys in _entity_keys(g))
    # per edge, in sorted order: its key, its bit, its target and the target's bit
    deliver = [(key, edge_bits[key], v, node_bits[v]) for key, (_, v) in zip(edge_bits, g.sorted_edges)]
    steps = []
    for i, step in enumerate(doc["steps"]):
        if not isinstance(step, dict) or "nodes" not in step or "edges" not in step:
            raise RuntimeFormatError(f"step #{i} needs 'nodes' and 'edges'")
        for part in ("nodes", "edges"):
            # a JSON true is an int subclass, not the integer 1
            if not (isinstance(step[part], dict) and all(type(on) is int and on in (0, 1) for on in step[part].values())):
                raise RuntimeFormatError(f"step #{i}: '{part}' must map ids to 0 or 1")
        nodes, edges = step["nodes"], step["edges"]
        for key in edges:
            if "->" not in key:
                raise RuntimeFormatError(f"step #{i}: bad edge key {key!r} (want 'src->dst')")
        missing = (node_bits.keys() - nodes.keys()) | (edge_bits.keys() - edges.keys())
        if missing:
            raise RuntimeFormatError(f"step #{i}: activation map incomplete: missing {sorted(missing)!r}")
        extra = (nodes.keys() - node_bits.keys()) | (edges.keys() - edge_bits.keys())
        if extra:
            raise RuntimeFormatError(f"step #{i}: {sorted(extra)!r} not in the graph")
        on = sum(node_bits[v] for v, x in nodes.items() if x) + sum(edge_bits[e] for e, x in edges.items() if x)
        if doc["lossless"]:
            for key, bit, v, node in deliver:
                if on & bit and not on & node:
                    raise RuntimeFormatError(f"step #{i}: lossless timing activates edge {key} "
                                             f"while {v!r} is inactive")
        steps.append(on)
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


def _initial_targets(a: Automaton, init: Sequence[int], fronts: Sequence[int]) -> tuple[list[int], int]:
    """Each node's target in its initial state ``init[v]`` on its initial
    fronts ``fronts[v]`` (the mask of its in-neighbours' initial states,
    a self-loop included), and the mask of the initial movers, the nodes
    whose target is not their state.  With no movers every run stops at
    step 0."""
    targets, movers = [], 0
    for v, (q, f) in enumerate(zip(init, fronts)):
        t = a.step(q, f)
        targets.append(t)
        if t != q:
            movers |= 1 << v
    return targets, movers


def _label_states(a: Automaton) -> list[int]:
    """Per label, read as the integer its bits write in ``labeling``, the
    index of the state it initializes a node in."""
    return [a.index[a.init[labeling(1, a.bits, code)[0]]] for code in range(1 << a.bits)]


def _index_movers(a: Automaton, label_states: list[int], m: int, mask: int, index: int) -> int:
    """The initial movers of ``_Net(a, indexed_digraph(m, a.bits, mask,
    index))``, from the integers alone: node v's label is its ``a.bits``
    digits of ``index`` (node 0 most significant), and bit u·m + v of
    ``mask`` is the edge u -> v."""
    bits = a.bits
    low_bits = (1 << bits) - 1
    init = [label_states[index >> bits * (m - 1 - v) & low_bits] for v in range(m)]
    fronts = [0] * m
    while mask:
        low = mask & -mask
        mask ^= low
        u, v = divmod(low.bit_length() - 1, m)
        fronts[v] |= 1 << init[u]
    return _initial_targets(a, init, fronts)[1]


class _Net:
    """An automaton and a graph compiled once for the run engine.  Nodes are
    indices in ``g.nodes`` order, edges indices in ``g.sorted_edges`` order
    (the sampler's), states the automaton's own encoding; a step's
    activation is a mask of entities, bit v for node v and bit n + j for
    edge j.  The engine reads each target from ``Automaton.step``."""

    def __init__(self, a: Automaton, g: Digraph):
        if a.bits != g.bits:
            raise BitWidthMismatch(f"automaton is {a.bits}-bit, graph is {g.bits}-bit")
        self.a, self.g = a, g
        self.accepting = a.mask(a.accepting)
        n, ends = len(g.nodes), g.edge_endpoints
        self.full = (1 << n + len(ends)) - 1  # every entity active
        self.reader = [v for _, v in ends]
        self.incoming = [[j for j, (_, w) in enumerate(ends) if w == v] for v in range(n)]
        # per node: its out-edges as (edge, edge bit, reader), and their bits as one mask
        self.outgoing = [[(j, 1 << n + j, w) for j, (u, w) in enumerate(ends) if u == v] for v in range(n)]
        self.out_bits = [sum(bit for _, bit, _ in out) for out in self.outgoing]
        # the initial configuration, which every run copies: states, buffers,
        # traces, the step each node visited an accepting state, and targets
        self.init = [a.index[a.init[g.labels[v]]] for v in g.nodes]
        self.bufs = [(self.init[u],) for u, _ in ends]
        self.traces = [(q,) for q in self.init]
        self.visited = [0 if self.accepting >> q & 1 else None for q in self.init]
        fronts = [0] * n
        for u, v in ends:
            fronts[v] |= 1 << self.init[u]
        self.target, self.movers = _initial_targets(a, self.init, fronts)

    def target_of(self, q: int, bufs: Sequence[tuple[int, ...]], w: int) -> int:
        """Node w's target in state q on the fronts of ``bufs``."""
        fronts = 0
        for j in self.incoming[w]:
            fronts |= 1 << bufs[j][0]
        return self.a.step(q, fronts)

    def extension(self, bufs: list[tuple[int, ...]]) -> Iterator[int]:
        """The fully-active steps that follow a run's supplied ones, until
        the theoretical bound; ``bufs`` are read when the first is drawn."""
        # termination bound for the fully-active policy: every node moves at
        # most (longest trace - 1) times in total, buffers never exceed the
        # longest trace in length, and a move-free stretch of longest+2 steps
        # drains every buffer and forces the quiescence check to succeed
        # (traces from initialization: no run leaves their states)
        longest = self.a.trace_length_bound(self.a.init.values())
        if longest is None:
            raise NotQuasiAcyclic(
                "cannot extend to quiescence: buffers of a non-quasi-acyclic automaton may grow forever"
            )
        budget = (len(self.init) * (longest + 1) + 2) * (longest + 2) + sum(map(len, bufs))
        yield from itertools.repeat(self.full, budget)
        raise AssertionError("quiescence not reached within its theoretical bound")


class _Outcome(NamedTuple):
    """A run in the engine's indices: per node the step it first visited an
    accepting state (or None), the quiescence step (or None), the steps
    applied, and the final states, buffers and node traces."""

    visited: list[int | None]
    stabilized: int | None
    steps: int
    state: list[int]
    bufs: list[tuple[int, ...]]
    traces: list[tuple[int, ...]]

    def verdicts(self) -> list[str]:
        unvisited = "no" if self.stabilized is not None else "unknown"
        return ["yes" if at is not None else unvisited for at in self.visited]


def _run(net: _Net, steps: Iterable[int], extend_until_quiescent: bool) -> _Outcome:
    """The run engine: drive a run along the activation masks ``steps``;
    optionally keep stepping with the fully-active (round-robin-fair) policy
    until quiescent.

    A buffer is a tuple of state indices whose last entry is always its
    writer's state.  The engine keeps each node's target on its current
    fronts, the ``movers`` whose target is not their state, and the ``long``
    buffers holding more than one state (a mask of their edges' bits).  A step touches only
    the active movers, their out-edges, and the active long buffers, and
    recomputes a target only where a node's state or one of its fronts
    changed.  The configuration is quiescent when no node moves and every
    buffer mirrors its writer: no movers and no long buffers."""
    state, bufs, traces, visited = net.init[:], net.bufs[:], net.traces[:], net.visited[:]
    movers = net.movers
    if not movers:
        return _Outcome(visited, 0, 0, state, bufs, traces)
    accepting, transition = net.accepting, net.a.step
    incoming, outgoing, out_bits, reader = net.incoming, net.outgoing, net.out_bits, net.reader
    edge0 = len(state)  # the bit of edge 0
    target = net.target[:]
    long = 0
    if extend_until_quiescent:
        steps = itertools.chain(steps, net.extension(bufs))
    step = 0
    for on in steps:
        step += 1
        moving, popping = on & movers, on & long
        if not (moving or popping):
            continue
        stale = moving  # nodes whose target is to be recomputed
        while moving:
            low = moving & -moving
            moving ^= low
            v = low.bit_length() - 1
            q = state[v] = target[v]
            traces[v] += (q,)
            if visited[v] is None and accepting >> q & 1:
                visited[v] = step
            popping &= ~out_bits[v]
            for j, bit, w in outgoing[v]:  # pushlast the writer's new state
                if on & bit:  # and popfirst, keeping the length: its reader sees a new front
                    bufs[j] = bufs[j][1:] + (q,)
                    stale |= 1 << w
                else:
                    bufs[j] += (q,)
                    long |= bit
        while popping:  # active long buffers whose writer stayed
            bit = popping & -popping
            popping ^= bit
            j = bit.bit_length() - 1 - edge0
            b = bufs[j] = bufs[j][1:]
            if len(b) == 1:
                long ^= bit
            stale |= 1 << reader[j]
        while stale:
            low = stale & -stale
            stale ^= low
            w = low.bit_length() - 1
            q, fronts = state[w], 0
            for j in incoming[w]:
                fronts |= 1 << bufs[j][0]
            t = target[w] = transition(q, fronts)
            movers = movers | low if t != q else movers & ~low
        if not (movers or long):
            return _Outcome(visited, step, step, state, bufs, traces)
    return _Outcome(visited, None, step, state, bufs, traces)


def async_run(
    a: Automaton,
    g: Digraph,
    timing: TimingPrefix,
    extend_until_quiescent: bool = True,
) -> RunReport:
    """Simulate the run along a timing prefix.

    With ``extend_until_quiescent`` (allowed only for automata quasi-acyclic
    on the states runs visit) the run continues past the prefix under the
    fully-active fair policy until the configuration is quiescent, at which
    point every verdict is a definitive yes/no.  Otherwise verdicts are yes/unknown at prefix end.
    The timing's steps are masks on ``g`` (see ``TimingPrefix``).
    """
    net = _Net(a, g)
    out = _run(net, timing.steps, extend_until_quiescent)
    names = a.states
    return RunReport(
        accepted=dict(zip(g.nodes, out.verdicts())),
        visited_accepting_at=dict(zip(g.nodes, out.visited)),
        stabilized_at=out.stabilized,
        trace_of={v: tuple(names[q] for q in t) for v, t in zip(g.nodes, out.traces)},
        steps_taken=out.steps,
        final=Configuration(
            node_state={v: names[q] for v, q in zip(g.nodes, out.state)},
            buffers={e: tuple(names[q] for q in b) for e, b in zip(g.sorted_edges, out.bufs)},
        ),
    )


def sync_accepting_mask(a: Automaton, domain: Domain) -> int:
    """The domain nodes that visit an accepting state in the synchronous
    run, on every digraph of the domain at once.  Each occupied state q
    holds the mask of the nodes in q.  A step splits each such mask, DPLL
    style, by ``Automaton.region`` from the root of q's region tree: a part
    whose region is undecided is cut on ``dia`` of the nodes in the split
    state, into the nodes with an in-neighbour in it and the rest (all of
    them, when no node is in that state), until each part's region is
    decided and the part moves to its target.  The run is deterministic
    over finitely many configurations, so it is simulated until the whole
    configuration repeats or for |Q|^m configurations, whichever comes
    first: each digraph's own run has by then shown every configuration it
    ever reaches, and acceptance is decided exactly.  (Digraphs whose runs
    cycle with different periods repeat jointly only after the lcm of the
    periods.)"""
    dia, accepting, region = domain.dia, a.mask(a.accepting), a.region
    root = (1 << len(a.states)) - 1
    states: dict[int, int] = {}  # occupied state -> its nodes
    for w, nodes in domain.words.items():
        q = a.index[a.init[w]]
        states[q] = states.get(q, 0) | nodes
    visited = 0
    seen: set[frozenset[tuple[int, int]]] = set()
    configurations = len(a.states) ** domain.m  # of one digraph
    while True:
        for q, nodes in states.items():
            if accepting >> q & 1:
                visited |= nodes
        key = frozenset(states.items())
        if key in seen or len(seen) + 1 == configurations:
            return visited
        seen.add(key)
        has = {1 << q: dia(nodes) for q, nodes in states.items()}  # nodes with an in-neighbour in q
        new: dict[int, int] = {}
        for q, nodes in states.items():
            parts = [(nodes, 0, root)]  # (nodes, states in, states undecided)
            while parts:
                rest, inn, free = parts.pop()
                target, split, _ = region(q, inn, free)
                while split:  # the nodes near split go in, the rest out
                    free ^= split
                    near = rest & has.get(split, 0)
                    if near == rest:
                        inn |= split
                    elif near:
                        parts.append((near, inn | split, free))
                        rest ^= near
                    target, split, _ = region(q, inn, free)
                new[target] = new.get(target, 0) | rest
        states = new


def sync_accepting_nodes(a: Automaton, g: Digraph) -> frozenset[str]:
    """Nodes that visit an accepting state in the synchronous run: the W = 1
    call of ``sync_accepting_mask``, its region splitting on one digraph.
    The rule-list ``sync_step`` is the reference it is tested against."""
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
    """``consistent`` means no disagreement was found within the budget.  It
    proves timing independence on this graph only when the graph is
    quiescent from the start, the automaton is certified by
    ``Automaton.is_monotone``, or the explorer settled the graph (see
    ``check_consistency``); the verdict does not say which.
    ``comparisons`` counts the definitive per-node verdicts compared with a
    definitive reference: "consistent" on none compared nothing (a graph
    quiescent from the start takes no comparison, since no timing can
    change its run).  A graph the certificate or the explorer settles
    counts ``runs`` and ``comparisons`` as the sampled loop would have, so
    both are the same on every path."""

    consistent: bool
    runs: int
    comparisons: int
    witness: ConsistencyWitness | None = None


def _outcomes(net: _Net, limit: int) -> Iterator[int | None]:
    """The lossy explorer: a depth-first search over the configurations
    reachable from the initial one by single-entity steps, each (states,
    buffers, visited mask) seen once.  A step is either one mover taking its
    target and pushing it onto its out-buffers, or one buffer that holds
    more than one state popping.  Yields the visited mask (bit v: node v
    has visited an accepting state) of each quiescent configuration, each
    distinct mask once as it is first found; or yields None and stops once
    more than ``limit`` configurations have been seen.

    Every run of the engine, under any timing, ends at a quiescent
    configuration found here.  An engine step is the same as its active
    movers moving one at a time, then its pops: pushes go to the back of
    buffers that are never empty, so no front, and no mover's target,
    changes during the moves; a moved writer's active buffer holds at least
    two states after the push, so popping it then is legal.  Every sampled
    run, the fully-active extension to quiescence included, is therefore a
    path in this graph.  Lossless timings are a subset of lossy ones, so
    the outcomes cover them too."""
    accepting, outgoing, reader, target = net.accepting, net.outgoing, net.reader, net.target_of
    start = (tuple(net.init), tuple(net.bufs), sum(1 << v for v, at in enumerate(net.visited) if at is not None))
    seen = {start}
    stack = [(start, tuple(net.target))]  # a configuration and its nodes' targets
    found = set()
    while stack:
        (state, bufs, visited), targets = stack.pop()
        steps = []  # (the next configuration, the one node whose state or fronts changed)
        for v, t in enumerate(targets):
            if t != state[v]:
                pushed = list(bufs)
                for j, _, _ in outgoing[v]:
                    pushed[j] += (t,)
                moved = visited | (accepting >> t & 1) << v
                steps.append(((state[:v] + (t,) + state[v + 1:], tuple(pushed), moved), v))
        for j, b in enumerate(bufs):
            if len(b) > 1:
                steps.append(((state, bufs[:j] + (b[1:],) + bufs[j + 1:], visited), reader[j]))
        if not steps and visited not in found:  # quiescent
            found.add(visited)
            yield visited
        for config, w in steps:
            if config in seen:
                continue
            seen.add(config)
            if len(seen) > limit:
                yield None
                return
            stack.append((config, targets[:w] + (target(config[0][w], config[1], w),) + targets[w + 1:]))


def _one_outcome(net: _Net, limit: int) -> bool:
    """Whether the explorer sees every configuration reachable on ``net``
    within ``limit`` of them, and they hold exactly one quiescent outcome."""
    found = list(itertools.islice(_outcomes(net, limit), 2))
    return len(found) == 1 and found[0] is not None


def check_consistency(
    a: Automaton,
    g: Digraph,
    samples: int,
    lossless_only: bool = False,
    seed: int = 0,
    budget: int | None = None,
) -> ConsistencyVerdict:
    """Run ``samples`` sampled fair timings plus the synchronous timing and
    compare definitive per-node verdicts.

    Without ``lossless_only``, sampled timings alternate lossless and lossy.
    A disagreement is returned with the two timings (truncated to the steps
    actually executed, hence replayable) and the node as witness.

    For an automaton quasi-acyclic on the states runs visit, every fair run
    ends quiescent and a graph has finitely many reachable configurations.
    The paths are tried in this order, the first that settles the graph
    wins (2 and 3 only for such an automaton and ``samples`` > 0):

    1. quiescent at the start (no ``_Net.movers``): no timing can move the graph;
    2. the certificate ``Automaton.is_monotone``, computed once per
       automaton: every run on every graph ends in one quiescent
       configuration (the proof is in its docstring);
    3. the explorer ``_outcomes``, which visits the reachable
       configurations, giving up past ``samples`` of them; if it sees them
       all and they hold exactly one quiescent outcome, every timing gives
       the same verdicts;
    4. the sampled loop, ``_sampled_consistency``, for every other graph (a
       cyclic automaton, more configurations than ``samples``, or two
       outcomes).

    On paths 2 and 3 nothing is sampled, and the verdict is the one the
    sampled loop would return: ``samples + 1`` runs and ``samples * n``
    comparisons, since every run of a quasi-acyclic automaton reaches
    quiescence and so compares all n nodes, and no two runs disagree.
    ``fuzz_consistency`` takes paths 1 and 2 itself, on the integers a
    graph is drawn as, and calls this for the graphs they leave.
    """
    if budget is None:
        budget = 10 * DEFAULT_STARVATION_BOUND * len(g.nodes)
    check_counts(samples=samples, budget=budget)
    quasi = a.trace_length_bound(a.init.values()) is not None
    net = _Net(a, g)
    if not net.movers:
        # quiescent from the start, where ``_run`` stops at step 0: every timing gives its verdicts
        return ConsistencyVerdict(consistent=True, runs=1, comparisons=0)
    if quasi and samples and (a.is_monotone() or _one_outcome(net, samples)):
        return ConsistencyVerdict(consistent=True, runs=samples + 1, comparisons=samples * len(g.nodes))
    return _sampled_consistency(net, quasi, samples, lossless_only, seed, budget)


def _sampled_consistency(net: _Net, quasi: bool, samples: int, lossless_only: bool, seed: int,
                         budget: int) -> ConsistencyVerdict:
    """``check_consistency``'s sampled loop: the synchronous run first, as
    the reference, then the sampled timings against it, each extended to
    quiescence when ``quasi`` (the automaton is quasi-acyclic)."""
    g = net.g
    base = _run(net, itertools.repeat(net.full, budget), quasi)

    def timing(seed: int | None, lossless: bool, steps: int) -> TimingPrefix:
        """The prefix a run consumed, rebuilt for a witness: the synchronous
        one (seed None) or the sampler's stream, drawn again from its seed."""
        if seed is None:
            return synchronous_prefix(g, steps)
        return sample_timing(g, steps, lossless=lossless, seed=seed)

    # per node: the reference verdict and the timing that gave it
    refs = [(verdict, (None, True, min(base.steps, budget))) for verdict in base.verdicts()]

    rng = random.Random(seed)
    comparisons = 0
    for i in range(samples):
        lossless = True if lossless_only else (i % 2 == 0)
        timing_seed = rng.randrange(2**32)
        masks = _sample(g, DEFAULT_P_ACTIVE, DEFAULT_STARVATION_BOUND, lossless, random.Random(timing_seed))
        out = _run(net, itertools.islice(masks, budget), quasi)
        prefix = (timing_seed, lossless, min(out.steps, budget))
        for v, got in enumerate(out.verdicts()):
            ref, ref_prefix = refs[v]
            if got == "unknown":
                continue
            if ref == "unknown":  # first definitive verdict becomes the reference
                refs[v] = (got, prefix)
                continue
            comparisons += 1
            if got != ref:
                return ConsistencyVerdict(
                    consistent=False,
                    runs=i + 2,
                    comparisons=comparisons,
                    witness=ConsistencyWitness(
                        node=g.nodes[v], timing_a=timing(*ref_prefix), verdict_a=ref,
                        timing_b=timing(*prefix), verdict_b=got,
                    ),
                )
    return ConsistencyVerdict(consistent=True, runs=samples + 1, comparisons=comparisons)


@dataclass(frozen=True)
class FuzzWitness:
    graph: Digraph
    witness: ConsistencyWitness


@dataclass(frozen=True)
class FuzzVerdict:
    """``comparisons`` sums the graphs' ``ConsistencyVerdict.comparisons``."""

    consistent: bool
    graphs_checked: int
    comparisons: int
    witness: FuzzWitness | None = None


def _fuzz_slice(
    a: Automaton,
    max_nodes: int,
    seed: int,
    start: int,
    stop: int,
    timings_per_graph: int,
    lossless_only: bool,
) -> tuple[FuzzWitness | None, int, int]:
    """The first witness among graphs [start, stop) of those whose (graph
    seed, timing seed) pairs ``random.Random(seed)`` draws, each pair when
    its graph is reached, with the graphs checked and the comparisons up to
    it.  A graph quiescent at the start and, with timings to sample, a
    moving graph of a quasi-acyclic automaton that ``Automaton.is_monotone``
    certifies are settled from the drawn integers, with the verdict
    ``check_consistency`` gives them; it checks the others.  The trace bound
    is read at the first graph, as ``check_consistency`` reads it."""
    bits, label_states, rng = a.bits, _label_states(a), random.Random(seed)
    for _ in range(2 * start):  # the pairs of the slices before this one
        rng.randrange(2**32)
    quasi = start < stop and a.trace_length_bound(a.init.values()) is not None
    comparisons = 0
    for offset in range(stop - start):
        graph_seed, timing_seed = rng.randrange(2**32), rng.randrange(2**32)
        m, mask, index, _ = random_indices(random.Random(graph_seed), max_nodes, bits)
        if not _index_movers(a, label_states, m, mask, index):
            continue  # quiescent at the start: no comparison
        if quasi and timings_per_graph and a.is_monotone():
            comparisons += timings_per_graph * m
            continue
        g = indexed_digraph(m, bits, mask, index)
        verdict = check_consistency(
            a, g, samples=timings_per_graph, lossless_only=lossless_only, seed=timing_seed,
        )
        comparisons += verdict.comparisons
        if not verdict.consistent:
            return FuzzWitness(graph=g, witness=verdict.witness), offset + 1, comparisons
    return None, stop - start, comparisons


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
    off its own derived sub-seed, so the first inconsistent graph (by index),
    ``graphs_checked`` and ``comparisons`` are the same at any job count.

    A graph is drawn as integers (``random_indices``), and the first two
    paths of ``check_consistency`` are taken on them: a graph no node of
    which moves at the start, or any graph once the certificate holds (with
    ``timings_per_graph`` > 0), is settled without building it; every other
    graph is built (``indexed_digraph``, as ``random_digraph`` builds it) and
    checked by ``check_consistency``.  The verdict is the one a
    ``check_consistency`` call per graph gives."""
    check_budget(max_nodes, jobs, graphs=graphs, timings_per_graph=timings_per_graph)
    witness, checked, comparisons = first_hit(_fuzz_slice, [
        (a, max_nodes, seed, start, stop, timings_per_graph, lossless_only)
        for start, stop in split_range(graphs, jobs)
    ], jobs)
    return FuzzVerdict(consistent=witness is None, graphs_checked=checked, comparisons=comparisons,
                       witness=witness)
