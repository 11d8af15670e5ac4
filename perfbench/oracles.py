"""Reference computations the benchmark checks automu's outputs against.

Nothing here imports automu.  Every function reads the documents automu reads
and writes (graph and automaton JSON, formula s-expressions) and follows the
semantics stated in automu's README, but by a different route:

* the five workload properties are defined by graph search, not fixpoints;
* the fixpoint evaluator iterates over Python sets of node names;
* the synchronous and asynchronous simulators interpret the automaton JSON
  document directly;
* the instance count is the closed form sum of m * 2^(m^2 + bits*m).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass


def count_instances(max_nodes: int, bits: int) -> int:
    """Pointed digraphs on 1..max_nodes nodes with bits-wide labels: m points
    times 2^(m*m) edge sets times 2^(bits*m) labelings for each m."""
    return sum(m * 2 ** (m * m + bits * m) for m in range(1, max_nodes + 1))


# ---------------------------------------------------------------------------
# graphs

@dataclass(frozen=True)
class Graph:
    bits: int
    nodes: tuple[str, ...]
    labels: dict[str, str]
    edges: frozenset[tuple[str, str]]

    @property
    def preds(self) -> dict[str, frozenset[str]]:
        out: dict[str, set[str]] = {v: set() for v in self.nodes}
        for u, v in self.edges:
            out[v].add(u)
        return {v: frozenset(s) for v, s in out.items()}

    def bit(self, v: str, i: int) -> bool:
        return self.labels[v][i] == "1"

    def to_doc(self) -> dict:
        return {
            "bits": self.bits,
            "nodes": list(self.nodes),
            "labels": dict(self.labels),
            "edges": [list(e) for e in sorted(self.edges)],
        }


def graph_from_doc(doc: dict) -> Graph:
    return Graph(
        bits=doc["bits"],
        nodes=tuple(doc["nodes"]),
        labels=dict(doc["labels"]),
        edges=frozenset((u, v) for u, v in doc["edges"]),
    )


def random_graph(rng: random.Random, max_nodes: int, bits: int) -> Graph:
    """A graph on 1..max_nodes nodes; each ordered pair, self-loops included,
    is an edge with probability one half; labels are uniform."""
    m = rng.randint(1, max_nodes)
    nodes = tuple(f"v{i}" for i in range(m))
    edges = frozenset((u, v) for u in nodes for v in nodes if rng.getrandbits(1))
    labels = {v: format(rng.getrandbits(bits), f"0{bits}b") if bits else "" for v in nodes}
    return Graph(bits=bits, nodes=nodes, labels=labels, edges=edges)


def sample_graphs(seed: object, count: int, max_nodes: int, bits: int) -> list[Graph]:
    rng = random.Random(str(seed))
    return [random_graph(rng, max_nodes, bits) for _ in range(count)]


def backward_reach(preds: dict[str, frozenset[str]], v: str, within=None) -> set[str]:
    """Nodes u with a path u -> ... -> v (v itself included), walking only
    through nodes of ``within`` when it is given."""
    seen = {v}
    stack = [v]
    while stack:
        w = stack.pop()
        for u in preds[w]:
            if u not in seen and (within is None or u in within):
                seen.add(u)
                stack.append(u)
    return seen


def on_cycle(preds: dict[str, frozenset[str]], u: str, within=None) -> bool:
    """u lies on a directed cycle (a self-loop counts), inside ``within``."""
    return any(
        u in backward_reach(preds, w, within)
        for w in preds[u]
        if within is None or w in within
    )


def _safe_one(g: Graph) -> set[str]:
    # walking edges backward from the point reaches a 1-labelled node from
    # which no cycle is backward-reachable
    preds = g.preds
    cyclic = {u for u in g.nodes if on_cycle(preds, u)}
    safe = {u for u in g.nodes if not backward_reach(preds, u) & cyclic}
    return {v for v in g.nodes if any(g.bit(u, 0) and u in safe for u in backward_reach(preds, v))}


def _reach_one(g: Graph) -> set[str]:
    preds = g.preds
    return {v for v in g.nodes if any(g.bit(u, 0) for u in backward_reach(preds, v))}


def _boxed_one(g: Graph) -> set[str]:
    preds = g.preds
    return {v for v in g.nodes if all(g.bit(u, 0) for u in preds[v])}


def _two_and(g: Graph) -> set[str]:
    preds = g.preds
    return {
        v for v in g.nodes
        if any(g.bit(u, 0) and g.bit(u, 1) for u in backward_reach(preds, v))
    }


def _two_box(g: Graph) -> set[str]:
    # v fails iff bit 1 is off and some backward path through bit-1-off nodes
    # either meets a node with bit 0 off or runs into a cycle of such nodes
    preds = g.preds
    off = {u for u in g.nodes if not g.bit(u, 1)}
    out = set()
    for v in g.nodes:
        if v not in off:
            out.add(v)
            continue
        reach = backward_reach(preds, v, within=off)
        if all(g.bit(u, 0) for u in reach) and not any(on_cycle(preds, u, off) for u in reach):
            out.add(v)
    return out


PROPERTIES = {
    "safe_one": _safe_one,
    "reach_one": _reach_one,
    "boxed_one": _boxed_one,
    "two_and": _two_and,
    "two_box": _two_box,
}


# ---------------------------------------------------------------------------
# fixpoint systems, read from their s-expression text

_TOKEN = re.compile(r"\(|\)|[^\s()]+")


def parse_sexp(text: str) -> object:
    stack: list[list] = [[]]
    for tok in _TOKEN.findall(text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1 or len(stack[0]) != 1:
        raise ValueError("unbalanced s-expression")
    return stack[0][0]


@dataclass(frozen=True)
class System:
    names: tuple[str, ...]
    bodies: tuple[object, ...]


def parse_system(text: str) -> System:
    mu, entries = parse_sexp(text)
    if mu != "mu":
        raise ValueError("expected (mu ((NAME <f>) ...))")
    return System(tuple(name for name, _ in entries), tuple(body for _, body in entries))


def _eval(f: object, g: Graph, preds: dict[str, frozenset[str]], val: dict[str, frozenset[str]]) -> frozenset[str]:
    if f == "true":
        return frozenset(g.nodes)
    if f == "false":
        return frozenset()
    head, *args = f
    if head == "p":
        return frozenset(v for v in g.nodes if g.bit(v, int(args[0])))
    if head == "not-p":
        return frozenset(v for v in g.nodes if not g.bit(v, int(args[0])))
    if head == "var":
        return val[args[0]]
    if head == "or":
        return frozenset().union(*(_eval(a, g, preds, val) for a in args))
    if head == "and":
        out = _eval(args[0], g, preds, val)
        for a in args[1:]:
            out &= _eval(a, g, preds, val)
        return out
    if head == "dia":
        inner = _eval(args[0], g, preds, val)
        return frozenset(v for v in g.nodes if preds[v] & inner)
    if head == "box":
        inner = _eval(args[0], g, preds, val)
        return frozenset(v for v in g.nodes if preds[v] <= inner)
    raise ValueError(f"unknown operator {head!r}")


def least_fixpoint(sys: System, g: Graph) -> dict[str, frozenset[str]]:
    """Kleene iteration from the empty valuation, every variable at once."""
    preds = g.preds
    val = {x: frozenset() for x in sys.names}
    while True:
        new = {x: _eval(b, g, preds, val) for x, b in zip(sys.names, sys.bodies)}
        if new == val:
            return val
        val = new


def formula_holds(sys: System, g: Graph) -> set[str]:
    return set(least_fixpoint(sys, g)[sys.names[0]])


# ---------------------------------------------------------------------------
# automata, read from their JSON document

def guard_holds(guard: object, hood: frozenset[str]) -> bool:
    if guard == "else":
        return True
    (kind, arg), = guard.items()
    if kind == "subseteq":
        return hood <= set(arg)
    if kind == "supseteq":
        return set(arg) <= hood
    if kind == "not":
        return not guard_holds(arg, hood)
    if kind == "and":
        return all(guard_holds(x, hood) for x in arg)
    if kind == "or":
        return any(guard_holds(x, hood) for x in arg)
    raise ValueError(f"unknown guard kind {kind!r}")


class Machine:
    """Transition function of an automaton document: first rule whose guard
    holds of the neighbourhood wins."""

    def __init__(self, doc: dict):
        self.doc = doc
        self.accepting = frozenset(doc["accepting"])
        self._memo: dict[tuple[str, frozenset[str]], str] = {}

    def init(self, label: str) -> str:
        return self.doc["init"][label]

    def step(self, q: str, hood: frozenset[str]) -> str:
        key = (q, hood)
        if key not in self._memo:
            self._memo[key] = next(r["to"] for r in self.doc["rules"][q] if guard_holds(r["guard"], hood))
        return self._memo[key]


def rule_diagram_acyclic(doc: dict) -> bool:
    """The graph with an edge q -> r for every rule of q targeting r != q has
    no directed cycle."""
    succ = {q: {r["to"] for r in rules if r["to"] != q} for q, rules in doc["rules"].items()}
    indeg = {q: 0 for q in succ}
    for targets in succ.values():
        for r in targets:
            indeg[r] += 1
    ready = [q for q, d in indeg.items() if d == 0]
    removed = 0
    while ready:
        q = ready.pop()
        removed += 1
        for r in succ[q]:
            indeg[r] -= 1
            if indeg[r] == 0:
                ready.append(r)
    return removed == len(succ)


def rule_count(doc: dict) -> int:
    return sum(len(rules) for rules in doc["rules"].values())


def sync_accepting(m: Machine, g: Graph) -> set[str]:
    """Nodes that visit an accepting state in the synchronous run, which is
    followed until its global state repeats."""
    preds = g.preds
    state = {v: m.init(g.labels[v]) for v in g.nodes}
    seen = set()
    accepted = set()
    while True:
        accepted |= {v for v in g.nodes if state[v] in m.accepting}
        key = tuple(state[v] for v in g.nodes)
        if key in seen:
            return accepted
        seen.add(key)
        state = {v: m.step(state[v], frozenset(state[u] for u in preds[v])) for v in g.nodes}


def _quiescent(m: Machine, g: Graph, preds, state, buffers) -> bool:
    if any(b != (state[u],) for (u, _), b in buffers.items()):
        return False
    return all(m.step(state[v], frozenset(state[u] for u in preds[v])) == state[v] for v in g.nodes)


def async_replay(m: Machine, g: Graph, timing: dict, extend: int = 10_000) -> dict[str, str]:
    """Per-node verdicts of the run along a timing document, continued with
    fully active steps until quiescent.  A node's buffer on edge (u, v) starts
    as [u's initial state]; in a step every active node reads the fronts of its
    incoming buffers, every buffer then appends its writer's new state unless
    it already ends with it, and every active buffer drops its front unless it
    holds a single state."""
    preds = g.preds
    state = {v: m.init(g.labels[v]) for v in g.nodes}
    buffers = {(u, v): (state[u],) for u, v in g.edges}
    visited = {v for v in g.nodes if state[v] in m.accepting}
    everything = {
        "nodes": {v: 1 for v in g.nodes},
        "edges": {f"{u}->{v}": 1 for u, v in g.edges},
    }
    steps = list(timing["steps"]) + [everything] * extend
    for act in steps:
        if _quiescent(m, g, preds, state, buffers):
            break
        state = {
            v: m.step(state[v], frozenset(buffers[(u, v)][0] for u in preds[v]))
            if act["nodes"][v] else state[v]
            for v in g.nodes
        }
        for (u, v), b in buffers.items():
            if b[-1] != state[u]:
                b = b + (state[u],)
            if act["edges"][f"{u}->{v}"] and len(b) > 1:
                b = b[1:]
            buffers[(u, v)] = b
        visited |= {v for v in g.nodes if state[v] in m.accepting}
    quiet = _quiescent(m, g, preds, state, buffers)
    return {v: "yes" if v in visited else ("no" if quiet else "unknown") for v in g.nodes}
