"""Distributed automata.

An automaton is one finite-state machine replicated over every node of a
digraph.  A machine reads the *set* of states of its incoming neighbors, so
the transition function has type Q x P(Q) -> Q.  That function is encoded
finitely as an ordered list of guarded rules per state, with first-match
semantics and a mandatory unconditional ``else`` rule at the end.

Also here: the trace algebra (first / last / pushlast / popfirst) used by the
asynchronous run semantics, trace-set computation, and the quasi-acyclicity
check (no cycles in the state diagram other than self-loops).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Union


class AutomatonFormatError(ValueError):
    """An automaton document is malformed or violates an invariant."""


class AutomatonTooLarge(ValueError):
    """An operation requiring powerset enumeration was asked of an automaton
    beyond its size guard."""


class NotQuasiAcyclic(ValueError):
    """An operation requiring a finite trace set was asked of an automaton
    whose state diagram has a non-trivial cycle."""


# how many states we are willing to enumerate subsets of
SUBSET_ENUMERATION_GUARD = 20


# ---------------------------------------------------------------------------
# guards

@dataclass(frozen=True)
class SubsetEq:
    """Holds of neighborhood N iff N is a subset of ``states``."""

    states: frozenset[str]


@dataclass(frozen=True)
class SupsetEq:
    """Holds of neighborhood N iff ``states`` is a subset of N."""

    states: frozenset[str]


@dataclass(frozen=True)
class NotGuard:
    inner: "Guard"


@dataclass(frozen=True)
class AndGuard:
    parts: tuple["Guard", ...]


@dataclass(frozen=True)
class OrGuard:
    parts: tuple["Guard", ...]


@dataclass(frozen=True)
class Else:
    """Unconditional guard; only legal as the final rule of a state."""


ELSE = Else()

Guard = Union[SubsetEq, SupsetEq, NotGuard, AndGuard, OrGuard, Else]


def eval_guard(guard: Guard, neighbors: frozenset[str]) -> bool:
    if isinstance(guard, SubsetEq):
        return neighbors <= guard.states
    if isinstance(guard, SupsetEq):
        return guard.states <= neighbors
    if isinstance(guard, NotGuard):
        return not eval_guard(guard.inner, neighbors)
    if isinstance(guard, AndGuard):
        return all(eval_guard(g, neighbors) for g in guard.parts)
    if isinstance(guard, OrGuard):
        return any(eval_guard(g, neighbors) for g in guard.parts)
    if isinstance(guard, Else):
        return True
    raise TypeError(f"not a guard: {guard!r}")


# Every guard class in one table: its kind word in the JSON format and the
# field it is built from (a set of states, one guard, or a tuple of guards;
# ``else`` has none).  The walk, the reader and the writer all read it.
_GUARD_SYNTAX: dict[type, tuple[str, str | None]] = {
    SubsetEq: ("subseteq", "states"),
    SupsetEq: ("supseteq", "states"),
    NotGuard: ("not", "inner"),
    AndGuard: ("and", "parts"),
    OrGuard: ("or", "parts"),
    Else: ("else", None),
}
_GUARD_OF_KIND = {kind: (cls, attr) for cls, (kind, attr) in _GUARD_SYNTAX.items()}


def _guard_parts(guard: Guard) -> list[Guard]:
    """``guard`` and every guard nested in it, outermost first."""
    out = [guard]
    for g in out:  # the list grows while it is read
        attr = _GUARD_SYNTAX[type(g)][1]
        if attr == "inner":
            out.append(g.inner)
        elif attr == "parts":
            out.extend(g.parts)
    return out


# ---------------------------------------------------------------------------
# traces

Trace = tuple[str, ...]


def trace_first(t: Trace) -> str:
    """First state of a nonempty trace."""
    return t[0]


def trace_last(t: Trace) -> str:
    """Last state of a nonempty trace."""
    return t[-1]


def trace_pushlast(t: Trace, q: str) -> Trace:
    """Append q unless it equals the current last state."""
    return t if t[-1] == q else t + (q,)


def trace_popfirst(t: Trace) -> Trace:
    """Drop the first state unless the trace is a singleton."""
    return t[1:] if len(t) > 1 else t


# ---------------------------------------------------------------------------
# automata

@dataclass(frozen=True)
class TransitionRule:
    guard: Guard
    target: str


@dataclass(frozen=True, eq=True)
class Automaton:
    """States, per-label initialization, guarded rules realizing the
    transition function, and an accepting subset.

    Invariants (checked on construction): ``init`` covers all 2^bits label
    strings, every rule list ends with exactly one ``else`` rule (making the
    transition function total), and every referenced state is declared.
    """

    bits: int
    states: tuple[str, ...]
    init: dict[str, str]
    rules: dict[str, tuple[TransitionRule, ...]]
    accepting: frozenset[str]
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.bits < 0:
            raise AutomatonFormatError("bits must be >= 0")
        if not self.states:
            raise AutomatonFormatError("empty state set")
        if len(set(self.states)) != len(self.states):
            dup = next(s for s in self.states if self.states.count(s) > 1)
            raise AutomatonFormatError(f"duplicate state id {dup!r}")
        declared = set(self.states)
        words_ok = all(len(w) == self.bits and set(w) <= {"0", "1"} for w in self.init)
        # 2^bits distinct bit strings of length ``bits`` are all of them; a
        # nonempty init bounds ``bits`` by a key's length before 1 << bits is formed
        if not (self.init and words_ok and len(self.init) == 1 << self.bits):
            raise AutomatonFormatError(
                f"init must map every {self.bits}-bit string; got keys {sorted(self.init)!r}"
            )
        for w, q in self.init.items():
            if q not in declared:
                raise AutomatonFormatError(f"init({w!r}) = {q!r} is not a declared state")
        if not self.accepting <= declared:
            raise AutomatonFormatError(f"accepting states {sorted(self.accepting - declared)!r} undeclared")
        if set(self.rules) != declared:
            raise AutomatonFormatError("rules must be given for exactly the declared states")
        for q, lst in self.rules.items():
            if not lst or not isinstance(lst[-1].guard, Else):
                raise AutomatonFormatError(f"transition function not total at {q!r}: final else rule missing")
            for i, rule in enumerate(lst):
                if isinstance(rule.guard, Else) and i != len(lst) - 1:
                    raise AutomatonFormatError(f"state {q!r}: else rule must be last")
                parts = _guard_parts(rule.guard)
                if any(isinstance(g, Else) for g in parts[1:]):
                    raise AutomatonFormatError(
                        f"state {q!r}: 'else' is a whole-rule guard, not a combinator operand"
                    )
                if rule.target not in declared:
                    raise AutomatonFormatError(f"state {q!r}: rule target {rule.target!r} undeclared")
                named = [g.states for g in parts if _GUARD_SYNTAX[type(g)][1] == "states"]
                bad = set().union(*named) - declared
                if bad:
                    raise AutomatonFormatError(f"state {q!r}: guard references undeclared states {sorted(bad)!r}")

    def delta(self, q: str, neighbors: Iterable[str]) -> str:
        """Evaluate the transition function: first rule of q whose guard holds
        of the neighborhood set wins."""
        ns = frozenset(neighbors)
        memo = self._cache.setdefault("delta", {})
        hit = memo.get((q, ns))
        if hit is not None:
            return hit
        if q not in self.rules:
            raise KeyError(f"unknown state id {q!r}")
        bad = ns - set(self.states)
        if bad:
            raise KeyError(f"unknown state ids in neighborhood: {sorted(bad)!r}")
        for rule in self.rules[q]:
            if eval_guard(rule.guard, ns):
                memo[(q, ns)] = rule.target
                return rule.target
        raise AssertionError("unreachable: rule lists always end with else")

    def state_diagram(self) -> dict[str, frozenset[str]]:
        """Successor map { q -> { delta(q, S) != q : S subset of Q } }, i.e.
        the state diagram without self-loops.  Enumerates all 2^|Q| subsets;
        guarded to |Q| <= 20."""
        if "diagram" in self._cache:
            return self._cache["diagram"]
        n = len(self.states)
        if n > SUBSET_ENUMERATION_GUARD:
            raise AutomatonTooLarge(
                f"state diagram needs 2^{n} subset evaluations; guard is |Q| <= {SUBSET_ENUMERATION_GUARD}"
            )
        diagram: dict[str, set[str]] = {q: set() for q in self.states}
        for mask in range(1 << n):
            subset = frozenset(s for i, s in enumerate(self.states) if mask >> i & 1)
            for q in self.states:
                q2 = self.delta(q, subset)
                if q2 != q:
                    diagram[q].add(q2)
        out = {q: frozenset(s) for q, s in diagram.items()}
        self._cache["diagram"] = out
        return out

    def is_quasi_acyclic(self) -> bool:
        """True iff the state diagram has no directed cycles except self-loops
        (equivalently: the trace set is finite)."""
        if "qa" in self._cache:
            return self._cache["qa"]
        diagram = self.state_diagram()
        color: dict[str, int] = {}  # 1 = on stack, 2 = done
        acyclic = True
        for root in self.states:
            if root in color:
                continue
            stack: list[tuple[str, Iterator[str]]] = [(root, iter(sorted(diagram[root])))]
            color[root] = 1
            while stack:
                node, it = stack[-1]
                nxt = next(it, None)
                if nxt is None:
                    color[node] = 2
                    stack.pop()
                elif color.get(nxt) == 1:
                    acyclic = False
                    stack.clear()
                    break
                elif nxt not in color:
                    color[nxt] = 1
                    stack.append((nxt, iter(sorted(diagram[nxt]))))
            if not acyclic:
                break
        self._cache["qa"] = acyclic
        return acyclic

    def trace_length_bound(self) -> int | None:
        """An upper bound on the number of states in a trace, or None when
        the trace set is infinite (the automaton is not quasi-acyclic).

        The state diagram is a subgraph of the graph of all rule targets, so
        when that graph has no cycle but self-loops its longest path is the
        bound and no 2^|Q| scan is needed; otherwise the traces decide, which
        needs ``state_diagram``."""
        if "bound" not in self._cache:
            succ = {q: {r.target for r in self.rules[q]} - {q} for q in self.states}
            indegree = dict.fromkeys(self.states, 0)
            for targets in succ.values():
                for q in targets:
                    indegree[q] += 1
            order = [q for q in self.states if indegree[q] == 0]  # topological
            for q in order:
                for q2 in succ[q]:
                    indegree[q2] -= 1
                    if indegree[q2] == 0:
                        order.append(q2)
            if len(order) == len(self.states):
                depth: dict[str, int] = {}
                for q in reversed(order):
                    depth[q] = 1 + max((depth[q2] for q2 in succ[q]), default=0)
                bound = max(depth.values())
            elif self.is_quasi_acyclic():
                bound = max(map(len, self.traces()))
            else:
                bound = None
            self._cache["bound"] = bound
        return self._cache["bound"]

    def traces(self) -> frozenset[Trace]:
        """All traces: paths in the self-loop-free state diagram, from every
        state, including every length-1 trace.  Requires quasi-acyclicity."""
        if "traces" in self._cache:
            return self._cache["traces"]
        if not self.is_quasi_acyclic():
            raise NotQuasiAcyclic("trace set is infinite: state diagram has a non-trivial cycle")
        diagram = self.state_diagram()
        memo: dict[str, frozenset[Trace]] = {}

        def paths(q: str) -> frozenset[Trace]:
            if q not in memo:
                acc = {(q,)}
                for q2 in sorted(diagram[q]):
                    acc.update((q,) + p for p in paths(q2))
                memo[q] = frozenset(acc)
            return memo[q]

        out = frozenset().union(*(paths(q) for q in self.states))
        self._cache["traces"] = out
        return out

    def is_trace(self, t: Trace) -> bool:
        """Check the trace invariants against this automaton: nonempty, no two
        consecutive states equal, every step witnessed by some neighborhood."""
        if not t or any(s not in set(self.states) for s in t):
            return False
        if any(a == b for a, b in zip(t, t[1:])):
            return False
        if len(t) == 1:
            return True
        diagram = self.state_diagram()
        return all(b in diagram[a] for a, b in zip(t, t[1:]))


# ---------------------------------------------------------------------------
# JSON document format

def _strings(obj: object, what: str) -> list[str]:
    if not isinstance(obj, list) or not all(isinstance(x, str) for x in obj):
        raise AutomatonFormatError(f"{what} must be a list of state ids")
    return obj


def guard_from_obj(obj: object) -> Guard:
    if obj == "else":
        return ELSE
    if not isinstance(obj, dict) or len(obj) != 1:
        raise AutomatonFormatError(f"bad guard {obj!r}")
    (kind, arg), = obj.items()
    cls, attr = _GUARD_OF_KIND.get(kind, (None, None))
    if attr == "states":
        return cls(frozenset(_strings(arg, f"'{kind}'")))
    if attr == "inner":
        return cls(guard_from_obj(arg))
    if attr == "parts":
        if not isinstance(arg, list):
            raise AutomatonFormatError(f"'{kind}' takes a list of guards")
        return cls(tuple(guard_from_obj(g) for g in arg))
    raise AutomatonFormatError(f"unknown guard kind {kind!r}")


def guard_to_obj(guard: Guard) -> object:
    kind, attr = _GUARD_SYNTAX[type(guard)]
    if attr is None:
        return kind
    arg = getattr(guard, attr)
    if attr == "states":
        return {kind: sorted(arg)}
    if attr == "inner":
        return {kind: guard_to_obj(arg)}
    return {kind: [guard_to_obj(g) for g in arg]}


def parse_automaton(text: str) -> Automaton:
    """Parse the JSON automaton document format (see README)."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise AutomatonFormatError(f"not valid JSON: {exc}") from exc
    return automaton_from_dict(doc)


def automaton_from_dict(doc: object) -> Automaton:
    if not isinstance(doc, dict):
        raise AutomatonFormatError("automaton document must be a JSON object")
    for key in ("bits", "states", "init", "rules", "accepting"):
        if key not in doc:
            raise AutomatonFormatError(f"missing key {key!r}")
    if not isinstance(doc["bits"], int):
        raise AutomatonFormatError("'bits' must be an integer")
    init = doc["init"]
    if not isinstance(init, dict) or not all(isinstance(q, str) for q in init.values()):
        raise AutomatonFormatError("'init' must map label strings to state ids")
    rules: dict[str, tuple[TransitionRule, ...]] = {}
    raw_rules = doc["rules"]
    if not isinstance(raw_rules, dict):
        raise AutomatonFormatError("'rules' must be an object keyed by state")
    for q, lst in raw_rules.items():
        if not isinstance(lst, list):
            raise AutomatonFormatError(f"rules of {q!r} must be a list")
        parsed = []
        for r in lst:
            if not isinstance(r, dict) or "guard" not in r or not isinstance(r.get("to"), str):
                raise AutomatonFormatError(f"rule of {q!r} must have a 'guard' and a state id 'to': {r!r}")
            parsed.append(TransitionRule(guard_from_obj(r["guard"]), r["to"]))
        rules[q] = tuple(parsed)
    return Automaton(
        bits=doc["bits"],
        states=tuple(_strings(doc["states"], "'states'")),
        init=dict(init),
        rules=rules,
        accepting=frozenset(_strings(doc["accepting"], "'accepting'")),
    )


def automaton_to_dict(a: Automaton) -> dict:
    return {
        "bits": a.bits,
        "states": list(a.states),
        "init": {w: a.init[w] for w in sorted(a.init)},
        "accepting": sorted(a.accepting),
        "rules": {
            q: [{"guard": guard_to_obj(r.guard), "to": r.target} for r in a.rules[q]]
            for q in a.states
        },
    }


def automaton_to_json(a: Automaton) -> str:
    return json.dumps(automaton_to_dict(a), indent=2)
