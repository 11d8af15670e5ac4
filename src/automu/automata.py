"""Distributed automata.

An automaton is one finite-state machine replicated over every node of a
digraph.  A machine reads the *set* of states of its incoming neighbors, so
the transition function has type Q x P(Q) -> Q.  That function is encoded
finitely as an ordered list of guarded rules per state, with first-match
semantics and a mandatory unconditional ``else`` rule at the end.

An automaton owns its state encoding: bit i of a state mask stands for
``states[i]``.  ``region`` is the one walk over a state's rules, first match
wins, on a region of neighborhoods (the states a neighborhood holds, those
it may hold, and no other), with the one guard evaluator, ``_decide``
(``eval_guard`` is the tests' reference).  Its one memo is ``region_memo``.
Regions are split, DPLL style, from the root where every state may be held,
and a walk over the neighborhoods drawn from a set follows only the out
branch of a split on a state outside it: each state's regions form one tree,
which the state diagram, the certificate and the synchronous kernel share.
``_cubes`` is the one walk of a tree cut to a set: pruned to the targets not
yet found for the state diagram, whole for the certificate.
``step``, the transition function on the encoding, is ``region`` on one
neighborhood, read from the same memo.
``delta`` is ``step`` on state names, and the run engine and the trace
closure read the encoding.

Also here: the trace algebra (first / last / pushlast / popfirst) used by the
asynchronous run semantics, and the state diagram behind quasi-acyclicity (no
cycles other than self-loops) and the trace sets.  Each state's successors
are read off its region tree, never by enumerating the 2^|Q| neighborhoods;
that scan survives only in ``is_quasi_acyclic``, as the reference.
``state_diagram(start)`` is the one reachability fixpoint: the diagram on
the states reachable from ``start``.  From every state it is the whole
diagram, which ``check`` reads; from the initialization states it holds
every state a run visits, and the run engine's bound, the certificate and
compile-down read it there.

``is_monotone`` is a certificate, over the states reachable from
initialization and the fronts a node in each of them can read (Front),
that the automaton gives the same verdicts under every timing on every
digraph.  It reads each state's cubes once, its tree cut to its Front, and
certifies the flagship ``samples/safe_one.json`` as well as compile-ups of
least fixpoints; ``check_consistency`` and ``fuzz_consistency`` ask it
before they explore or sample.
"""

from __future__ import annotations

import functools
import graphlib
import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Union


class AutomatonFormatError(ValueError):
    """An automaton document is malformed or violates an invariant."""


class AutomatonTooLarge(ValueError):
    """An operation requiring powerset enumeration was asked of an automaton
    beyond its size guard."""


class NotQuasiAcyclic(ValueError):
    """An operation requiring a finite trace set was asked of an automaton
    whose state diagram has a non-trivial cycle."""


# how many states the reference scan enumerates subsets of, and the log2 of
# the neighborhood regions one walk (``_cubes``) may split a state's rules into
SUBSET_ENUMERATION_GUARD = 20
# the most states reachable from initialization that ``is_monotone`` reads;
# a state's region tree over R can still have 2^|R| leaves
CERTIFICATE_GUARD = 10


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
    """``guard`` on a neighborhood of state names: the reference for ``step``."""
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


def _decide(guard: Guard, inn: int, free: int, masks: dict[frozenset[str], int]) -> tuple[bool | None, int]:
    """``guard`` on the region of neighborhoods that hold the states in
    ``inn``, may hold those in ``free`` and hold no other (``masks`` gives
    the bitmask of each state set the guard names): True or False when it
    is so on all of the region, else None with the undecided states it
    depends on."""
    cls = type(guard)
    if cls is SubsetEq:
        outside = ~masks[guard.states]
        depends = free & outside
        return (False, 0) if inn & outside else (not depends or None, depends)
    if cls is SupsetEq:
        depends = masks[guard.states] & ~inn
        return (False, 0) if depends & ~free else (not depends or None, depends)
    if cls is NotGuard:
        holds, depends = _decide(guard.inner, inn, free, masks)
        return (None if holds is None else not holds), depends
    if cls is Else:
        return True, 0
    decisive = cls is OrGuard  # a part with this value settles the whole
    undecided = 0
    for part in guard.parts:
        holds, depends = _decide(part, inn, free, masks)
        if holds is decisive:
            return decisive, 0
        if holds is None and not undecided:
            undecided = depends
    return (None, undecided) if undecided else (not decisive, 0)


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _longest_path(diagram: dict) -> int | None:
    """The number of states on the longest path of a self-loop-free state
    diagram, or None when it has a cycle: one topological pass answers both."""
    depth: dict[str, int] = {}
    try:  # successors come out before their predecessors
        for q in graphlib.TopologicalSorter(diagram).static_order():
            depth[q] = 1 + max((depth[q2] for q2 in diagram[q]), default=0)
    except graphlib.CycleError:
        return None
    return max(depth.values(), default=0)


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
    # the state encoding: state name -> i, bit i of a state mask
    index: dict[str, int] = field(init=False, repr=False, compare=False)
    # region's memo: (state index, states in, states undecided) -> its walk
    region_memo: dict[tuple[int, int, int], tuple[int, int, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.bits < 0:
            raise AutomatonFormatError("bits must be >= 0")
        if not self.states:
            raise AutomatonFormatError("empty state set")
        if len(set(self.states)) != len(self.states):
            dup = next(s for s in self.states if self.states.count(s) > 1)
            raise AutomatonFormatError(f"duplicate state id {dup!r}")
        object.__setattr__(self, "index", {q: i for i, q in enumerate(self.states)})
        declared = frozenset(self.index)
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
        masks = self._cache["masks"] = {}  # every state set a guard names -> its state mask
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
                named = [g.states for g in parts if _GUARD_SYNTAX[type(g)][1] == "states" and g.states not in masks]
                bad = set().union(*named) - declared
                if bad:
                    raise AutomatonFormatError(f"state {q!r}: guard references undeclared states {sorted(bad)!r}")
                masks.update({s: self.mask(s) for s in named})
        object.__setattr__(self, "region_memo", {})

    def mask(self, states: Iterable[str]) -> int:
        """The state mask of a set of state names."""
        out = 0
        for s in states:
            out |= 1 << self.index[s]
        return out

    def step(self, q: int, fronts: int) -> int:
        """The transition function on the state encoding: the target of state
        ``q`` on the neighborhood whose states are the bits of ``fronts``:
        ``region`` on the region that is that one neighborhood, which always
        decides it."""
        return self.region(q, fronts, 0)[0]

    def region(self, q: int, inn: int, free: int) -> tuple[int, int, int]:
        """The one walk over the rules of state ``q``, first match wins, on
        the region of neighborhoods that hold the states in ``inn``, may hold
        those in ``free`` and hold no other: ``(target, 0, 0)`` when the
        first rule that ``_decide`` does not find false on all of the region
        holds on all of it, else ``(-1, split, targets)`` with ``split`` a
        state of ``free`` that rule depends on and ``targets`` the mask of
        the targets of every rule that may fire in the region.  Memoized in
        ``region_memo``."""
        out = self.region_memo.get((q, inn, free))
        if out is None:
            out = self.region_memo[q, inn, free] = self._region(q, inn, free)
        return out

    def _region(self, q: int, inn: int, free: int) -> tuple[int, int, int]:
        """``region`` without its memo."""
        masks, index = self._cache["masks"], self.index
        split = targets = 0
        for rule in self.rules[self.states[q]]:
            holds, depends = _decide(rule.guard, inn, free, masks)
            if holds is False:
                continue
            if holds and not split:
                return index[rule.target], 0, 0
            split = split or depends & -depends
            targets |= 1 << index[rule.target]
            if holds:  # no later rule fires; else ends the list
                break
        return -1, split, targets

    def delta(self, q: str, neighbors: Iterable[str]) -> str:
        """Evaluate the transition function on state names: ``step`` on
        their encoding."""
        ns = frozenset(neighbors)
        if q not in self.index:
            raise KeyError(f"unknown state id {q!r}")
        bad = ns - self.index.keys()
        if bad:
            raise KeyError(f"unknown state ids in neighborhood: {sorted(bad)!r}")
        return self.states[self.step(self.index[q], self.mask(ns))]

    def state_diagram(self, start: Iterable[str] | None = None) -> dict[str, frozenset[str]]:
        """R(``start``), the least set that holds ``start`` (default: every
        state) and every successor of its members on neighborhoods drawn from
        it, in ``states`` order, each state mapped to those successors: the
        state diagram on R without self-loops.  The one state-level
        reachability fixpoint, memoized per start set; from the
        initialization states R holds every state a run can visit."""
        key = frozenset(self.states if start is None else start)
        memo = self._cache.setdefault("diagrams", {})
        if key not in memo:
            reach, more = None, key
            while more != reach:  # a successor of q is a target of q's pruned walk other than q
                reach, drawn = more, self.mask(more)
                diagram = {q: frozenset(self.states[t] for *_, t in self._cubes(self.index[q], drawn, prune=True)) - {q}
                           for q in self.states if q in reach}
                more = reach.union(*diagram.values())
            memo[key] = diagram
        return memo[key]

    def _cubes(self, q: int, within: int, prune: bool = False) -> Iterator[tuple[int, int, int]]:
        """State ``q``'s region tree cut to the neighborhoods drawn from
        ``within``, as its decided regions ``(inn, free, target)``: the
        neighborhoods that hold ``inn`` and may hold ``free``, both subsets
        of ``within``, on all of which q steps to ``target``.  An undecided
        region is split on its ``split`` state, into its out half only when
        that state is outside ``within``, so the cubes partition the
        neighborhoods drawn from ``within``.  With ``prune`` a region is
        split only while some rule that may fire on it has a target not yet
        found, q counting as found.  More than 2^SUBSET_ENUMERATION_GUARD
        regions raise ``AutomatonTooLarge``."""
        found = 1 << q
        regions = [(0, (1 << len(self.states)) - 1)]  # (states in N, states not yet decided)
        budget = 1 << SUBSET_ENUMERATION_GUARD
        while regions:
            budget -= 1
            if budget < 0:
                raise AutomatonTooLarge(f"state diagram: the rules of state {self.states[q]!r} split into more "
                                        f"than 2^{SUBSET_ENUMERATION_GUARD} neighborhood regions")
            inn, free = regions.pop()
            target, split, targets = self.region(q, inn, free)
            if not split:
                found |= 1 << target
                yield inn, free & within, target
            elif not prune or targets & ~found:
                regions.append((inn, free ^ split))
                if split & within:
                    regions.append((inn | split, free ^ split))

    def trace_length_bound(self, start: Iterable[str] | None = None) -> int | None:
        """The number of states in the longest trace from ``start`` (default:
        every state), or None when that trace set is infinite: the longest
        path of ``state_diagram(start)``, memoized per start set."""
        key = frozenset(self.states if start is None else start)
        memo = self._cache.setdefault("bounds", {})
        if key not in memo:
            memo[key] = _longest_path(self.state_diagram(key))
        return memo[key]

    def is_monotone(self) -> bool:
        """A certificate that the automaton is timing-independent on every
        digraph: every run, under any timing, lossy or lossless, ends in the
        same quiescent configuration.  Memoized.

        It is read over R, the states of ``state_diagram(init states)``:
        every state a node can be in, a set closed under step(q, F) for q in
        R and F a subset of R.  Let <= be the reflexive-transitive closure of
        q -> step(q, F) on R, up(F) the states >= some member of F, and
        F ⊑ G (Egli-Milner) when every member of F is <= some member of G
        and every member of G is >= some member of F.  Front, the fronts a
        node in each state of R can read, is the least map from R to subsets
        of R in which

        - Front(i) holds up(I) for each initialization state i, I the set
          of them;
        - Front(t) holds up(F) when step(q, F) = t != q for an F that is a
          subset of Front(q).

        The automaton is certified when it is quasi-acyclic on R (so <= is
        a partial order) and

        1. accepting states are upward closed under <=;
        2. step(s, F) <= q for every s <= q in R, every F ⊆ Front(s) and
           every G ⊆ Front(q) with step(q, G) = q and F ⊑ G.

        Least-fixpoint approximants only grow, and ``dia`` and ``box``
        guards are monotone in ⊑: this is the chaotic-iteration argument
        for monotone operators (Cousot and Cousot 1977).  2 asks it only of
        the front sets runs can produce.  The conditions it replaces,
        step(q, F) <= step(q2, F) for q <= q2 and step monotone in ⊑, both
        over every subset of R, imply it: step(s, F) <= step(q, F) <=
        step(q, G) = q.  The converse fails on the flagship
        ``safe_one.json``: step(q2, {q3}) = q3 and step(q4, {q3}) = q4 are
        incomparable, but Front(q4) = {q4, q5}.

        Lemma (Front is sound).  In any run, every front of a node in state
        q is in Front(q).  A buffer is never empty and holds states of its
        writer's trace in order: a pop moves the front to a later entry and
        a push appends the writer's new state.  So a front only moves up its
        writer's trace, a <=-chain.  At the start every node is in its
        initialization state and every front is an initialization state, so
        while the node stays there its fronts are in up(I).  A node that
        moves from q to t != q reads fronts F ⊆ Front(q), by induction, and
        from then on each of its fronts is >= the one it read, so in up(F),
        a subset of Front(t).

        Proof (one quiescent configuration).  Take a quiescent configuration
        Y that some run on a digraph reaches, and any run on the same
        digraph.  By induction over single-entity steps, every node state of
        that run is <= the node's state in Y, and every buffer entry is <=
        its writer's.  Initially every node v is in its initialization
        state, the first state of v's trace in the run to Y, and a trace is
        a <=-chain, so it is <= Y_v; each buffer holds its writer's initial
        state.  A pop removes an entry; a push copies its writer's new
        state.  A move takes v from s <= Y_v to step(s, F), where F holds
        the fronts f_u of v's incoming buffers, each f_u <= Y_u, and F is a
        subset of Front(s) by the lemma.  Every buffer is nonempty, so
        F ⊑ G = {Y_u}.  G is a subset of Front(Y_v), by the lemma on the run
        to Y, and step(Y_v, G) = Y_v, by Y's quiescence, so step(s, F) <=
        Y_v by 2.  So any two quiescent configurations that runs reach are
        each <= the other, and they are equal.  A node's trace is a
        <=-chain that ends at its final state, so by 1 it visited an
        accepting state iff that final state is accepting.  Every verdict is
        therefore the same under every timing, lossy or lossless.

        The subsets of R are not listed: Front and 2 are read off each
        state's region tree, cut to its Front, as cubes of neighborhoods
        (``_cubes``, read by ``_monotone``), split DPLL style (Davis,
        Logemann and Loveland 1962).  More than CERTIFICATE_GUARD states in
        R returns False before any region is walked, and a walk of more than
        2^SUBSET_ENUMERATION_GUARD regions returns False when it trips."""
        if "monotone" not in self._cache:
            self._cache["monotone"] = self.trace_length_bound(self.init.values()) is not None and _monotone(self)
        return self._cache["monotone"]

    def is_quasi_acyclic(self) -> bool:
        """True iff the state diagram has no directed cycles except self-loops
        (equivalently: the trace set is finite).  The reference: it scans all
        2^|Q| neighborhood masks with ``step``, independently of
        ``state_diagram``, and is guarded to |Q| <= SUBSET_ENUMERATION_GUARD."""
        n = len(self.states)
        if n > SUBSET_ENUMERATION_GUARD:
            raise AutomatonTooLarge(f"the reference scan needs 2^{n} subset evaluations; "
                                    f"guard is |Q| <= {SUBSET_ENUMERATION_GUARD}")
        diagram: list[set[int]] = [set() for _ in range(n)]
        for fronts in range(1 << n):
            for q, found in enumerate(diagram):
                found.add(self.step(q, fronts))
        return _longest_path({q: frozenset(found - {q}) for q, found in enumerate(diagram)}) is not None

    def traces(self, start: Iterable[str] | None = None) -> frozenset[Trace]:
        """The paths from a state of ``start`` (default: every state) of
        ``state_diagram(start)``.  From every state these are all paths of
        the state diagram, every length-1 trace included; from the
        initialization states, the traces a node can traverse in a run
        started there.  A diagram with a cycle, so no ``trace_length_bound``,
        raises ``NotQuasiAcyclic``: the set is then infinite."""
        key = frozenset(self.states if start is None else start)
        memo = self._cache.setdefault("traces", {})
        if key not in memo:
            if self.trace_length_bound(key) is None:
                raise NotQuasiAcyclic("trace set is infinite: state diagram has a non-trivial cycle")
            diagram = self.state_diagram(key)
            reach, frontier = set(), {(q,) for q in key}
            while frontier:  # one layer per trace length
                reach |= frontier
                frontier = {t + (q2,) for t in frontier for q2 in diagram[t[-1]]}
            memo[key] = frozenset(reach)
        return memo[key]

    def is_trace(self, t: Trace) -> bool:
        """Check the trace invariants against this automaton: nonempty, no two
        consecutive states equal, every step witnessed by some neighborhood."""
        if not t or not set(t) <= set(self.states):
            return False
        diagram = self.state_diagram()
        return all(b in diagram[a] for a, b in zip(t, t[1:]))  # no self-loops in it


def _monotone(a: Automaton) -> bool:
    """The conditions of ``Automaton.is_monotone`` on a quasi-acyclic
    automaton, on masks: bit r of ``up[q]`` says q <= r, the successors
    coming from the state diagram on R, and bit x of ``down[y]`` says
    x <= y.  1 is read off ``up``.  Front comes from each state's cubes,
    its region tree cut to its Front (``Automaton._cubes``, unpruned),
    taken predecessors first, so that each Front is whole before its state
    is walked: a cube of q with target t != q adds up(inn | free) to
    Front(t).  2 pairs, for each q, the cubes of q that keep q (the G side)
    with those of every s <= q whose target is not <= q (the F side); a
    pair that holds some F ⊑ G (``_paired``) is a counterexample.  A walk
    beyond the region budget of ``_cubes`` certifies nothing: False."""
    diagram = a.state_diagram(a.init.values())
    if len(diagram) > CERTIFICATE_GUARD:
        return False
    successors = {a.index[q]: [a.index[r] for r in found] for q, found in diagram.items()}
    order = list(graphlib.TopologicalSorter(successors).static_order())  # successors first
    up = {}
    for q in order:
        up[q] = 1 << q
        for r in successors[q]:
            up[q] |= up[r]
    down = {y: sum(1 << x for x in order if up[x] >> y & 1) for y in order}
    accepting = a.mask(a.accepting)
    if any(up[q] & ~accepting for q in order if accepting >> q & 1):
        return False

    @functools.cache
    def above(mask: int) -> int:
        """up(mask)."""
        return functools.reduce(int.__or__, (up[x] for x in _bits(mask)), 0)

    @functools.cache
    def below(mask: int) -> int:
        """The states <= some state of mask."""
        return functools.reduce(int.__or__, (down[y] for y in _bits(mask)), 0)

    starts = a.mask(a.init.values())
    front = {q: above(starts) if starts >> q & 1 else 0 for q in order}
    cubes = {}
    for q in reversed(order):
        try:
            cubes[q] = list(a._cubes(q, front[q]))
        except AutomatonTooLarge:
            return False
        for inn, free, t in cubes[q]:
            if t != q:
                front[t] |= above(inn | free)
    for q in order:
        keeps = [(inn, free) for inn, free, t in cubes[q] if t == q]
        for s in _bits(down[q]):
            for inn, free, t in cubes[s]:
                if not up[t] >> q & 1 and any(_paired(inn, free, g, g_free, above, below) for g, g_free in keeps):
                    return False
    return True


def _paired(inn: int, free: int, g_inn: int, g_free: int,
            above: Callable[[int], int], below: Callable[[int], int]) -> bool:
    """Whether some F of the cube (``inn``, ``free``) and some G of the cube
    (``g_inn``, ``g_free``) have F ⊑ G.  Such pairs are closed under union,
    so the largest pair under the two cubes' tops is the greatest fixpoint
    that drops from F each state not <= a state of G (``below``) and from G
    each state not >= a state of F (``above``); a pair exists iff that one
    still holds both ``inn`` sets."""
    f, g = inn | free, g_inn | g_free
    while True:
        f2 = f & below(g)
        g2 = g & above(f2)
        if (f2, g2) == (f, g):
            return not (inn & ~f or g_inn & ~g)
        f, g = f2, g2


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
    if type(doc["bits"]) is not int:  # a JSON true or false is an int subclass, not an integer
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
