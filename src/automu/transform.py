"""Translations between fixpoint systems and distributed automata.

Upward (``formula_to_automaton``): flatten the system so every modal operator
applies directly to a variable, then build a powerset-state automaton whose
states are the sets of atomic propositions (label constants and variables)
already verified at a node, explored forward from the initialization states
so that only the sets a node can reach are built.  A transition adds exactly
the variables whose bodies hold shallowly of the current state and
neighborhood, so states only grow along transitions and the result is
quasi-acyclic by construction.  The rules say this symbolically: ``Dia X`` is
the guard "not a subset of the states lacking X", ``Box X`` "a subset of the
states containing X".

Downward (``automaton_to_formula``): introduce one variable per trace from the
initialization states and encode which sets of neighbor traces can drive a
node along each trace.  ``compute_enables`` is the inductive closure of that
driving relation over all of P(traces); for the formula itself a restricted
closure is used (neighborhoods drawn from initialization-reachable traces).
One pair closure, ``_pair_closure``, serves both, and both keep its per-trace
families: ``enables`` writes them, compile-down prunes them by prefix
subsumption, which with the restriction preserves the defined property while
keeping the formula small enough to evaluate.  The construction assumes the
input automaton's acceptance behavior is independent of lossless-asynchronous
timing; that hypothesis is not checkable here and is taken on trust.
"""

from __future__ import annotations

import itertools
import re
from collections import deque
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from typing import Iterable, Iterator, Mapping, Sequence

from .automata import (
    ELSE,
    SUBSET_ENUMERATION_GUARD,
    AndGuard,
    Automaton,
    AutomatonTooLarge,
    Guard,
    NotGuard,
    OrGuard,
    SubsetEq,
    Trace,
    TransitionRule,
    _bits,
    _decide,
    trace_pushlast,
)
from .logic import (
    And,
    Box,
    Const,
    Dia,
    FalseF,
    Formula,
    MuSystem,
    NegConst,
    Or,
    TrueF,
    Var,
    _Interner,
    _children,
    _fold,
    _head,
    _postorder,
    _rebuild,
)


class SizeGuardExceeded(ValueError):
    """A construction would exceed its state-space or rule-table guard."""


MAX_ATOMS = 16          # powerset construction guard: constants + variables
MAX_RULE_TABLE = 1 << 22  # total emitted rules across the reachable states
MAX_ENABLES_TRACES = 12   # full closure guard: trace count


class NotFlattened(ValueError):
    """shallow evaluation was asked of a formula whose modal arguments are not
    plain variables."""


# ---------------------------------------------------------------------------
# flattening

def flatten(sys: MuSystem) -> MuSystem:
    """Equivalent system in which every modal operator is applied directly to
    a variable: each offending modal argument is moved into a fresh variable
    of its own.  The first variable keeps its position.  The rewrite walks
    occurrences, not node ids: an argument a hash-consed parse shares gets a
    fresh variable per occurrence, as on a tree, so the result does not
    depend on what the input shares."""
    used = set(sys.vars)
    counter = 0

    def fresh() -> str:
        nonlocal counter
        while f"Y{counter}" in used:
            counter += 1
        name = f"Y{counter}"
        used.add(name)
        return name

    queue: deque[tuple[str, Formula]] = deque(zip(sys.vars, sys.bodies))
    names: list[str] = []
    bodies: list[Formula] = []

    def rewrite(body: Formula) -> Formula:
        # top-down and left to right, so fresh names follow the order in which
        # the modal arguments appear; the stack holds (node, -1) to visit a
        # node and (node, k) to rebuild it from the last k results
        done: list[Formula] = []
        stack: list[tuple[Formula, int]] = [(body, -1)]
        while stack:
            f, k = stack.pop()
            kids = _children(f)
            if k >= 0:
                done[len(done) - k:] = [_rebuild(f, done[len(done) - k:])]
            elif _head(f) not in ("dia", "box"):
                stack.append((f, len(kids)))
                stack.extend((kid, -1) for kid in reversed(kids))
            elif _head(kids[0]) == "var":
                done.append(f)
            else:
                y = fresh()
                queue.append((y, kids[0]))
                done.append(_rebuild(f, (Var(y),)))
        return done[0]

    while queue:
        name, body = queue.popleft()
        names.append(name)
        bodies.append(rewrite(body))
    return MuSystem(bits=sys.bits, vars=tuple(names), bodies=tuple(bodies))


def shallow_sat(f: Formula, q: Iterable[str], s: Iterable[Iterable[str]]) -> bool:
    """Evaluate a flattened formula against an abstract point: atoms are read
    from membership in ``q``, a diamond over variable X asks for some member
    of ``s`` containing X, a box for all members containing X.  Constants are
    written ``p<i>``."""
    atoms = frozenset(q)
    neighborhood = [frozenset(m) for m in s]

    def sat(f: Formula) -> bool:
        if isinstance(f, TrueF):
            return True
        if isinstance(f, FalseF):
            return False
        if isinstance(f, Const):
            return f"p{f.index}" in atoms
        if isinstance(f, NegConst):
            return f"p{f.index}" not in atoms
        if isinstance(f, Var):
            return f.name in atoms
        if isinstance(f, Or):
            return sat(f.left) or sat(f.right)
        if isinstance(f, And):
            return sat(f.left) and sat(f.right)
        if isinstance(f, (Dia, Box)):
            if not isinstance(f.inner, Var):
                raise NotFlattened(f"modal argument is not a variable: {f.inner!r}")
            name = f.inner.name
            if isinstance(f, Dia):
                return any(name in m for m in neighborhood)
            return all(name in m for m in neighborhood)
        raise TypeError(f"not a formula: {f!r}")

    return sat(f)


def _shallow_guards(nodes: list, bodies: Sequence[Formula], q: frozenset[str],
                    dia: Mapping[str, Guard], box: Mapping[str, Guard]) -> list[bool | Guard]:
    """``shallow_sat(body, q, .)`` for every body, as a guard over the
    neighborhood: atoms read from q fold to constants, ``Dia X`` and ``Box X``
    become ``dia[X]`` (not a subset of the states lacking X) and ``box[X]``
    (a subset of the states containing X), giving True or False when no
    guard is needed.  ``nodes`` is ``_postorder(bodies)`` as a list: it is
    walked once per compile-up and folded once per state."""

    def join(unit: bool, kids: Sequence[bool | Guard]) -> bool | Guard:
        kind = AndGuard if unit else OrGuard  # True is neutral for And, False for Or
        parts: list[Guard] = []
        for kid in kids:
            if kid is (not unit):
                return kid
            if kid is not unit:
                parts.extend(kid.parts if isinstance(kid, kind) else (kid,))
        if len(parts) < 2:
            return parts[0] if parts else unit
        return kind(tuple(parts))

    def node(g: Formula, kids: list) -> bool | Guard:
        head = _head(g)
        if head in ("dia", "box"):
            return (dia if head == "dia" else box)[g.inner.name]
        if head == "var":
            return g.name in q
        if head in ("p", "not-p"):
            return (f"p{g.index}" in q) == (head == "p")
        if head in ("true", "false"):
            return head == "true"
        return join(head == "and", kids)

    value: dict[int, bool | Guard] = {}  # id of a node -> its guard
    for g, kids in nodes:
        value[id(g)] = node(g, [value[id(k)] for k in kids])
    return [value[id(b)] for b in bodies]


# ---------------------------------------------------------------------------
# formula -> automaton

_P_TOKEN = re.compile(r"^p\d+$")


def _atom_system(sys: MuSystem) -> MuSystem:
    """``flatten(sys)`` with every variable renamed to a fresh ``V<i>`` whose
    name cannot be an atom of a state id: ``p<digits>`` would collide with a
    constant, and a comma with the separator of the atoms (names carry no
    meaning)."""
    flat = flatten(sys)
    fresh = (f"V{i}" for i in itertools.count() if f"V{i}" not in flat.vars)
    renames = {x: next(fresh) for x in flat.vars if _P_TOKEN.match(x) or "," in x}
    if not renames:
        return flat

    def rn(f: Formula, kids: list[Formula]) -> Formula:
        return Var(renames.get(f.name, f.name)) if _head(f) == "var" else _rebuild(f, kids)

    return MuSystem(
        bits=flat.bits,
        vars=tuple(renames.get(x, x) for x in flat.vars),
        bodies=tuple(_fold(flat.bodies, rn)),
    )


def formula_to_automaton(sys: MuSystem) -> Automaton:
    """Powerset-state automaton equivalent to the system, over the states a
    node can reach from its initialization state.

    States are subsets of {p0..p_{bits-1}} plus the (flattened) variables;
    a node's state records which of those atoms have been verified at it so
    far.  Initialization keeps the label constants; a transition on
    neighborhood S adds every variable whose body holds shallowly of
    (state, S); accepting states are those containing the first variable.
    The states are R, the least set of subsets that holds the initialization
    states and every successor of its members on neighborhoods drawn from it,
    in the order of their bitmasks over the atoms: ``state_diagram`` from
    initialization of the automaton over all subsets, which no run leaves.

    Rules are symbolic: at state q each body becomes a guard over the
    neighborhood (``_shallow_guards``), whose ``dia`` and ``box`` guards name
    states of R.  Variables whose guard folds to true are always added, those
    folding to false never; for the remaining open variables one rule per
    subset whose target is in R, largest first, adds exactly that subset.
    The else rule adds only the always-added variables, and its target is in
    R: on a neighborhood of one initialization state every open guard is
    false.  The sum over R of the rules is checked against
    ``MAX_RULE_TABLE`` before any rule is built.

    R is found before any rule: bodies are flat, so a successor depends on a
    neighborhood only through the variables some member holds (read by
    ``dia``) and those some member lacks (read by ``box``).  Both are one
    code, the or of the members' codes, so the codes of the neighborhoods
    drawn from the states found so far are closed under or, and each state
    found meets each code once.
    """
    flat = _atom_system(sys)
    n = flat.bits + len(flat.vars)
    if n > MAX_ATOMS:  # before any atom is named: the label width alone can be huge
        raise SizeGuardExceeded(f"powerset construction over {n} atoms exceeds the guard of {MAX_ATOMS}")
    atoms = [f"p{i}" for i in range(flat.bits)] + list(flat.vars)
    bit = {x: 1 << i for i, x in enumerate(atoms)}
    nodes = list(_postorder(flat.bodies))

    # A neighborhood's code has bit i when some member holds atom i and bit
    # n + i when some member lacks it, for the variables under a dia or a
    # box.  On codes, box y and the guard that dia y negates are subset
    # guards that each exclude one bit; ``_decide`` reads them.
    under = {"dia": 0, "box": 0}
    for g, _ in nodes:
        if _head(g) in under:
            under[_head(g)] |= bit[g.inner.name]
    code_box = {y: SubsetEq(frozenset({f"box {y}"})) for y in flat.vars}
    code_dia = {y: NotGuard(SubsetEq(frozenset({f"dia {y}"}))) for y in flat.vars}
    code_masks = {**{code_box[y].states: ~(bit[y] << n) for y in flat.vars},
                  **{code_dia[y].inner.states: ~bit[y] for y in flat.vars}}

    def plan(q: int) -> tuple[int, list[tuple[int, Guard]]]:
        """The state every transition from q reaches at least (q and the
        variables whose guard folds to true), and the variables still open
        there with their guards over codes."""
        always, open_vars = q, []
        names = frozenset(atoms[i] for i in _bits(q))
        for x, g in zip(flat.vars, _shallow_guards(nodes, flat.bodies, names, code_dia, code_box)):
            if not q & bit[x]:
                if g is True:
                    always |= bit[x]
                elif g is not False:
                    open_vars.append((bit[x], g))
        return always, open_vars

    plans: dict[int, tuple[int, list[tuple[int, Guard]]]] = {}  # R in the order found
    codes, code_set, met = [0], {0}, []  # the empty neighborhood's code is 0

    def reach(q: int) -> None:
        plans[q] = plan(q)
        met.append(0)  # how many codes q has met
        code = q & under["dia"] | (~q & under["box"]) << n
        more = dict.fromkeys(d | code for d in codes if d | code not in code_set)
        codes.extend(more)
        code_set.update(more)

    words = ["".join(w) for w in itertools.product("01", repeat=flat.bits)]
    init = {w: sum(1 << i for i, c in enumerate(w) if c == "1") for w in words}
    for q in dict.fromkeys(init.values()):
        reach(q)
    while any(k < len(codes) for k in met):
        for i, (always, open_vars) in enumerate(list(plans.values())):
            todo, met[i] = codes[met[i]:], len(codes)
            for c in todo:
                t = always
                for b, g in open_vars:
                    if _decide(g, c, 0, code_masks)[0]:
                        t |= b
                if t not in plans:
                    reach(t)

    states = sorted(plans)
    ids = {q: "{" + ",".join(atoms[i] for i in _bits(q)) + "}" for q in states}
    over_r = {id(code_box[y]): SubsetEq(frozenset(ids[q] for q in states if q & bit[y])) for y in flat.vars}
    over_r.update({id(code_dia[y]): NotGuard(SubsetEq(frozenset(ids[q] for q in states if not q & bit[y])))
                   for y in flat.vars})

    def guard(g: Guard) -> Guard:
        """An and/or of code guards, over R."""
        return over_r.get(id(g)) or type(g)(tuple(map(guard, g.parts)))

    # the rule for the set of open variables that hold comes before every
    # smaller one, so first-match picks exactly that set; sets of one size
    # come in the order of ``itertools.combinations``
    tables = []
    for q in states:
        always, open_vars = plans[q]
        span = always | sum(b for b, _ in open_vars)
        targets = [t for t in states if t != always and t & always == always and t | span == span]
        targets.sort(key=lambda t: (-(t ^ always).bit_count(), tuple(_bits(t ^ always))))
        tables.append((always, [(b, guard(g)) for b, g in open_vars], targets))
    total_rules = sum(len(targets) + 1 for _, _, targets in tables)
    if total_rules > MAX_RULE_TABLE:
        raise SizeGuardExceeded(
            f"rule table of {total_rules} entries exceeds the guard of {MAX_RULE_TABLE}"
        )
    rules = {
        ids[q]: tuple(TransitionRule(AndGuard(tuple(g for b, g in open_vars if t & b)), ids[t])
                      for t in targets) + (TransitionRule(ELSE, ids[always]),)
        for q, (always, open_vars, targets) in zip(states, tables)
    }

    # every rule target contains its source, so the only cycles of the state
    # diagram are self-loops
    return Automaton(
        bits=flat.bits,
        states=tuple(ids.values()),
        init={w: ids[q] for w, q in init.items()},
        rules=rules,
        accepting=frozenset(ids[q] for q in states if q & bit[flat.vars[0]]),
    )


# ---------------------------------------------------------------------------
# the trace-driving relation
#
# The closure runs over ints.  The trace universe is indexed by a sorted
# list: a set of neighbor traces is a mask over that index, a set of states a
# mask in the automaton's state encoding and a node trace an index.  A family
# of neighbor sets is one 2^|T|-bit int whose bit h is set iff the set with
# mask h belongs to it: a dense bitset, in the spirit of Minato's set-family
# algebra.  The closure keeps one family per node trace and works a family
# at a time: per round and node trace, the sets one step from all of its
# neighbor sets are one family, built by O(|T| * k) shifts and masks (k the
# size of a trace's one-step extension set), cut by the last states of their
# traces, and each part is extended by one step of the node trace.  The
# compile-down prune tests coverage the same way.  As the index is sorted, a
# set's traces in order are its bits lowest first.

@dataclass(frozen=True)
class EnablesSet:
    """Closure of the driving relation: (H, t) means a node starting at
    t's first state can traverse t while seeing its incoming neighbors
    traverse exactly the traces in H.  ``families[t]`` is ``_pair_closure``'s
    family (see ``_Families``) of the sets H that drive trace t of the sorted
    ``traces``, as masks over them; ``pairs`` decodes them when first read."""

    traces: tuple[Trace, ...]
    families: tuple[int, ...]
    iterations_used: int

    @cached_property
    def pairs(self) -> frozenset[tuple[frozenset[Trace], Trace]]:
        as_set = cache(lambda h: frozenset(self.traces[i] for i in _bits(h)))
        return frozenset((as_set(h), t) for t, family in zip(self.traces, self.families) for h in _members(family))


def _extension_choices(subs: Sequence[Sequence[int]], memo: dict[int, tuple[int, ...]],
                       h: int) -> tuple[int, ...]:
    """The distinct sets obtainable by replacing every trace in ``h`` with a
    nonempty set of its one-step extensions (keeping the trace counts as
    extending by its own last state).  Distinct neighbor nodes sharing a
    trace may diverge, hence set-of-extensions rather than one extension per
    trace.  This is the one-set product that ``_Families.choices`` is tested
    against; the closure does not call it.

    ``h`` is a trace mask and ``subs[i]`` lists the nonempty subsets of trace
    i's extensions as trace masks.  ``memo`` holds the result of every mask
    built so far and starts as ``{0: (0,)}``: the empty set extends only to
    itself.  The result for ``h`` is the product of the result for ``h``
    without its highest member with that member's subsets.  Highest members
    are dropped until a memoized mask is left, and the masks between it and
    ``h`` are built and memoized on the way back, so each distinct mask costs
    one product.  Duplicates are dropped as a product is built, since a set
    holding both t and an extension of t reaches the same result by many
    choices."""
    tops = []
    while h not in memo:
        top = h.bit_length() - 1
        tops.append(top)
        h ^= 1 << top
    got = memo[h]
    for top in reversed(tops):
        h |= 1 << top
        acc: set[int] = set()
        for s in subs[top]:
            acc.update(map(s.__or__, got))
        got = memo[h] = tuple(acc)
    return got


def _prefix_masks(traces: Sequence[Trace]) -> tuple[list[int], list[int]]:
    """Per trace of a sorted prefix-closed list, as trace masks: the trace with
    its one-step extensions, and with all its extensions."""
    index = {t: i for i, t in enumerate(traces)}
    steps, prefixes, extensions = ([1 << i for i in range(len(traces))] for _ in range(3))
    for i, t in enumerate(traces):  # a trace's prefixes sort before it
        if len(t) > 1:
            steps[index[t[:-1]]] |= 1 << i
            prefixes[i] |= prefixes[index[t[:-1]]]
        for j in _bits(prefixes[i]):
            extensions[j] |= 1 << i
    return steps, extensions


def _extension_subsets(steps: Sequence[int]) -> list[list[int]]:
    """Every nonempty subset of each of ``_prefix_masks``' one-step extension masks."""
    subs: list[list[int]] = []
    for m in steps:
        row, s = [], m
        while s:
            row.append(s)
            s = (s - 1) & m
        subs.append(row)
    return subs


def _members(family: int) -> list[int]:
    """The masks in ``family``, lowest first."""
    return [h for h, bit in enumerate(bin(family)[:1:-1]) if bit == "1"]


def _subsets(mask: int) -> int:
    """The family of every subset of ``mask``."""
    family = 1
    for i in _bits(mask):
        family |= family << (1 << i)
    return family


def _holding(n: int) -> list[int]:
    """Per trace i of n, the family of the sets holding i: in every block of
    2^(i+1) bits, the upper 2^i."""
    holding = []
    for i in range(n):
        family, period = ((1 << (1 << i)) - 1) << (1 << i), 2 << i
        while period < 1 << n:
            family |= family << period
            period <<= 1
        holding.append(family)
    return holding


class _Families:
    """The closure's operations on families of neighbor sets over a sorted
    index of n traces.  ``steps`` are ``_prefix_masks``' one-step extension
    masks and ``lasts[i]`` is the state mask of trace i's last state."""

    def __init__(self, steps: Sequence[int], lasts: Sequence[int]):
        has = _holding(len(steps))
        # the traces with an extension, highest first: the shift and family of
        # the trace, then of each one-step extension (the trace itself included)
        self.spread = [(1 << i, has[i], [(1 << e, has[e]) for e in _bits(m)])
                       for i, m in reversed(list(enumerate(steps))) if m != 1 << i]
        hits: dict[int, int] = {}  # last-state mask -> the sets holding a trace ending there
        for i, q in enumerate(lasts):
            hits[q] = hits.get(q, 0) | has[i]
        self.hits = sorted(hits.items())

    def choices(self, family: int) -> int:
        """The sets one step from the members of ``family``: the union of
        ``_extension_choices`` over them.

        Traces are replaced highest first.  The members holding trace i lose
        it by one shift down by 2^i, then gain each nonempty subset of its
        one-step extensions by "add e" steps: a set lacking e moves up by
        2^e, and one holding e stays.  Every extension of i sorts after i, so
        no trace added by an earlier step is replaced again, and a trace
        still held when its turn comes is one of the member's own."""
        for shift, has, adds in self.spread:
            held = family & has
            if held:
                family ^= held
                held >>= shift
                got = 0  # held, each with a nonempty subset of the extensions so far
                for e_shift, e_has in adds:
                    base = held | got
                    got |= (base | base << e_shift) & e_has
                family |= got
        return family

    def split(self, family: int) -> Iterator[tuple[int, int]]:
        """The nonempty ``family`` cut by the last states of its members'
        traces: each last-state mask with the part of the members that have
        it.  The cut goes one state at a time, on the sets holding a trace
        that ends in it; the walk is depth first, so at most one part per
        state waits."""
        hits = self.hits
        stack = [(family, 0, 0)]
        while stack:
            part, k, lasts = stack.pop()
            if k == len(hits):
                yield lasts, part
                continue
            q, hit = hits[k]
            inside = part & hit
            if inside != part:
                stack.append((part ^ inside, k + 1, lasts))
            if inside:
                stack.append((inside, k + 1, lasts | q))


def compute_enables(a: Automaton, max_rounds: int | None = None,
                    max_traces: int = MAX_ENABLES_TRACES) -> EnablesSet:
    """Inductive closure of the driving relation over all of P(traces):
    ``_pair_closure`` seeded with every state, neighbor traces drawn from
    every trace.  ``iterations_used`` counts pairs processed and is bounded
    by |traces| * 2^|traces|.

    The closure is exponential in the trace count; ``max_traces`` guards it.
    ``max_rounds`` limits derivation depth (round 0 = seeds only), which
    yields a sound under-approximation for inspecting large automata.
    """
    if max_rounds is not None and max_rounds < 0:
        raise ValueError(f"max_rounds must be >= 0, got {max_rounds}")
    traces = sorted(a.traces())  # raises NotQuasiAcyclic on infinite trace sets
    if len(traces) > max_traces and max_rounds is None:
        raise AutomatonTooLarge(
            f"full closure over {len(traces)} traces (up to |T|*2^|T| pairs) exceeds "
            f"the guard of {max_traces}; pass max_rounds for a bounded under-approximation"
        )
    families, iterations = _pair_closure(a, a.states, traces, max_rounds)
    return EnablesSet(tuple(traces), tuple(families), iterations)


def _pair_closure(a: Automaton, seeds: Sequence[str], traces: Sequence[Trace],
                  max_rounds: int | None = None) -> tuple[list[int], int]:
    """The driving pairs derivable from ``seeds`` with neighbor traces drawn
    from ``traces``, a sorted prefix-closed trace list that also holds every node
    trace the closure reaches (all traces do, and so do the traces reachable
    from initialization).  Seeds: every set N of seed states, as length-1
    traces, drives each seed q extended by delta(q, N).  Step: from (H, t),
    every H' obtainable by extending the members of H by at most one state
    apiece drives t extended by delta(t's last, last states of H').  Rounds
    are breadth-first layers; round 0 is the seeds alone.

    Returns, per index trace t, the family of the neighbor sets H that drive
    it (see ``_Families``), and how many pairs were processed.

    Each round takes the frontier's family of each node trace t whole: the
    sets one step from its members are one family (``_Families.choices``),
    cut by last-state mask (``_Families.split``).  Each part is extended by
    the step of t's last state on its mask, which a dict per node trace
    memoizes as the index of the extended trace (a miss calls
    ``Automaton.step``), and its sets not yet seen for that trace join the
    next frontier.  So the rounds are those of a pair-by-pair search.

    A family takes 2^|T| bits, so more than SUBSET_ENUMERATION_GUARD traces
    (128 KiB a family at 20) raise ``AutomatonTooLarge`` before any family
    is built."""
    n = len(traces)
    if n > SUBSET_ENUMERATION_GUARD:
        raise AutomatonTooLarge(
            f"trace closure over {n} traces refused: each family of neighbor-trace sets is a "
            f"2^{n}-bit int; guard is |T| <= {SUBSET_ENUMERATION_GUARD}"
        )
    states = a.states
    index = {t: i for i, t in enumerate(traces)}
    families = _Families(_prefix_masks(traces)[0], [1 << a.index[t[-1]] for t in traces])
    extended: list[dict[int, int]] = [{} for _ in traces]

    def step(t: int, lasts: int) -> int:
        """Trace ``t`` extended by the step of its last state on ``lasts``."""
        q2 = a.step(a.index[traces[t][-1]], lasts)
        extended[t][lasts] = index[trace_pushlast(traces[t], states[q2])]
        return extended[t][lasts]

    seed_ids = [a.index[q] for q in seeds]
    seen = [0] * n  # node trace -> the family of its neighbor sets
    for chosen in range(1 << len(seed_ids)):
        lasts = h = 0
        for i in _bits(chosen):
            lasts |= 1 << seed_ids[i]
            h |= 1 << index[(seeds[i],)]
        for q in seeds:
            seen[step(index[(q,)], lasts)] |= 1 << h
    frontier = {t: family for t, family in enumerate(seen) if family}
    iterations = rounds = 0
    while frontier and (max_rounds is None or rounds < max_rounds):
        rounds += 1
        next_frontier: dict[int, int] = {}
        for t, family in frontier.items():
            iterations += family.bit_count()
            ext = extended[t]
            for lasts, part in families.split(families.choices(family)):
                t2 = ext.get(lasts)
                if t2 is None:
                    t2 = step(t, lasts)
                new = part & ~seen[t2]
                if new:
                    seen[t2] |= new
                    next_frontier[t2] = next_frontier.get(t2, 0) | new
        frontier = next_frontier
    return seen, iterations


# ---------------------------------------------------------------------------
# automaton -> formula

def _driver_closure(a: Automaton) -> dict[Trace, list[int]]:
    """Driving pairs restricted to what runs started from initialization can
    exhibit: node and neighbor traces begin at initialization states, and
    neighborhoods draw on reachable traces only.  Every produced pair belongs
    to the full closure; conversely every neighbor-trace set arising in a
    synchronous run (on any digraph) is produced, which is exactly what the
    formula construction needs.  Neighbor sets are grouped by node trace, as
    masks over the sorted traces from initialization, lowest first."""
    traces = sorted(a.traces(a.init.values()))
    families, _ = _pair_closure(a, sorted(set(a.init.values())), traces)
    return {traces[t]: _members(family) for t, family in enumerate(families) if family}


def _prune_family(family: list[int], extensions: Sequence[int]) -> list[int]:
    """Keep only subsumption-minimal neighborhood descriptions; dropped
    members are implied by a kept one wherever they hold.

    Description ``small`` covers ``big`` when every member of ``small`` is a
    prefix of some member of ``big`` and every member of ``big`` extends some
    member of ``small``.  Under any valuation in which a trace's set is
    contained in each of its prefixes' sets, the neighborhood described by
    ``big`` also matches the (weaker) description by ``small``.

    Members are taken smaller first, then by their sorted traces; a member
    no kept one covers is kept, and the kept ones it covers are dropped.
    Sets are masks over a sorted trace index, with its ``_prefix_masks``
    extension masks.  With ``up`` the extensions of a set's members,
    ``small`` covers ``big`` iff big ⊆ up(small) and big meets the
    extensions of each member of ``small``, so the sets a member covers are
    one family: the subsets of its ``up`` that meet each of those masks.
    Covering is transitive, so what the members kept so far cover, dropped
    ones included, is what the ones still kept cover.  So the next member
    to keep is the first of the family's sets outside that union, found a
    trace at a time, and only kept members cost work."""
    n = len(extensions)
    holding = _holding(n)
    meets: dict[int, int] = {}  # index trace -> the sets meeting its extensions
    by_size: dict[int, bytearray] = {}  # the members of each size, as a family's bytes
    for h in family:
        size = h.bit_count()
        if size not in by_size:
            by_size[size] = bytearray(((1 << n) + 7) >> 3)
        by_size[size][h >> 3] |= 1 << (h & 7)
    covered = 0
    kept: list[int] = []
    for _, members in sorted(by_size.items()):
        rest = int.from_bytes(members, "little") & ~covered
        while rest:
            first = rest  # narrowed to the sets holding the lowest trace some of them hold
            for has in holding:
                if first & has:
                    first &= has
            h = first.bit_length() - 1
            up = 0
            for i in _bits(h):
                up |= extensions[i]
            cover = _subsets(up)
            for i in _bits(h):
                if i not in meets:
                    meets[i] = reduce(int.__or__, (holding[j] for j in _bits(extensions[i])))
                cover &= meets[i]
            kept = [k for k in kept if not cover >> k & 1]
            kept.append(h)
            covered |= cover
            rest &= ~cover
    return kept


def _trace_var_names(traces: list[Trace]) -> dict[Trace, str]:
    names: dict[Trace, str] = {}
    taken = {"X0"}
    for t in traces:
        base = "T_" + "_".join(re.sub(r"[^0-9A-Za-z]", "", s) or "s" for s in t)
        name = base
        k = 1
        while name in taken:
            name = f"{base}_{k}"
            k += 1
        names[t] = name
        taken.add(name)
    return names


def automaton_to_formula(a: Automaton) -> MuSystem:
    """Fixpoint system equivalent to a quasi-acyclic automaton whose behavior
    does not depend on lossless-asynchronous timing.

    One variable per trace from an initialization state (no run traverses
    another) plus a lead acceptance variable.  The lead variable
    collects every trace ending in an accepting state; a length-1 trace holds
    where the node's label initializes to that state; a longer trace holds
    where the node initializes to its first state and some recorded
    neighborhood description matches: every listed neighbor trace is
    witnessed by an incoming neighbor and every incoming neighbor matches a
    listed trace (an empty description requires in-degree 0).

    The bodies are built through one hash-consing constructor
    (``_Interner``): a trace's variable, each ``Box`` over a neighbor set's
    disjunction and every other repeated subterm is one object, so the
    system is a DAG whose walks cost O(distinct subterms); its printed form
    is the same tree as before.
    """
    index = sorted(a.traces(a.init.values()))  # what the neighbor-set masks are over
    traces = sorted(index, key=len)  # the variables: shorter first, then sorted
    names = _trace_var_names(traces)
    extensions = _prefix_masks(index)[1]
    families = {t: _prune_family(f, extensions) for t, f in _driver_closure(a).items()}

    make = _Interner()  # every distinct subterm is built once
    var = {t: make(Var, name) for t, name in names.items()}

    bodies: list[Formula] = [make.chain(Or, [var[t] for t in traces if t[-1] in a.accepting])]
    for t in traces:
        if len(t) == 1:
            words = sorted(w for w, q in a.init.items() if q == t[0])
            body = make.chain(Or, [
                make.chain(And, [make(Const if w[i] == "1" else NegConst, i) for i in range(a.bits)])
                for w in words
            ])
        else:
            options = []
            for h in families.get(t, []):
                members = [var[index[i]] for i in _bits(h)]
                options.append(make.chain(And, [make(Dia, v) for v in members]
                                          + [make(Box, make.chain(Or, members))]))
            body = make(And, var[(t[0],)], make.chain(Or, options))
        bodies.append(body)

    return MuSystem(bits=a.bits, vars=("X0", *(names[t] for t in traces)), bodies=tuple(bodies))
