"""Backward modal logic and simultaneous least-fixpoint systems.

Formulas are built from label-bit constants (positive or negated), variables
(never negated; the grammar has no production for it), binary and/or, and two
modal operators that quantify over *incoming* neighbors: ``Dia`` (some
incoming neighbor satisfies the argument) and ``Box`` (all incoming neighbors
do, vacuously true at in-degree 0).

A ``MuSystem`` is a simultaneous least fixpoint mu(X0..Xk).(f0..fk); its
meaning on a digraph is the least fixpoint of the monotone operator that
reassigns every variable the value of its body, and the system holds at a
node iff the node lands in the first component.

Formulas are immutable, so a node may be shared.  The reader and the
compile-down build through one hash-consing constructor (``_Interner``),
which makes every structurally distinct subterm of their output one object;
the walks (``_postorder``/``_fold``) visit each object once, so they cost
O(distinct subterms) on such a DAG.  ``format_formula`` prints a tree;
``share`` names each repeated subterm, so its printed form writes it once.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from functools import reduce
from operator import attrgetter, is_
from typing import AbstractSet, Callable, Iterable, Iterator, Mapping, Sequence, Union

from .automata import _bits
from .graphs import BitWidthMismatch, Digraph, Domain, PointedDigraph, node_set


class FormulaSyntaxError(ValueError):
    """A formula document is malformed or violates a system invariant."""


# ---------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class FalseF:
    pass


@dataclass(frozen=True)
class TrueF:
    pass


@dataclass(frozen=True)
class Const:
    """Label bit i of the current node is 1."""

    index: int


@dataclass(frozen=True)
class NegConst:
    """Label bit i of the current node is 0."""

    index: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Dia:
    """Some incoming neighbor satisfies the argument."""

    inner: "Formula"


@dataclass(frozen=True)
class Box:
    """All incoming neighbors satisfy the argument."""

    inner: "Formula"


Formula = Union[FalseF, TrueF, Const, NegConst, Var, Or, And, Dia, Box]


# Every node class in one table: its head word in the s-expression format
# and the fields that hold its subformulas, in constructor order (none for a
# leaf).  The traversal, the reader and the printer all read this table.
_SYNTAX: dict[type, tuple[str, tuple[str, ...]]] = {
    FalseF: ("false", ()),
    TrueF: ("true", ()),
    Const: ("p", ()),
    NegConst: ("not-p", ()),
    Var: ("var", ()),
    Or: ("or", ("left", "right")),
    And: ("and", ("left", "right")),
    Dia: ("dia", ("inner",)),
    Box: ("box", ("inner",)),
}
_CLASS_OF_HEAD = {head: cls for cls, (head, _) in _SYNTAX.items()}
_COMPOUND = frozenset(cls for cls, (_, fields) in _SYNTAX.items() if fields)


class _Interner:
    """A hash-consing constructor (Ershov; Filliatre and Conchon):
    ``make(cls, *fields)`` returns the one node of class ``cls`` over
    ``fields`` that this constructor has built, building it on the first
    request.  A leaf is keyed on its class and field, a compound node on its
    class and the ids of its children, which must come from the same
    constructor; built bottom-up, every structurally distinct subterm is
    then one object, and no key hashes or compares a formula (both recurse
    over it).  The table lives as long as the constructor, one per parse or
    compile-down: the ids in its keys stay valid because the table holds the
    nodes that own them."""

    __slots__ = ("table",)

    def __init__(self) -> None:
        self.table: dict[tuple, Formula] = {}

    def __call__(self, cls: type, *fields: object) -> Formula:
        key = (cls, *map(id, fields)) if cls in _COMPOUND else (cls, *fields)
        node = self.table.get(key)
        if node is None:
            node = self.table[key] = cls(*fields)
        return node

    def chain(self, cls: type, parts: Sequence[Formula]) -> Formula:
        """``cls`` (``Or`` or ``And``) over the parts, associated to the left
        and each intermediate node interned; no parts make its unit (false
        for ``Or``, true for ``And``) and one part is itself."""
        if not parts:
            return self(FalseF if cls is Or else TrueF)
        return reduce(lambda left, right: self(cls, left, right), parts)


def _head(f: Formula) -> str:
    return _SYNTAX[type(f)][0]


def _getter(fields: tuple[str, ...]) -> Callable[[Formula], tuple[Formula, ...]]:
    if not fields:
        return lambda f: ()
    get = attrgetter(*fields)
    return get if len(fields) > 1 else lambda f: (get(f),)


_CHILDREN = {cls: _getter(fields) for cls, (_, fields) in _SYNTAX.items()}


def _children(f: Formula) -> tuple[Formula, ...]:
    return _CHILDREN[type(f)](f)


def _rebuild(f: Formula, kids: Sequence[Formula]) -> Formula:
    """A node of f's kind over ``kids`` in place of its children."""
    return type(f)(*kids) if kids else f


def _postorder(
    roots: Iterable[Formula], seen: set[int] | None = None,
    children: Callable[[Formula], Sequence[Formula]] | None = None,
) -> Iterator[tuple[Formula, Sequence[Formula]]]:
    """Every node object under the roots once, with its children, children
    first; nodes whose ids are in ``seen`` (which the walk extends) are
    skipped.  A subterm shared by several parents, as in a hash-consed
    system, is thus visited once, and a walk costs O(distinct subterms).
    ``children`` gives the nodes a node stands over (its subformulas unless
    the caller says otherwise).  The walk keeps its own stack, so a chain of
    any length is fine."""
    seen = set() if seen is None else seen
    for root in roots:
        stack: list[tuple[Formula, Sequence[Formula] | None]] = [(root, None)]
        while stack:
            f, kids = stack.pop()
            if kids is not None:  # every child has been yielded
                yield f, kids
            elif id(f) not in seen:
                seen.add(id(f))
                kids = _CHILDREN[type(f)](f) if children is None else children(f)
                stack.append((f, kids))
                for k in kids:
                    stack.append((k, None))


def _fold(roots: Sequence[Formula], node: Callable[[Formula, list], object],
          children: Callable[[Formula], Sequence[Formula]] | None = None) -> list:
    """``node(f, the values of f's children)`` for every node f under the
    roots, children first; returns the roots' values."""
    value: dict[int, object] = {}  # id of a node -> its value
    for f, kids in _postorder(roots, children=children):
        value[id(f)] = node(f, [value[id(k)] for k in kids])
    return [value[id(root)] for root in roots]


def max_const_index(f: Formula) -> int:
    """Largest constant index used, or -1 if none."""
    return max((g.index for g, _ in _postorder([f]) if _head(g) in ("p", "not-p")), default=-1)


@dataclass(frozen=True, eq=True)
class MuSystem:
    """Simultaneous least fixpoint over variables ``vars`` with one body per
    variable.  The first variable is the one whose fixpoint component defines
    satisfaction.  ``bits=None`` stands for the smallest width that covers
    every constant used; construction replaces it by that width, so ``bits``
    is an int on every constructed system."""

    bits: int | None
    vars: tuple[str, ...]
    bodies: tuple[Formula, ...]
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.bits is not None and self.bits < 0:
            raise FormulaSyntaxError(f"bits must be >= 0, got {self.bits}")
        if not self.vars:
            raise FormulaSyntaxError("a system needs at least one variable")
        if len(self.vars) != len(self.bodies):
            raise FormulaSyntaxError("one body per variable required")
        if len(set(self.vars)) != len(self.vars):
            raise FormulaSyntaxError("duplicate variable name")
        declared = set(self.vars)
        # one walk over all bodies: a node shared with an earlier body is not
        # visited again, and whatever it holds was checked at that body
        seen: set[int] = set()
        top = -1
        for x, body in zip(self.vars, self.bodies):
            loose: set[str] = set()
            body_top = -1
            for f, _ in _postorder([body], seen):
                cls = type(f)
                if cls is Var:
                    if f.name not in declared:
                        loose.add(f.name)
                elif cls is Const or cls is NegConst:
                    body_top = max(body_top, f.index)
            if loose:
                raise FormulaSyntaxError(f"unknown variable {sorted(loose)[0]!r} in body of {x!r}")
            if self.bits is not None and body_top >= self.bits:
                raise FormulaSyntaxError(
                    f"constant index {body_top} out of range for {self.bits}-bit labels (body of {x!r})"
                )
            top = max(top, body_top)
        if self.bits is None:
            object.__setattr__(self, "bits", top + 1)


Valuation = Mapping[str, AbstractSet[str]]


# ---------------------------------------------------------------------------
# s-expression format

_TOKEN = re.compile(r"\(|\)|[^\s()]+")


def _lex(text: str) -> list[str]:
    return _TOKEN.findall(text)


def _read(tokens: list[str], pos: int) -> tuple[object, int]:
    if pos >= len(tokens):
        raise FormulaSyntaxError("unexpected end of input")
    tok = tokens[pos]
    if tok == "(":
        items = []
        pos += 1
        while True:
            if pos >= len(tokens):
                raise FormulaSyntaxError("unbalanced '('")
            if tokens[pos] == ")":
                return items, pos + 1
            item, pos = _read(tokens, pos)
            items.append(item)
    if tok == ")":
        raise FormulaSyntaxError("unbalanced ')'")
    return tok, pos + 1


def _formula_from_sexp(node: object, make: _Interner) -> Formula:
    if node in ("true", "false"):
        return make(_CLASS_OF_HEAD[node])
    if isinstance(node, str):
        raise FormulaSyntaxError(f"bare atom {node!r}; did you mean (var {node})?")
    if not isinstance(node, list) or not node:
        raise FormulaSyntaxError(f"malformed formula {node!r}")
    head = node[0]
    args = node[1:]
    if head in ("p", "not-p"):
        if len(args) != 1 or not isinstance(args[0], str) or not (args[0].isascii() and args[0].isdigit()):
            raise FormulaSyntaxError(f"({head} <int>) expected, got {node!r}")
        return make(_CLASS_OF_HEAD[head], int(args[0]))
    if head == "var":
        if len(args) != 1 or not isinstance(args[0], str):
            raise FormulaSyntaxError(f"(var NAME) expected, got {node!r}")
        return make(Var, args[0])
    if head in ("or", "and"):
        if len(args) < 2:
            raise FormulaSyntaxError(f"({head} ...) needs at least two arguments")
        # n-ary input desugars left-associatively
        return make.chain(_CLASS_OF_HEAD[head], [_formula_from_sexp(a, make) for a in args])
    if head in ("dia", "box"):
        if len(args) != 1:
            raise FormulaSyntaxError(f"({head} <f>) takes exactly one argument")
        return make(_CLASS_OF_HEAD[head], _formula_from_sexp(args[0], make))
    raise FormulaSyntaxError(f"unknown operator {head!r}")


def parse_formula(text: str, bits: int | None = None) -> MuSystem:
    """Parse ``(mu ((NAME <f>) ...))``; the first listed variable is the
    satisfaction component.  ``bits`` defaults to the smallest width that
    covers every constant used.  The bodies are hash-consed (``_Interner``,
    one table per call): each structurally distinct subterm is one object,
    so walks over the result cost O(distinct subterms)."""
    try:
        return _parse_formula(text, bits)
    except RecursionError:
        raise FormulaSyntaxError("formula nested too deeply") from None


def _parse_formula(text: str, bits: int | None) -> MuSystem:
    tokens = _lex(text)
    sexp, pos = _read(tokens, 0)
    if pos != len(tokens):
        raise FormulaSyntaxError(f"trailing input after formula: {tokens[pos]!r}")
    if not (isinstance(sexp, list) and len(sexp) == 2 and sexp[0] == "mu" and isinstance(sexp[1], list)):
        raise FormulaSyntaxError("expected (mu ((NAME <f>) ...))")
    names: list[str] = []
    bodies: list[Formula] = []
    make = _Interner()
    for entry in sexp[1]:
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)):
            raise FormulaSyntaxError(f"expected (NAME <f>) pair, got {entry!r}")
        names.append(entry[0])
        bodies.append(_formula_from_sexp(entry[1], make))
    return MuSystem(bits=bits, vars=tuple(names), bodies=tuple(bodies))


def _print(f: Formula, kids: list[str]) -> str:
    """f's text given its children's texts."""
    # a leaf's words after its head are its fields: (p 3), (var X), true
    words = kids or [str(v) for v in vars(f).values()]
    return f"({_head(f)} {' '.join(words)})" if words else _head(f)


def format_formula(sys: MuSystem) -> str:
    """Render a system back to the s-expression format (round-trips through
    parse_formula).  Each body is printed as a tree: a subterm occurs in the
    text as often as it occurs in the body; ``share`` names repeated ones."""
    entries = "\n  ".join(f"({x} {b})" for x, b in zip(sys.vars, _fold(sys.bodies, _print)))
    return f"(mu (\n  {entries}\n))\n"


def share(sys: MuSystem) -> MuSystem:
    """An equivalent system that writes each repeated subterm once.

    A compound subterm with two or more parents (a body counts as the parent
    of its root) whose printed form is longer than a reference to it is
    named: it becomes the body of a fresh variable, and every occurrence
    becomes ``(var S<k>)``.  Naming ``S = t`` and writing ``S`` for ``t``
    leaves the least solution unchanged (Bekic's lemma), and the compiled
    kernel inlines such a variable again, so the plan is the one of the
    unshared system.  Subterms are told apart by structure (value
    numbering), not by object, so the result does not depend on what the
    input shares.  Fresh names skip the declared ones, and the fresh
    variables follow the declared ones in the order the walk finishes them."""
    # value numbering: a node's number is that of its class with its leaf
    # field or its children's numbers, so equal subterms share one number
    # whatever the input shares; the first node with a number stands for it
    numbers: dict[tuple, int] = {}
    number: dict[int, int] = {}  # id of a node -> its number
    built: list[tuple[Formula, Sequence[Formula], list[int]]] = []  # per number, children first
    parents: list[int] = []
    for f, kids in _postorder(sys.bodies):
        nums = [number[id(k)] for k in kids]
        key = (type(f), *nums) if kids else (type(f), *vars(f).values())
        n = numbers.get(key)
        if n is None:
            n = numbers[key] = len(built)
            built.append((f, kids, nums))
            parents.append(0)
            for k in nums:
                parents[k] += 1
        number[id(f)] = n
    for body in sys.bodies:
        parents[number[id(body)]] += 1

    declared = set(sys.vars)
    names: list[str] = []
    bodies: list[Formula] = []
    out: list[Formula] = []  # per number: the node as written
    size: list[int] = []  # per number: the length of its text
    counter = 0
    for n, (f, kids, nums) in enumerate(built):
        if not kids:
            out.append(f)
            size.append(len(_print(f, [])))
            continue
        parts = [out[k] for k in nums]
        node = f if all(map(is_, parts, kids)) else type(f)(*parts)
        length = len(_head(f)) + 2 + sum([size[k] for k in nums]) + len(nums)  # (head a b)
        if parents[n] > 1:
            while f"S{counter}" in declared:
                counter += 1
            ref = f"(var S{counter})"
            if length > len(ref):
                names.append(f"S{counter}")
                bodies.append(node)
                node, length = Var(names[-1]), len(ref)
                counter += 1
        out.append(node)
        size.append(length)
    return MuSystem(bits=sys.bits, vars=(*sys.vars, *names),
                    bodies=(*(out[number[id(b)]] for b in sys.bodies), *bodies))


# ---------------------------------------------------------------------------
# semantics

class _Evaluator:
    """Bitmask-based evaluator over a fixed digraph: node sets are ints with
    bit i standing for the i-th node."""

    def __init__(self, g: Digraph):
        self.g = g
        self.index = {v: i for i, v in enumerate(g.nodes)}
        self.full = (1 << len(g.nodes)) - 1
        self.in_masks = [0] * len(g.nodes)
        for u, v in g.edges:
            self.in_masks[self.index[v]] |= 1 << self.index[u]
        self.const_masks = [
            sum(1 << i for i, v in enumerate(g.nodes) if g.labels[v][b] == "1")
            for b in range(g.bits)
        ]

    def to_set(self, mask: int) -> frozenset[str]:
        return frozenset(v for i, v in enumerate(self.g.nodes) if mask >> i & 1)

    def to_mask(self, nodes: AbstractSet[str]) -> int:
        return sum(1 << self.index[v] for v in nodes)

    def eval(self, f: Formula, val: Mapping[str, int]) -> int:
        if isinstance(f, FalseF):
            return 0
        if isinstance(f, TrueF):
            return self.full
        if isinstance(f, Const):
            return self.const_masks[f.index]
        if isinstance(f, NegConst):
            return self.full & ~self.const_masks[f.index]
        if isinstance(f, Var):
            if f.name not in val:
                raise KeyError(f"valuation missing variable {f.name!r}")
            return val[f.name]
        if isinstance(f, Or):
            return self.eval(f.left, val) | self.eval(f.right, val)
        if isinstance(f, And):
            return self.eval(f.left, val) & self.eval(f.right, val)
        if isinstance(f, Dia):
            s = self.eval(f.inner, val)
            return sum(1 << i for i, m in enumerate(self.in_masks) if m & s)
        if isinstance(f, Box):
            s = self.eval(f.inner, val)
            return sum(1 << i for i, m in enumerate(self.in_masks) if m & ~s == 0)
        raise TypeError(f"not a formula: {f!r}")


def eval_modal(f: Formula, g: Digraph, valuation: Valuation) -> frozenset[str]:
    """Set of nodes of g at which f holds, reading variables from ``valuation``."""
    if max_const_index(f) >= g.bits:
        raise BitWidthMismatch(f"constant index {max_const_index(f)} out of range for {g.bits}-bit graph")
    ev = _Evaluator(g)
    masks = {x: ev.to_mask(s) for x, s in valuation.items()}
    return ev.to_set(ev.eval(f, masks))


def apply_once(sys: MuSystem, g: Digraph, valuation: Valuation) -> dict[str, frozenset[str]]:
    """One simultaneous application of the system's operator: every variable
    is reassigned the value of its body under ``valuation``."""
    if sys.bits != g.bits:
        raise BitWidthMismatch(f"system is {sys.bits}-bit, graph is {g.bits}-bit")
    ev = _Evaluator(g)
    masks = {x: ev.to_mask(valuation[x]) for x in sys.vars}
    return {x: ev.to_set(ev.eval(b, masks)) for x, b in zip(sys.vars, sys.bodies)}


def _jacobi(sys: MuSystem, g: Digraph) -> Iterator[tuple[_Evaluator, dict[str, int]]]:
    """The approximant chain as masks, from the all-empty valuation up to and
    including the least fixpoint, by simultaneous (Jacobi) iteration.  The
    k-th valuation follows the k-th operator application, which never
    exceeds (number of variables) * |V| + 1."""
    if sys.bits != g.bits:
        raise BitWidthMismatch(f"system is {sys.bits}-bit, graph is {g.bits}-bit")
    ev = _Evaluator(g)
    bound = len(sys.vars) * len(g.nodes) + 1
    val = {x: 0 for x in sys.vars}
    for applications in itertools.count(1):
        yield ev, val
        new = {x: ev.eval(b, val) for x, b in zip(sys.vars, sys.bodies)}
        if new == val:
            return
        if applications > bound:
            raise AssertionError("fixpoint iteration exceeded its theoretical bound")
        val = new


def approximants(sys: MuSystem, g: Digraph) -> Iterator[dict[str, frozenset[str]]]:
    """Yield the approximant chain from the all-empty valuation up to and
    including the least fixpoint (the first repeated valuation is not
    re-yielded)."""
    for ev, val in _jacobi(sys, g):
        yield {x: ev.to_set(m) for x, m in val.items()}


def lfp_iterations(sys: MuSystem, g: Digraph) -> tuple[dict[str, frozenset[str]], int]:
    """Least fixpoint by simultaneous (Jacobi) iteration from the all-empty
    valuation.  Returns the fixpoint and the number of operator applications,
    one per approximant, which never exceeds (number of variables) * |V| + 1."""
    applications = 0
    for ev, val in _jacobi(sys, g):
        applications += 1
    return {x: ev.to_set(m) for x, m in val.items()}, applications


# ---------------------------------------------------------------------------
# compiled kernel

_OR, _AND, _DIA, _BOX = range(4)
_OPS = {"or": _OR, "and": _AND, "dia": _DIA, "box": _BOX}


@dataclass(frozen=True)
class _Stage:
    """One strongly connected component of the dependencies of the variables
    the kernel keeps (every kept variable lies on a cycle, so every such
    stage is iterated until stable).

    ``members`` are variable positions and ``bodies`` the slots of their
    bodies; ``ops`` are ``(code, slot, left, right)`` for every compound slot
    whose deepest variable lies in this component, children first.  The
    leading stage of a plan has no members, so it is run once, and holds the
    variable-free ops."""

    members: tuple[int, ...]
    bodies: tuple[int, ...]
    ops: tuple[tuple[int, int, int, int], ...]


@dataclass(frozen=True)
class _Plan:
    """A system compiled once: every variable no cycle needs is inlined
    (``_inlined``), every distinct subterm of the result is one slot, and the
    stages come in dependency order, so each component is solved after the
    components it reads (Bekic's lemma; without alternation the least
    fixpoint can be taken one component at a time).  ``var_slots`` holds
    every variable's slot: a kept variable's own, an inlined one's body."""

    size: int
    leaves: tuple[tuple[int, str, int], ...]  # (slot, "true" | "false" | "p" | "not-p", bit)
    var_slots: tuple[int, ...]
    stages: tuple[_Stage, ...]


def _inlined(sys: MuSystem) -> int:
    """The variables the kernel substitutes away, as a bitmask over positions.

    Gauss elimination on the dependency masks: the variables are taken in
    reverse declaration order, and one whose body, after the substitutions
    already made, does not mention it is substituted into every body that
    does.  By Bekic's lemma the least solution is unchanged, and each kept
    variable mentions itself, so it lies on a cycle of the kept ones."""
    position = {x: i for i, x in enumerate(sys.vars)}
    under: dict[int, int] = {}  # id of a node -> the variables it mentions
    for f, kids in _postorder(sys.bodies):
        mask = 1 << position[f.name] if type(f) is Var else 0
        for k in kids:
            mask |= under[id(k)]
        under[id(f)] = mask
    deps = [under[id(b)] for b in sys.bodies]
    readers = [0] * len(deps)  # readers[j]: the bodies that mention variable j
    for k, mask in enumerate(deps):
        for j in _bits(mask):
            readers[j] |= 1 << k
    inlined = 0
    for i in reversed(range(len(deps))):
        if deps[i] >> i & 1:
            continue
        inlined |= 1 << i
        for k in _bits(readers[i]):
            deps[k] = deps[k] & ~(1 << i) | deps[i]
        for j in _bits(deps[i]):
            readers[j] |= readers[i]
    return inlined


def _compile(sys: MuSystem) -> _Plan:
    position = {x: i for i, x in enumerate(sys.vars)}
    inlined = _inlined(sys)
    keys: dict[tuple, int] = {}
    nodes: list[tuple] = []
    var_masks: list[int] = []  # kept variable positions each slot mentions, as a bitmask

    def intern(key: tuple, mask: int) -> int:
        if key not in keys:
            keys[key] = len(nodes)
            nodes.append(key)
            var_masks.append(mask)
        return keys[key]

    # an inlined variable stands over its body, compiled where it is first read
    expand = {x: (b,) for i, (x, b) in enumerate(zip(sys.vars, sys.bodies)) if inlined >> i & 1}

    def children(f: Formula) -> Sequence[Formula]:
        return expand.get(f.name, ()) if type(f) is Var else _CHILDREN[type(f)](f)

    def node_slot(f: Formula, args: list[int]) -> int:
        head = _head(f)
        if head in _OPS:
            args.sort()  # or/and are keyed with sorted children
            if len(args) == 2 and args[0] == args[1]:
                return args[0]
            return intern((_OPS[head], *args), var_masks[args[0]] | var_masks[args[-1]])
        if head == "var":
            return args[0] if args else intern(("var", position[f.name]), 1 << position[f.name])
        return intern((head, f.index if head in ("p", "not-p") else 0), 0)

    n = len(sys.vars)
    bodies = _fold(sys.bodies, node_slot, children)
    kept = [i for i in range(n) if not inlined >> i & 1]
    var_slots = tuple(bodies[i] if inlined >> i & 1 else intern(("var", i), 1 << i) for i in range(n))

    # transitive dependencies of the kept variables (Warshall over bitmasks);
    # each reaches itself, so a component is a set of variables with equal
    # reach sets, and a component's reach set strictly contains that of every
    # component it reads
    reach = {i: var_masks[bodies[i]] for i in kept}
    for k in kept:
        for i in kept:
            if reach[i] >> k & 1:
                reach[i] |= reach[k]
    component: dict[int, int] = {}
    groups: list[tuple[int, ...]] = []
    for i in sorted(kept, key=lambda i: (reach[i].bit_count(), i)):
        if i not in component:
            members = tuple(j for j in kept if reach[j] == reach[i])
            for j in members:
                component[j] = len(groups)
            groups.append(members)

    stage_ops: list[list[tuple[int, int, int, int]]] = [[] for _ in range(len(groups) + 1)]
    depth = []  # 0 for variable-free slots, else 1 + the deepest component mentioned
    for slot, key in enumerate(nodes):
        if key[0] == "var":
            depth.append(1 + component[key[1]])
        elif isinstance(key[0], int):
            depth.append(max(depth[c] for c in key[1:]))
            stage_ops[depth[slot]].append((key[0], slot, key[1], key[-1]))
        else:
            depth.append(0)
    stages = [_Stage((), (), tuple(stage_ops[0]))]
    for c, members in enumerate(groups):
        stages.append(_Stage(
            members=members,
            bodies=tuple(bodies[j] for j in members),
            ops=tuple(stage_ops[c + 1]),
        ))
    return _Plan(
        size=len(nodes),
        leaves=tuple((slot, key[0], key[1]) for slot, key in enumerate(nodes)
                     if key[0] in ("true", "false", "p", "not-p")),
        var_slots=var_slots,
        stages=tuple(stages),
    )


def _solve(plan: _Plan, domain: Domain) -> list[int]:
    """Slot values of the least fixpoint on every digraph of the domain at
    once, as domain node sets."""
    full, dia = domain.full, domain.dia
    vals = [0] * plan.size
    for slot, kind, bit in plan.leaves:
        if kind == "true":
            vals[slot] = full
        elif kind == "p":
            vals[slot] = domain.leaves[bit]
        elif kind == "not-p":
            vals[slot] = full ^ domain.leaves[bit]

    def run(ops: tuple[tuple[int, int, int, int], ...]) -> None:
        for code, dst, a, b in ops:
            if code == _OR:
                vals[dst] = vals[a] | vals[b]
            elif code == _AND:
                vals[dst] = vals[a] & vals[b]
            elif code == _DIA:
                vals[dst] = dia(vals[a])
            else:
                vals[dst] = full ^ dia(full ^ vals[a])

    for stage in plan.stages:
        if not stage.members:
            run(stage.ops)
            continue
        slots = [plan.var_slots[j] for j in stage.members]
        while True:
            run(stage.ops)
            new = [vals[body] for body in stage.bodies]
            if all(vals[slot] == m for slot, m in zip(slots, new)):
                break
            for slot, m in zip(slots, new):
                vals[slot] = m
    return vals


def _plan(sys: MuSystem) -> _Plan:
    """The system's compiled plan, built on first use and kept on it."""
    plan = sys._cache.get("plan")
    if plan is None:
        plan = sys._cache["plan"] = _compile(sys)
    return plan


def holds_on(sys: MuSystem, domain: Domain) -> int:
    """The domain nodes in the system's first fixpoint component."""
    plan = _plan(sys)
    return _solve(plan, domain)[plan.var_slots[0]]


def lfp(sys: MuSystem, g: Digraph) -> dict[str, frozenset[str]]:
    """Least fixpoint valuation of the system on g.

    Runs the system's compiled plan on g's W = 1 domain: shared subterms
    are evaluated once per round, non-recursive components once, and
    recursive components are iterated until stable.  ``lfp_iterations``
    computes the same fixpoint by Jacobi iteration."""
    if sys.bits != g.bits:
        raise BitWidthMismatch(f"system is {sys.bits}-bit, graph is {g.bits}-bit")
    plan = _plan(sys)
    vals = _solve(plan, Domain.of_digraph(g))
    sets = {vals[slot]: None for slot in plan.var_slots}  # variables often share a value
    for mask in sets:
        sets[mask] = node_set(g, mask)
    return {x: sets[vals[slot]] for x, slot in zip(sys.vars, plan.var_slots)}


def satisfies(sys: MuSystem, p: PointedDigraph) -> bool:
    """True iff the point lands in the first fixpoint component."""
    if sys.bits != p.graph.bits:
        raise BitWidthMismatch(f"system is {sys.bits}-bit, graph is {p.graph.bits}-bit")
    return p.point in lfp(sys, p.graph)[sys.vars[0]]
