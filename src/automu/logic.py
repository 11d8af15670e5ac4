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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import AbstractSet, Iterator, Mapping, Union

from .graphs import BitWidthMismatch, Digraph, PointedDigraph


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


def free_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, Var):
        return frozenset({f.name})
    if isinstance(f, (Or, And)):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, (Dia, Box)):
        return free_vars(f.inner)
    return frozenset()


def max_const_index(f: Formula) -> int:
    """Largest constant index used, or -1 if none."""
    if isinstance(f, (Const, NegConst)):
        return f.index
    if isinstance(f, (Or, And)):
        return max(max_const_index(f.left), max_const_index(f.right))
    if isinstance(f, (Dia, Box)):
        return max_const_index(f.inner)
    return -1


@dataclass(frozen=True, eq=True)
class MuSystem:
    """Simultaneous least fixpoint over variables ``vars`` with one body per
    variable.  The first variable is the one whose fixpoint component defines
    satisfaction."""

    bits: int
    vars: tuple[str, ...]
    bodies: tuple[Formula, ...]
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.vars:
            raise FormulaSyntaxError("a system needs at least one variable")
        if len(self.vars) != len(self.bodies):
            raise FormulaSyntaxError("one body per variable required")
        if len(set(self.vars)) != len(self.vars):
            raise FormulaSyntaxError("duplicate variable name")
        declared = set(self.vars)
        for x, body in zip(self.vars, self.bodies):
            loose = free_vars(body) - declared
            if loose:
                raise FormulaSyntaxError(f"unknown variable {sorted(loose)[0]!r} in body of {x!r}")
            top = max_const_index(body)
            if top >= self.bits:
                raise FormulaSyntaxError(
                    f"constant index {top} out of range for {self.bits}-bit labels (body of {x!r})"
                )

    def body_of(self, name: str) -> Formula:
        return self.bodies[self.vars.index(name)]


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


def _formula_from_sexp(node: object) -> Formula:
    if node == "true":
        return TrueF()
    if node == "false":
        return FalseF()
    if isinstance(node, str):
        raise FormulaSyntaxError(f"bare atom {node!r}; did you mean (var {node})?")
    if not isinstance(node, list) or not node:
        raise FormulaSyntaxError(f"malformed formula {node!r}")
    head = node[0]
    args = node[1:]
    if head in ("p", "not-p"):
        if len(args) != 1 or not isinstance(args[0], str) or not args[0].isdigit():
            raise FormulaSyntaxError(f"({head} <int>) expected, got {node!r}")
        idx = int(args[0])
        return Const(idx) if head == "p" else NegConst(idx)
    if head == "var":
        if len(args) != 1 or not isinstance(args[0], str):
            raise FormulaSyntaxError(f"(var NAME) expected, got {node!r}")
        return Var(args[0])
    if head in ("or", "and"):
        if len(args) < 2:
            raise FormulaSyntaxError(f"({head} ...) needs at least two arguments")
        parts = [_formula_from_sexp(a) for a in args]
        ctor = Or if head == "or" else And
        out = parts[0]
        for p in parts[1:]:  # n-ary input desugars left-associatively
            out = ctor(out, p)
        return out
    if head in ("dia", "box"):
        if len(args) != 1:
            raise FormulaSyntaxError(f"({head} <f>) takes exactly one argument")
        inner = _formula_from_sexp(args[0])
        return Dia(inner) if head == "dia" else Box(inner)
    raise FormulaSyntaxError(f"unknown operator {head!r}")


def parse_formula(text: str, bits: int | None = None) -> MuSystem:
    """Parse ``(mu ((NAME <f>) ...))``; the first listed variable is the
    satisfaction component.  ``bits`` defaults to the smallest width that
    covers every constant used."""
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
    for entry in sexp[1]:
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)):
            raise FormulaSyntaxError(f"expected (NAME <f>) pair, got {entry!r}")
        names.append(entry[0])
        bodies.append(_formula_from_sexp(entry[1]))
    if bits is None:
        bits = max((max_const_index(b) for b in bodies), default=-1) + 1
    return MuSystem(bits=bits, vars=tuple(names), bodies=tuple(bodies))


def format_formula(sys: MuSystem) -> str:
    """Render a system back to the s-expression format (round-trips through
    parse_formula)."""

    def fmt(f: Formula) -> str:
        if isinstance(f, TrueF):
            return "true"
        if isinstance(f, FalseF):
            return "false"
        if isinstance(f, Const):
            return f"(p {f.index})"
        if isinstance(f, NegConst):
            return f"(not-p {f.index})"
        if isinstance(f, Var):
            return f"(var {f.name})"
        if isinstance(f, Or):
            return f"(or {fmt(f.left)} {fmt(f.right)})"
        if isinstance(f, And):
            return f"(and {fmt(f.left)} {fmt(f.right)})"
        if isinstance(f, Dia):
            return f"(dia {fmt(f.inner)})"
        if isinstance(f, Box):
            return f"(box {fmt(f.inner)})"
        raise TypeError(f"not a formula: {f!r}")

    entries = "\n  ".join(f"({x} {fmt(b)})" for x, b in zip(sys.vars, sys.bodies))
    return f"(mu (\n  {entries}\n))\n"


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


def approximants(sys: MuSystem, g: Digraph) -> Iterator[dict[str, frozenset[str]]]:
    """Yield the approximant chain from the all-empty valuation up to and
    including the least fixpoint (the first repeated valuation is not
    re-yielded)."""
    if sys.bits != g.bits:
        raise BitWidthMismatch(f"system is {sys.bits}-bit, graph is {g.bits}-bit")
    ev = _Evaluator(g)
    val = {x: 0 for x in sys.vars}
    yield {x: ev.to_set(0) for x in sys.vars}
    while True:
        new = {x: ev.eval(b, val) for x, b in zip(sys.vars, sys.bodies)}
        if new == val:
            return
        val = new
        yield {x: ev.to_set(m) for x, m in val.items()}


def lfp_iterations(sys: MuSystem, g: Digraph) -> tuple[dict[str, frozenset[str]], int]:
    """Least fixpoint by simultaneous (Jacobi) iteration from the all-empty
    valuation.  Returns the fixpoint and the number of operator applications,
    which never exceeds (number of variables) * |V| + 1."""
    if sys.bits != g.bits:
        raise BitWidthMismatch(f"system is {sys.bits}-bit, graph is {g.bits}-bit")
    ev = _Evaluator(g)
    bound = len(sys.vars) * len(g.nodes) + 1
    val = {x: 0 for x in sys.vars}
    applications = 0
    while True:
        new = {x: ev.eval(b, val) for x, b in zip(sys.vars, sys.bodies)}
        applications += 1
        if new == val:
            break
        val = new
        if applications > bound:
            raise AssertionError("fixpoint iteration exceeded its theoretical bound")
    return {x: ev.to_set(m) for x, m in val.items()}, applications


# ---------------------------------------------------------------------------
# compiled kernel

_OR, _AND, _DIA, _BOX = range(4)


@dataclass(frozen=True)
class _Stage:
    """One strongly connected component of the variable dependencies.

    ``members`` are variable positions and ``bodies`` the slots of their
    bodies; ``ops`` are ``(code, slot, left, right)`` for every compound slot
    whose deepest variable lies in this component, children first.  The
    leading stage of a plan has no members and holds the variable-free ops."""

    members: tuple[int, ...]
    bodies: tuple[int, ...]
    recursive: bool
    ops: tuple[tuple[int, int, int, int], ...]


@dataclass(frozen=True)
class _Plan:
    """A system compiled once: every distinct subterm is one slot, and the
    stages come in dependency order, so each component is solved after the
    components it reads (Bekic's lemma; without alternation the least
    fixpoint can be taken one component at a time)."""

    size: int
    leaves: tuple[tuple[int, str, int], ...]  # (slot, "true" | "false" | "p" | "not-p", bit)
    var_slots: tuple[int, ...]
    stages: tuple[_Stage, ...]


def _compile(sys: MuSystem) -> _Plan:
    position = {x: i for i, x in enumerate(sys.vars)}
    keys: dict[tuple, int] = {}
    nodes: list[tuple] = []
    var_masks: list[int] = []  # variable positions each slot mentions, as a bitmask
    slot_of: dict[int, int] = {}  # id of a subformula of sys -> its slot

    def intern(key: tuple, mask: int) -> int:
        if key not in keys:
            keys[key] = len(nodes)
            nodes.append(key)
            var_masks.append(mask)
        return keys[key]

    def intern_tree(root: Formula) -> int:
        stack = [root]
        while stack:
            f = stack[-1]
            if id(f) in slot_of:
                stack.pop()
                continue
            kids = (f.left, f.right) if isinstance(f, (Or, And)) else (
                (f.inner,) if isinstance(f, (Dia, Box)) else ())
            todo = [k for k in kids if id(k) not in slot_of]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            args = [slot_of[id(k)] for k in kids]
            if isinstance(f, (Or, And)):
                a, b = sorted(args)
                slot = a if a == b else intern((_OR if isinstance(f, Or) else _AND, a, b),
                                               var_masks[a] | var_masks[b])
            elif isinstance(f, (Dia, Box)):
                slot = intern((_DIA if isinstance(f, Dia) else _BOX, args[0]), var_masks[args[0]])
            elif isinstance(f, Var):
                slot = intern(("var", position[f.name]), 1 << position[f.name])
            elif isinstance(f, (Const, NegConst)):
                slot = intern(("p" if isinstance(f, Const) else "not-p", f.index), 0)
            elif isinstance(f, (TrueF, FalseF)):
                slot = intern(("true" if isinstance(f, TrueF) else "false", 0), 0)
            else:
                raise TypeError(f"not a formula: {f!r}")
            slot_of[id(f)] = slot
        return slot_of[id(root)]

    n = len(sys.vars)
    bodies = [intern_tree(b) for b in sys.bodies]
    var_slots = tuple(intern(("var", i), 1 << i) for i in range(n))

    # transitive dependencies (Warshall over bitmasks); a component is the set
    # of variables that reach each other, and a component's closed dependency
    # set strictly contains that of every component it reads
    reach = [var_masks[b] for b in bodies]
    for k in range(n):
        for i in range(n):
            if reach[i] >> k & 1:
                reach[i] |= reach[k]
    closed = [reach[i] | 1 << i for i in range(n)]
    component = [-1] * n
    groups: list[tuple[int, ...]] = []
    for i in sorted(range(n), key=lambda i: (closed[i].bit_count(), i)):
        if component[i] < 0:
            members = tuple(j for j in range(n) if closed[j] == closed[i] and reach[i] >> j & 1) or (i,)
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
    stages = [_Stage((), (), False, tuple(stage_ops[0]))]
    for c, members in enumerate(groups):
        stages.append(_Stage(
            members=members,
            bodies=tuple(bodies[j] for j in members),
            recursive=bool(reach[members[0]] >> members[0] & 1),
            ops=tuple(stage_ops[c + 1]),
        ))
    return _Plan(
        size=len(nodes),
        leaves=tuple((slot, key[0], key[1]) for slot, key in enumerate(nodes)
                     if key[0] in ("true", "false", "p", "not-p")),
        var_slots=var_slots,
        stages=tuple(stages),
    )


def _solve(plan: _Plan, g: Digraph) -> list[int]:
    """Slot values of the least fixpoint on g, as node bitmasks."""
    index = {v: i for i, v in enumerate(g.nodes)}
    full = (1 << len(g.nodes)) - 1
    succ = [0] * len(g.nodes)
    for u, v in g.edges:
        succ[index[u]] |= 1 << index[v]
    image: dict[int, int] = {}  # node set -> nodes with an incoming neighbor in it

    def dia(s: int) -> int:
        out = image.get(s)
        if out is None:
            out, rest = 0, s
            while rest:
                low = rest & -rest
                out |= succ[low.bit_length() - 1]
                rest ^= low
            image[s] = out
        return out

    vals = [0] * plan.size
    for slot, kind, bit in plan.leaves:
        if kind == "true":
            vals[slot] = full
        elif kind in ("p", "not-p"):
            mask = sum(1 << i for i, v in enumerate(g.nodes) if g.labels[v][bit] == "1")
            vals[slot] = mask if kind == "p" else full ^ mask

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
        slots = [plan.var_slots[j] for j in stage.members]
        if not stage.recursive:
            for slot, body in zip(slots, stage.bodies):
                vals[slot] = vals[body]
            run(stage.ops)
            continue
        while True:
            run(stage.ops)
            new = [vals[body] for body in stage.bodies]
            if all(vals[slot] == m for slot, m in zip(slots, new)):
                break
            for slot, m in zip(slots, new):
                vals[slot] = m
    return vals


def lfp(sys: MuSystem, g: Digraph) -> dict[str, frozenset[str]]:
    """Least fixpoint valuation of the system on g.

    Runs the system's compiled plan (built on first use and kept on the
    system): shared subterms are evaluated once per round, non-recursive
    components once, and recursive components are iterated until stable.
    ``lfp_iterations`` computes the same fixpoint by Jacobi iteration."""
    if sys.bits != g.bits:
        raise BitWidthMismatch(f"system is {sys.bits}-bit, graph is {g.bits}-bit")
    plan = sys._cache.get("plan")
    if plan is None:
        plan = sys._cache["plan"] = _compile(sys)
    vals = _solve(plan, g)
    return {
        x: frozenset(v for i, v in enumerate(g.nodes) if vals[slot] >> i & 1)
        for x, slot in zip(sys.vars, plan.var_slots)
    }


def satisfies(sys: MuSystem, p: PointedDigraph) -> bool:
    """True iff the point lands in the first fixpoint component."""
    if sys.bits != p.graph.bits:
        raise BitWidthMismatch(f"system is {sys.bits}-bit, graph is {p.graph.bits}-bit")
    return p.point in lfp(sys, p.graph)[sys.vars[0]]
