"""Seeded random builders for graphs, automata and fixpoint systems, plus the
hypothesis strategies wrapping them."""

from __future__ import annotations

import itertools
import random

from hypothesis import strategies as st

from automu.automata import (
    ELSE,
    AndGuard,
    Automaton,
    NotGuard,
    OrGuard,
    SubsetEq,
    SupsetEq,
    TransitionRule,
)
from automu.graphs import Digraph, PointedDigraph, random_digraph
from automu.logic import (
    And,
    Box,
    Const,
    Dia,
    FalseF,
    MuSystem,
    NegConst,
    Or,
    TrueF,
    Var,
)


def make_graph(rng: random.Random, max_nodes: int = 4, bits: int = 1) -> Digraph:
    return random_digraph(rng, max_nodes, bits).graph


def make_pointed(rng: random.Random, max_nodes: int = 4, bits: int = 1) -> PointedDigraph:
    return random_digraph(rng, max_nodes, bits)


def make_guard(rng: random.Random, states: tuple[str, ...], depth: int = 2):
    def subset():
        return frozenset(s for s in states if rng.random() < 0.5)

    roll = rng.random()
    if depth == 0 or roll < 0.35:
        return SubsetEq(subset())
    if roll < 0.7:
        return SupsetEq(subset())
    if roll < 0.8:
        return NotGuard(make_guard(rng, states, depth - 1))
    if roll < 0.9:
        return AndGuard((make_guard(rng, states, depth - 1), make_guard(rng, states, depth - 1)))
    return OrGuard((make_guard(rng, states, depth - 1), make_guard(rng, states, depth - 1)))


def make_automaton(
    rng: random.Random,
    max_states: int = 4,
    bits: int = 1,
    quasi_acyclic: bool = False,
    guard_depth: int = 2,
) -> Automaton:
    """Random automaton; with ``quasi_acyclic`` every rule targets the source
    state or a later one, which forbids every non-trivial cycle.  Guards nest
    combinators at most ``guard_depth`` deep."""
    n = rng.randint(1, max_states)
    states = tuple(f"s{i}" for i in range(n))

    def target(i: int) -> str:
        lo = i if quasi_acyclic else 0
        return states[rng.randint(lo, n - 1)]

    rules = {}
    for i, q in enumerate(states):
        guarded = [
            TransitionRule(make_guard(rng, states, guard_depth), target(i))
            for _ in range(rng.randint(0, 3))
        ]
        rules[q] = tuple(guarded) + (TransitionRule(ELSE, target(i)),)
    words = ["".join(w) for w in itertools.product("01", repeat=bits)]
    return Automaton(
        bits=bits,
        states=states,
        init={w: states[rng.randint(0, n - 1)] for w in words},
        rules=rules,
        accepting=frozenset(s for s in states if rng.random() < 0.4),
    )


def make_formula(rng: random.Random, bits: int, var_names: tuple[str, ...], depth: int = 3):
    atoms = [TrueF(), FalseF()]
    atoms += [Const(i) for i in range(bits)]
    atoms += [NegConst(i) for i in range(bits)]
    atoms += [Var(x) for x in var_names]
    if depth == 0 or rng.random() < 0.3:
        return atoms[rng.randrange(len(atoms))]
    roll = rng.random()
    if roll < 0.3:
        return Or(make_formula(rng, bits, var_names, depth - 1), make_formula(rng, bits, var_names, depth - 1))
    if roll < 0.6:
        return And(make_formula(rng, bits, var_names, depth - 1), make_formula(rng, bits, var_names, depth - 1))
    if roll < 0.8:
        return Dia(make_formula(rng, bits, var_names, depth - 1))
    return Box(make_formula(rng, bits, var_names, depth - 1))


def make_system(rng: random.Random, bits: int = 1, max_vars: int = 3, depth: int = 3) -> MuSystem:
    k = rng.randint(1, max_vars)
    names = tuple(f"X{i}" for i in range(k))
    return MuSystem(
        bits=bits,
        vars=names,
        bodies=tuple(make_formula(rng, bits, names, depth) for _ in names),
    )


# hypothesis strategies: draw a seed, build deterministically from it

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def graphs(draw, max_nodes: int = 4, bits: int = 1):
    return make_graph(random.Random(draw(seeds)), max_nodes, bits)


@st.composite
def pointed_digraphs(draw, max_nodes: int = 4, bits: int = 1):
    return make_pointed(random.Random(draw(seeds)), max_nodes, bits)


@st.composite
def automata(draw, max_states: int = 4, bits: int = 1, quasi_acyclic: bool = False, guard_depth: int = 2):
    return make_automaton(random.Random(draw(seeds)), max_states, bits, quasi_acyclic, guard_depth)


@st.composite
def systems(draw, bits: int = 1, max_vars: int = 3, depth: int = 3):
    return make_system(random.Random(draw(seeds)), bits, max_vars, depth)


@st.composite
def state_traces(draw, states: tuple[str, ...] = ("a", "b", "c", "d")):
    """Nonempty sequences with no two consecutive elements equal (step
    realizability is not promised; use for the trace operator laws only)."""
    first = draw(st.sampled_from(states))
    out = [first]
    for step in draw(st.lists(st.sampled_from(states), max_size=6)):
        if step != out[-1]:
            out.append(step)
    return tuple(out)
