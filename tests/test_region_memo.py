"""The one region memo, ``Automaton.region_memo``: what the state diagram,
the certificate and the synchronous kernel answer does not depend on which
of them fills it first, and no region is derived twice."""

import collections
import random
from unittest import mock

from hypothesis import given, settings

from automu.automata import Automaton, automaton_to_json, parse_automaton
from automu.graphs import Domain, slice_width
from automu.harness import equiv_exhaustive
from automu.logic import parse_formula
from automu.runtime import sync_accepting_mask
from automu.transform import formula_to_automaton
from automu.zoo import safe_one_formula
from strategies import automata, make_system, seeds
from test_harness import block_digraph
from test_runtime import reference_front_monotone, sync_step_accepting_nodes
from test_transform import SIX_VARIABLES


def blocks(bits: int) -> list[tuple[int, int]]:
    """Every block of the enumeration up to 3 nodes."""
    return [(m, block) for m in (1, 2, 3) for block in range(2 ** (m * m + bits * m) // slice_width(m, bits))]


def answers(a: Automaton, subset: list[str], kernel_first: bool) -> dict:
    """The state diagrams from every state, the initialization states and
    ``subset`` with the trace bound, the certificate, and the synchronous
    kernel on every block up to 3 nodes: the diagrams first or the kernel
    first."""
    parts = {
        "diagrams": lambda: [a.state_diagram(), a.state_diagram(a.init.values()), a.state_diagram(subset),
                             a.trace_length_bound()],
        "monotone": a.is_monotone,
        "kernel": lambda: [sync_accepting_mask(a, Domain.of_block(m, a.bits, block)) for m, block in blocks(a.bits)],
    }
    order = reversed(parts) if kernel_first else parts
    return {name: parts[name]() for name in order}


def assert_order_independent(a: Automaton, rng: random.Random) -> None:
    """Both orders on two fresh parses give the same answers, and those
    answers are the references'."""
    subset = [q for q in a.states if rng.random() < 0.5]
    text = automaton_to_json(a)
    forward = answers(parse_automaton(text), subset, kernel_first=False)
    assert answers(parse_automaton(text), subset, kernel_first=True) == forward
    b = parse_automaton(text)
    if len(b.states) <= 12:  # the reference scan lists 2^|Q| neighborhoods
        assert (forward["diagrams"][-1] is not None) == b.is_quasi_acyclic()
    assert forward["monotone"] == reference_front_monotone(b)
    for (m, block), got in zip(blocks(b.bits), forward["kernel"]):
        width = slice_width(m, b.bits)
        for j in range(width) if width <= 64 else rng.sample(range(width), 16):
            g = block_digraph(m, b.bits, block, j)
            assert {v for i, v in enumerate(g.nodes) if got >> i * width + j & 1} == sync_step_accepting_nodes(b, g)


@settings(max_examples=40)
@given(automata(max_states=6, quasi_acyclic=True), seeds)
def test_order_independence_on_quasi_acyclic_automata(a, seed):
    assert_order_independent(a, random.Random(seed))


def test_order_independence_on_compile_ups():
    for s in range(60):
        assert_order_independent(formula_to_automaton(make_system(random.Random(s), 1, 3, 3)), random.Random(s))


def test_no_region_is_derived_twice():
    walk = Automaton._region
    for formula in (safe_one_formula(), parse_formula(SIX_VARIABLES, bits=1)):
        a = formula_to_automaton(formula)
        derived = collections.Counter()

        def counted(self, q, inn, free):
            assert self is a
            derived[q, inn, free] += 1
            return walk(self, q, inn, free)

        with mock.patch.object(Automaton, "_region", counted):
            a.state_diagram(a.init.values())
            a.is_monotone()
            assert equiv_exhaustive(a, formula, 3).equivalent
        assert derived and set(derived.values()) == {1}
        assert derived.keys() == a.region_memo.keys()
