"""The one region memo, ``Automaton.region_memo``: what the state diagram,
the certificate and the synchronous kernel answer does not depend on which
of them fills it first, and no region is derived twice, by them or by
``step`` in the run engine and compile-down.  Also the one walk of a
state's region tree cut to a set, ``Automaton._cubes``, which the state
diagram and the certificate read."""

import collections
import random
from pathlib import Path
from unittest import mock

from hypothesis import given, settings

from automu import automata as automata_module
from automu.automata import Automaton, AutomatonTooLarge, automaton_to_json, parse_automaton
from automu.graphs import Domain, slice_width
from automu.harness import equiv_exhaustive
from automu.logic import parse_formula
from automu.runtime import async_run, fuzz_consistency, sample_timing, sync_accepting_mask
from automu.transform import automaton_to_formula, formula_to_automaton
from automu.zoo import chain_graph, safe_one_formula
from strategies import automata, make_system, seeds
from test_harness import block_digraph
from test_runtime import engine_subjects, reference_front_monotone, sync_step_accepting_nodes
from test_transform import SIX_VARIABLES

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


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
    # the sync probe is not certified, so its fuzz runs the explorer and the engine
    walk = Automaton._region
    subjects = [(formula_to_automaton(f), f) for f in (safe_one_formula(), parse_formula(SIX_VARIABLES, bits=1))]
    subjects.append((parse_automaton((SAMPLES / "sync_probe.json").read_text()), None))
    for a, formula in subjects:
        derived = collections.Counter()

        def counted(self, q, inn, free):
            assert self is a
            derived[q, inn, free] += 1
            return walk(self, q, inn, free)

        with mock.patch.object(Automaton, "_region", counted):
            a.state_diagram(a.init.values())
            a.is_monotone()
            if formula is not None:
                assert equiv_exhaustive(a, formula, 3).equivalent
            fuzz_consistency(a, max_nodes=3, graphs=4, timings_per_graph=3, seed=1)
            g = chain_graph()
            async_run(a, g, sample_timing(g, steps=6, seed=3))
            try:
                automaton_to_formula(a)
            except AutomatonTooLarge:  # the closure guard refuses the six-variable compile-up
                pass
        assert derived and set(derived.values()) == {1}
        assert derived.keys() == a.region_memo.keys()


def assert_cubes_partition(a: Automaton, rng: random.Random) -> None:
    """For every state q, the cubes of q's unpruned walk cut to a set W of
    at most 10 states (R from initialization when that small, then random
    ones) hold every neighborhood N drawn from W exactly once, and the
    target of the cube that holds N is ``step(q, N)``."""
    reach = list(a.state_diagram(a.init.values()))
    withins = [reach] if len(reach) <= 10 else []
    withins += [rng.sample(a.states, min(len(a.states), rng.randint(0, 10))) for _ in range(2)]
    for within in map(a.mask, withins):
        for q in range(len(a.states)):
            targets = {}
            for inn, free, target in a._cubes(q, within):
                assert not (inn | free) & ~within and not inn & free
                sub = free
                while True:  # every subset of free, free itself first
                    assert inn | sub not in targets
                    targets[inn | sub] = target
                    if not sub:
                        break
                    sub = sub - 1 & free
            assert len(targets) == 1 << bin(within).count("1")
            assert all(a.step(q, n) == t for n, t in targets.items())


def test_cubes_partition_on_the_engine_subjects():
    for a in engine_subjects().values():
        assert_cubes_partition(a, random.Random(0))


@settings(max_examples=40)
@given(automata(max_states=10), seeds)
def test_cubes_partition_on_random_automata(a, seed):
    assert_cubes_partition(a, random.Random(seed))


def test_cubes_partition_on_compile_ups():
    for s in range(60):
        assert_cubes_partition(formula_to_automaton(make_system(random.Random(s), 1, 3, 3)), random.Random(s))


def test_a_certificate_walk_beyond_the_region_budget_certifies_nothing(monkeypatch):
    # at 2^4 regions the flagship's state diagram from initialization fits, and a walk of its certificate does not
    fuzz = dict(max_nodes=3, graphs=30, timings_per_graph=4, seed=2)
    a = parse_automaton((SAMPLES / "safe_one.json").read_text())
    assert a.is_monotone()
    want = fuzz_consistency(a, **fuzz)
    monkeypatch.setattr(automata_module, "SUBSET_ENUMERATION_GUARD", 4)
    a = parse_automaton((SAMPLES / "safe_one.json").read_text())
    assert len(a.state_diagram(a.init.values())) == 5
    assert not a.is_monotone()
    assert fuzz_consistency(a, **fuzz) == want
