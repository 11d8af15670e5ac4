"""Differential tests of the compiled fixpoint kernel (``lfp``) against the
Jacobi reference (``lfp_iterations``)."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from automu.automata import parse_automaton
from automu.graphs import Digraph, enumerate_digraphs
from automu.harness import equiv_exhaustive, equiv_sampled
from automu.logic import _compile, format_formula, lfp, lfp_iterations, parse_formula, share
from automu.transform import automaton_to_formula
from strategies import graphs, systems
from test_logic import compiled_texts, tree_parse

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

# the formulas the round-trip benchmark compiles and checks
BENCHMARK_FORMULAS = {
    "safe_one": (SAMPLES / "safe_one.sexp").read_text(),
    "reach_one": (SAMPLES / "reach_one.sexp").read_text(),
    "boxed_one": (SAMPLES / "boxed_one.sexp").read_text(),
    "two_and": "(mu ((X (or (and (p 0) (p 1)) (dia (var X))))))",
    "two_box": "(mu ((X (or (p 1) (and (p 0) (box (var X)))))))",
}


def assert_agrees_up_to_3_nodes(system):
    for g in enumerate_digraphs(3, system.bits):
        assert lfp(system, g) == lfp_iterations(system, g)[0], g


def chain(n: int, first_label: str = "1") -> Digraph:
    nodes = tuple(f"n{i}" for i in range(n))
    return Digraph(
        bits=1,
        nodes=nodes,
        labels={v: first_label if i == 0 else "0" for i, v in enumerate(nodes)},
        edges=frozenset(zip(nodes, nodes[1:])),
    )


@pytest.mark.parametrize("name", sorted(BENCHMARK_FORMULAS))
def test_benchmark_formulas_exhaustive(name):
    assert_agrees_up_to_3_nodes(parse_formula(BENCHMARK_FORMULAS[name]))


def test_compile_down_output_exhaustive():
    down = automaton_to_formula(parse_automaton((SAMPLES / "safe_one.json").read_text()))
    assert_agrees_up_to_3_nodes(down)


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=2).flatmap(
    lambda bits: st.tuples(systems(bits=bits, max_vars=4), graphs(max_nodes=5, bits=bits))))
def test_random_systems(case):
    system, g = case
    assert lfp(system, g) == lfp_iterations(system, g)[0]


def test_non_recursive_chain_runs_each_component_once():
    system = parse_formula(
        "(mu ((X0 (dia (var X1))) (X1 (box (var X2))) (X2 (p 0))))", bits=1)
    assert not any(stage.members for stage in _compile(system).stages)
    g = chain(3)
    assert lfp(system, g) == lfp_iterations(system, g)[0] == {
        "X2": frozenset({"n0"}),
        "X1": frozenset({"n0", "n1"}),
        "X0": frozenset({"n1", "n2"}),
    }


def test_self_loop_diamond_stays_empty():
    system = parse_formula("(mu ((X (dia (var X)))))", bits=1)
    cycle = Digraph(bits=1, nodes=("u", "v"), labels={"u": "1", "v": "0"},
                    edges=frozenset({("u", "v"), ("v", "u"), ("u", "u")}))
    assert [bool(stage.members) for stage in _compile(system).stages] == [False, True]
    assert lfp(system, cycle) == lfp_iterations(system, cycle)[0] == {"X": frozenset()}


def test_unreachable_variables_are_solved_too():
    # neither Y nor Z is read by X0; Z = box Z holds where every backward
    # path is finite
    system = parse_formula(
        "(mu ((X0 (p 0)) (Y (or (p 0) (dia (var Y)))) (Z (box (var Z)))))", bits=1)
    g = Digraph(bits=1, nodes=("a", "b", "c"), labels={"a": "1", "b": "0", "c": "0"},
                edges=frozenset({("a", "b"), ("c", "c")}))
    assert lfp(system, g) == lfp_iterations(system, g)[0] == {
        "X0": frozenset({"a"}),
        "Y": frozenset({"a", "b"}),
        "Z": frozenset({"a", "b"}),
    }


def test_shared_subterms_are_one_slot():
    shared = parse_formula("(mu ((X (or (dia (var Y)) (p 0))) (Y (and (dia (var Y)) (p 0)))))")
    apart = parse_formula("(mu ((X (or (dia (var Y)) (p 0))) (Y (and (box (var Y)) (p 0)))))")
    assert _compile(shared).size == _compile(apart).size - 1


def test_plan_is_kept_on_the_system():
    system = parse_formula(BENCHMARK_FORMULAS["reach_one"])
    lfp(system, chain(2))
    plan = system._cache["plan"]
    lfp(system, chain(3))
    assert system._cache["plan"] is plan


def test_sixty_node_chain():
    # a 2^60 table could not be built; the lazy image memo only holds the
    # node sets the fixpoint actually visits
    system = parse_formula(
        "(mu ((X (and (var R) (box (var W)))) (R (or (p 0) (dia (var R)))) (W (box (var W)))))",
        bits=1)
    g = chain(60)
    got = lfp(system, g)
    assert got == lfp_iterations(system, g)[0]
    assert got["X"] == frozenset(g.nodes)


# variable elimination: a variable whose body, after the substitutions
# already made, does not mention it is inlined, and lfp still reports it

def test_a_cycle_through_every_variable_keeps_one():
    system = parse_formula(
        "(mu ((X0 (dia (var X1))) (X1 (box (var X2))) (X2 (or (p 0) (dia (var X0))))))")
    assert [stage.members for stage in _compile(system).stages] == [(), (0,)]
    assert_agrees_up_to_3_nodes(system)


def test_a_chain_of_definitions_is_inlined():
    def chain_system(n):
        defs = " ".join(f"(X{i} (or (p 0) (dia (var X{i + 1}))))" for i in range(n))
        return parse_formula(f"(mu ({defs} (X{n} (box false))))", bits=1)

    system = chain_system(6)
    assert [stage.members for stage in _compile(system).stages] == [()]
    assert_agrees_up_to_3_nodes(system)
    # the inlining walk keeps its own stack, so a long chain is fine
    got = lfp(chain_system(3000), chain(3, first_label="0"))
    assert [got[f"X{i}"] for i in (3000, 2999, 2998, 2997, 0)] == [
        frozenset({"n0"}), frozenset({"n1"}), frozenset({"n2"}), frozenset(), frozenset()]


def test_a_fresh_variable_read_only_by_another():
    # (dia (p 0)) occurs twice, both times inside the repeated conjunction
    conj = "(and (dia (p 0)) (or (dia (p 0)) (box (var X0))))"
    shared = share(parse_formula(f"(mu ((X0 (or {conj} (dia {conj})))))"))
    assert format_formula(shared) == (
        "(mu (\n"
        "  (X0 (or (var S1) (dia (var S1))))\n"
        "  (S0 (dia (p 0)))\n"
        "  (S1 (and (var S0) (or (var S0) (box (var X0)))))\n"
        "))\n")
    assert [stage.members for stage in _compile(shared).stages] == [(), (0,)]
    assert_agrees_up_to_3_nodes(shared)


@pytest.mark.parametrize("name", ["down", "up-down"])
def test_shared_plan_is_the_unshared_one(name):
    system = parse_formula(compiled_texts()[name])
    plan, shared = _compile(system), _compile(share(system))
    assert (shared.size, shared.leaves, shared.stages) == (plan.size, plan.leaves, plan.stages)
    assert shared.var_slots[:len(system.vars)] == plan.var_slots


# the interned front end: a parse shares every repeated subterm, and the
# plan compiled from it is the one compiled from the reference reader's tree

@pytest.mark.parametrize("name", ["down", "up-down"])
def test_interned_plan_is_the_trees(name):
    text = compiled_texts()[name]
    assert _compile(parse_formula(text)) == _compile(tree_parse(text))


@pytest.mark.parametrize("path", sorted(SAMPLES.glob("*.sexp")), ids=lambda p: p.name)
def test_interned_plan_of_samples(path):
    assert _compile(parse_formula(path.read_text())) == _compile(tree_parse(path.read_text()))


@settings(max_examples=100)
@given(st.integers(min_value=0, max_value=2).flatmap(lambda bits: systems(bits=bits, max_vars=4)))
def test_interned_plan_of_random_systems(system):
    text = format_formula(system)
    interned = parse_formula(text, bits=system.bits)
    assert _compile(interned) == _compile(tree_parse(text, bits=system.bits)) == _compile(system)


def test_equiv_of_an_interned_system_is_independent_of_jobs():
    # the workers receive the system pickled, shared nodes and all
    updown = parse_formula(compiled_texts()["up-down"])
    flagship = parse_formula((SAMPLES / "safe_one.sexp").read_text())
    for jobs in (1, 2):
        assert equiv_exhaustive(updown, flagship, 2, jobs=jobs).to_dict() == {
            "verdict": "equivalent", "checked": 132}
        assert equiv_sampled(updown, flagship, 4, 200, seed=3, jobs=jobs).to_dict() == {
            "verdict": "equivalent", "checked": 200}
    reach = parse_formula((SAMPLES / "reach_one.sexp").read_text())
    verdicts = [equiv_sampled(updown, reach, 4, 200, seed=0, jobs=jobs).to_dict() for jobs in (1, 2)]
    assert verdicts[0] == verdicts[1] and verdicts[0]["verdict"] == "counterexample"
