"""Tests of ``logic.share``, the form compile-down prints: naming each
repeated subterm leaves the least solution of every variable unchanged, and
the printed text depends on the system alone."""

import functools
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from automu.automata import parse_automaton
from automu.cli import main
from automu.graphs import enumerate_digraphs
from automu.logic import MuSystem, format_formula, lfp, parse_formula, share
from automu.transform import automaton_to_formula, formula_to_automaton
from strategies import graphs, systems
from test_kernel import BENCHMARK_FORMULAS, SAMPLES
from test_logic import tree_parse

REPO = SAMPLES.parent
DOWN_SAMPLES = ("safe_one.json", "sync_probe.json", "unreachable_cycle.json")


@functools.cache
def compiled(name: str) -> MuSystem:
    """Compile-down of a sample automaton, or up-down of a benchmark formula."""
    if name in DOWN_SAMPLES:
        return automaton_to_formula(parse_automaton((SAMPLES / name).read_text()))
    return automaton_to_formula(formula_to_automaton(parse_formula(BENCHMARK_FORMULAS[name])))


def assert_same_solution(system: MuSystem, shared: MuSystem, g) -> None:
    got = lfp(shared, g)
    assert {x: got[x] for x in system.vars} == lfp(system, g), g


@pytest.mark.parametrize("name", [*DOWN_SAMPLES, *sorted(BENCHMARK_FORMULAS)])
def test_share_keeps_every_variables_solution(name):
    system = compiled(name)
    shared = share(system)
    assert shared.vars[:len(system.vars)] == system.vars
    for g in enumerate_digraphs(3, system.bits):
        assert_same_solution(system, shared, g)


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=2).flatmap(
    lambda bits: st.tuples(systems(bits=bits, max_vars=4, depth=5), graphs(max_nodes=5, bits=bits))))
def test_share_of_random_systems(case):
    system, g = case
    assert_same_solution(system, share(system), g)


def test_shared_compile_down_is_equivalent_to_its_source(tmp_path, capsys):
    down = tmp_path / "down.sexp"
    source = str(SAMPLES / "safe_one.json")
    assert main(["compile-down", "--automaton", source, "-o", str(down)]) == 0
    assert len(down.read_text()) <= 12062 // 2
    assert main(["equiv", "--a", str(down), "--b", source, "--max-nodes", "3"]) == 0
    assert json.loads(capsys.readouterr().out) == {"verdict": "equivalent", "checked": 12420}


def test_compile_down_text_does_not_depend_on_the_hash_seed():
    argv = [sys.executable, "-m", "automu.cli", "compile-down", "--automaton",
            str(SAMPLES / "safe_one.json")]
    outputs = []
    for hash_seed in ("0", "7"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1] == format_formula(share(compiled("safe_one.json")))


@pytest.mark.parametrize("name", ["safe_one.json", "safe_one"])
def test_sharing_a_shared_text_adds_no_variable(name):
    text = format_formula(share(compiled(name)))
    again = share(parse_formula(text))
    assert len(again.vars) == len(parse_formula(text).vars)
    assert format_formula(again) == text


def test_fresh_names_skip_declared_names():
    system = parse_formula(
        "(mu ((X0 (or (dia (and (p 0) (var S0))) (box (and (p 0) (var S0)))))"
        " (S0 (dia (var X0)))))")
    shared = share(system)
    assert shared.vars == ("X0", "S0", "S1")
    assert format_formula(shared) == (
        "(mu (\n"
        "  (X0 (or (dia (var S1)) (box (var S1))))\n"
        "  (S0 (dia (var X0)))\n"
        "  (S1 (and (p 0) (var S0)))\n"
        "))\n")


def test_repeated_compounds_are_named_and_leaves_are_not():
    system = parse_formula("(mu ((X0 (and (or (p 0) (dia true)) (or (dia true) (p 0))))))")
    assert format_formula(share(system)) == (
        "(mu (\n"
        "  (X0 (and (or (p 0) (var S0)) (or (var S0) (p 0))))\n"
        "  (S0 (dia true))\n"
        "))\n")
    assert share(parse_formula("(mu ((X0 (and (p 0) (p 0)))))")).vars == ("X0",)


def test_sharing_ignores_what_the_input_shares():
    text = format_formula(compiled("safe_one.json"))
    assert format_formula(share(tree_parse(text))) == format_formula(share(parse_formula(text)))
