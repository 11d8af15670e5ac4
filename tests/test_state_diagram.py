"""The rule-by-rule state diagram (``Automaton.state_diagram``) and the trace
sets read off it (``Automaton.traces``) against the scan of every
neighborhood they replaced, kept here as the reference, and the commands they
open to automata too large for that scan."""

import pickle
import random
from pathlib import Path

import pytest
from hypothesis import given, settings

from automu import automata
from automu.automata import Automaton, AutomatonTooLarge, NotQuasiAcyclic, automaton_to_json, parse_automaton
from automu.cli import main
from automu.logic import parse_formula
from automu.runtime import sync_accepting_nodes
from automu.transform import _driver_closure, formula_to_automaton
from automu.zoo import chain_graph
from strategies import automata as random_automata
from strategies import seeds
from test_kernel import BENCHMARK_FORMULAS
from test_logic import all_states_automaton
from test_transform import SIX_VARIABLES

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def scan_diagram(a: Automaton, within) -> dict[str, frozenset[str]]:
    """The reference: ``delta`` of every state on every subset of ``within``,
    self-loops dropped."""
    within = sorted(within)
    out: dict[str, set[str]] = {q: set() for q in a.states}
    for mask in range(1 << len(within)):
        n = frozenset(s for i, s in enumerate(within) if mask >> i & 1)
        for q in a.states:
            out[q].add(a.delta(q, n))
    return {q: frozenset(s - {q}) for q, s in out.items()}


def scan_paths(a: Automaton) -> set:
    """Every path of the scanned state diagram, from every state."""
    diagram = scan_diagram(a, a.states)
    paths = {(q,) for q in a.states}
    todo = list(paths)
    while todo:
        t = todo.pop()
        for q2 in diagram[t[-1]]:
            paths.add(t + (q2,))
            todo.append(t + (q2,))
    return paths


def scan_reachable(a: Automaton, start) -> dict[str, frozenset[str]]:
    """R(``start``) by the scan alone, in ``states`` order, each state mapped
    to its scanned successors on neighborhoods drawn from R."""
    reach: set[str] = set()
    grown = set(start)
    while grown != reach:
        reach = grown
        diagram = scan_diagram(a, reach)
        grown = reach.union(*(diagram[q] for q in reach))
    return {q: diagram[q] for q in a.states if q in reach}


def scan_bound(a: Automaton, start) -> int | None:
    """The number of states on the longest path of ``scan_reachable(a,
    start)``, or None when it has a cycle: a depth-first walk of its paths."""
    diagram = scan_reachable(a, start)
    longest, paths = 0, [(q,) for q in diagram]
    while paths:
        t = paths.pop()
        longest = max(longest, len(t))
        for q2 in diagram[t[-1]]:
            if q2 in t:
                return None
            paths.append(t + (q2,))
    return longest


def reference_reachable_traces(a: Automaton) -> set:
    """Compile-down's reachable traces by the subset loop it used to run."""
    reach = {(q,) for q in a.init.values()}
    while True:
        nexts = scan_diagram(a, {t[-1] for t in reach})
        grown = reach | {t + (q2,) for t in reach for q2 in nexts[t[-1]]}
        if grown == reach:
            return reach
        reach = grown


def assert_agrees_with_the_scan(a: Automaton, rng: random.Random, samples: int = 3) -> None:
    assert a.state_diagram() == scan_diagram(a, a.states)
    for start in [a.init.values()] + [[s for s in a.states if rng.random() < 0.5] for _ in range(samples)]:
        want = scan_reachable(a, start)
        assert a.state_diagram(start) == want and list(a.state_diagram(start)) == list(want)
        assert a.trace_length_bound(start) == scan_bound(a, start)


def sample(name: str) -> Automaton:
    return parse_automaton((SAMPLES / name).read_text())


def six_variables() -> Automaton:
    """The all-states compile-up of SIX_VARIABLES: 128 states, 26 of them
    reachable from initialization."""
    return all_states_automaton(parse_formula(SIX_VARIABLES, bits=1))


@pytest.mark.parametrize("name", ["safe_one.json", "sync_probe.json"])
def test_samples(name):
    a = sample(name)
    assert_agrees_with_the_scan(a, random.Random(0))
    assert a.traces() == scan_paths(a)
    assert a.traces(a.init.values()) == reference_reachable_traces(a)


@pytest.mark.parametrize("name", sorted(BENCHMARK_FORMULAS))
def test_compile_up_outputs(name):
    a = formula_to_automaton(parse_formula(BENCHMARK_FORMULAS[name]))
    assert_agrees_with_the_scan(a, random.Random(1))
    assert a.traces() == scan_paths(a)
    assert a.traces(a.init.values()) == reference_reachable_traces(a)


@settings(max_examples=60)
@given(random_automata(max_states=10), seeds)
def test_random_automata(a, seed):
    assert_agrees_with_the_scan(a, random.Random(seed))
    assert (a.trace_length_bound() is not None) == a.is_quasi_acyclic()
    if not a.is_quasi_acyclic():
        with pytest.raises(NotQuasiAcyclic):
            a.traces()


@settings(max_examples=30)
@given(random_automata(max_states=10, quasi_acyclic=True), seeds)
def test_random_quasi_acyclic_automata(a, seed):
    assert_agrees_with_the_scan(a, random.Random(seed))
    assert a.traces() == scan_paths(a)
    assert a.trace_length_bound() == max(map(len, a.traces()))
    assert a.traces(start=a.init.values()) == reference_reachable_traces(a)


def test_128_states_without_the_scan():
    a = six_variables()
    assert len(a.states) == 128
    assert len(a.traces()) == 1906 and a.trace_length_bound() == 6
    assert len(a.traces(a.init.values())) == 184
    with pytest.raises(AutomatonTooLarge):
        a.is_quasi_acyclic()  # the reference stays guarded


def test_reachable_pass_derives_only_the_last_states_it_reaches():
    a = six_variables()
    reach = a.traces(start=a.init.values())
    derived = {a.states[q] for q, _, _ in a.region_memo}
    assert derived == {t[-1] for t in reach} and len(derived) == 26


def test_warm_caches_survive_pickling():
    # ``--jobs`` hands automata to its workers by pickling them
    a = sample("safe_one.json")
    start = a.states[:3]

    def answers(a):
        return (a.traces(), a.traces(start=a.init.values()), a.state_diagram(start),
                a.delta(a.states[0], start), _driver_closure(a), sync_accepting_nodes(a, chain_graph()))

    warm = answers(a)
    b = pickle.loads(pickle.dumps(a))
    assert b == a and b._cache.keys() == a._cache.keys()
    assert answers(b) == warm


def test_region_budget_names_the_state(monkeypatch):
    monkeypatch.setattr(automata, "SUBSET_ENUMERATION_GUARD", 3)
    with pytest.raises(AutomatonTooLarge, match=r"rules of state '\{[^']*\}' split into more than 2\^3"):
        six_variables().state_diagram()


class TestCommandsOn128States:
    @pytest.fixture
    def up(self, tmp_path):
        path = tmp_path / "six.json"
        path.write_text(automaton_to_json(six_variables()))
        return str(path)

    def test_check(self, up, capsys):
        assert main(["check", "--automaton", up]) == 0
        out = capsys.readouterr().out
        assert "quasi-acyclic: true" in out and "traces: 1906" in out

    def test_compile_down_is_refused_by_the_closure_guard(self, up, tmp_path, capsys):
        assert main(["compile-down", "--automaton", up, "-o", str(tmp_path / "down.sexp")]) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "over 184 traces refused: each family of neighbor-trace sets is a 2^184-bit" in errors[0]
        assert "Traceback" not in err
