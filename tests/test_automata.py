import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from automu.automata import (
    ELSE,
    AndGuard,
    Automaton,
    AutomatonFormatError,
    AutomatonTooLarge,
    NotGuard,
    NotQuasiAcyclic,
    OrGuard,
    SubsetEq,
    SupsetEq,
    TransitionRule,
    automaton_to_json,
    eval_guard,
    parse_automaton,
    trace_first,
    trace_last,
    trace_popfirst,
    trace_pushlast,
)
from automu.runtime import async_run, fuzz_consistency, sample_timing
from automu.transform import automaton_to_formula
from automu.zoo import chain_graph, safe_one_automaton, sync_probe_automaton
from strategies import automata, make_automaton, state_traces

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def tiny(rules=None, **kw):
    args = dict(
        bits=0,
        states=("q",),
        init={"": "q"},
        rules=rules or {"q": (TransitionRule(ELSE, "q"),)},
        accepting=frozenset(),
    )
    args.update(kw)
    return Automaton(**args)


class TestConstructionAndParsing:
    def test_trivial_automaton(self):
        a = parse_automaton(json.dumps({
            "bits": 1, "states": ["q"], "init": {"0": "q", "1": "q"},
            "accepting": [], "rules": {"q": [{"guard": "else", "to": "q"}]},
        }))
        assert a.delta("q", frozenset()) == "q"

    def test_five_state_round_trip(self):
        a = safe_one_automaton()
        assert parse_automaton(automaton_to_json(a)) == a

    def test_missing_else_rule(self):
        with pytest.raises(AutomatonFormatError, match="not total at 'q'"):
            tiny(rules={"q": (TransitionRule(SubsetEq(frozenset()), "q"),)})

    def test_else_must_be_last(self):
        with pytest.raises(AutomatonFormatError, match="must be last"):
            tiny(rules={"q": (
                TransitionRule(ELSE, "q"),
                TransitionRule(ELSE, "q"),
            )})

    def test_undeclared_rule_target(self):
        with pytest.raises(AutomatonFormatError, match="undeclared"):
            tiny(rules={"q": (TransitionRule(ELSE, "zz"),)})

    def test_undeclared_guard_state(self):
        with pytest.raises(AutomatonFormatError, match="undeclared"):
            tiny(rules={"q": (
                TransitionRule(SubsetEq(frozenset({"zz"})), "q"),
                TransitionRule(ELSE, "q"),
            )})

    def test_undeclared_state_nested_in_guard(self):
        guard = OrGuard((SubsetEq(frozenset()), NotGuard(SupsetEq(frozenset({"zz"})))))
        with pytest.raises(AutomatonFormatError, match=r"undeclared states \['zz'\]"):
            tiny(rules={"q": (TransitionRule(guard, "q"), TransitionRule(ELSE, "q"))})

    def test_undeclared_state_in_a_later_rules_nested_and_guard(self):
        # the first rule's state set is already known when the second names it again
        known = SubsetEq(frozenset({"q"}))
        guard = AndGuard((known, NotGuard(SupsetEq(frozenset({"q", "zz"})))))
        with pytest.raises(AutomatonFormatError, match=r"state 'q': guard references undeclared states \['zz'\]"):
            tiny(rules={"q": (TransitionRule(known, "q"), TransitionRule(guard, "q"), TransitionRule(ELSE, "q"))})

    @given(automata(max_states=5))
    @settings(max_examples=50)
    def test_random_automata_round_trip(self, a):
        # every guard kind goes through the JSON writer and reader
        assert parse_automaton(automaton_to_json(a)) == a

    def test_init_not_total(self):
        with pytest.raises(AutomatonFormatError, match="init"):
            tiny(bits=1, init={"0": "q"})

    def test_duplicate_state(self):
        with pytest.raises(AutomatonFormatError, match="duplicate state"):
            tiny(states=("q", "q"))

    def test_accepting_undeclared(self):
        with pytest.raises(AutomatonFormatError, match="accepting"):
            tiny(accepting=frozenset({"zz"}))

    def test_unknown_guard_kind(self):
        with pytest.raises(AutomatonFormatError, match="unknown guard"):
            parse_automaton(json.dumps({
                "bits": 0, "states": ["q"], "init": {"": "q"}, "accepting": [],
                "rules": {"q": [{"guard": {"wat": []}, "to": "q"}]},
            }))

    def test_else_cannot_nest_in_combinators(self):
        with pytest.raises(AutomatonFormatError, match="whole-rule guard"):
            parse_automaton(json.dumps({
                "bits": 0, "states": ["q"], "init": {"": "q"}, "accepting": [],
                "rules": {"q": [{"guard": {"not": "else"}, "to": "q"},
                                 {"guard": "else", "to": "q"}]},
            }))


class TestDelta:
    # guard shapes exercised against the five-state machine
    def test_subset_guard(self):
        assert safe_one_automaton().delta("q2", {"q4"}) == "q4"

    def test_empty_neighborhood_is_a_subset(self):
        assert safe_one_automaton().delta("q1", frozenset()) == "q5"

    def test_otherwise_branch(self):
        assert safe_one_automaton().delta("q2", {"q1", "q2"}) == "q2"

    def test_conjunction_of_negated_subsets(self):
        assert safe_one_automaton().delta("q2", {"q3"}) == "q3"

    def test_unknown_state(self):
        with pytest.raises(KeyError, match="unknown state"):
            safe_one_automaton().delta("zz", frozenset())

    def test_unknown_neighbor(self):
        with pytest.raises(KeyError, match="neighborhood"):
            safe_one_automaton().delta("q1", {"zz"})

    @given(automata(max_states=3, bits=1))
    @settings(max_examples=30)
    def test_totality_and_determinism(self, a):
        for r in range(1 << len(a.states)):
            subset = frozenset(s for i, s in enumerate(a.states) if r >> i & 1)
            for q in a.states:
                out = a.delta(q, subset)
                assert out in a.states
                assert a.delta(q, subset) == out


def rule_list_target(a, q, fronts):
    """The reference: the first rule of state index ``q`` whose guard holds
    of the neighborhood mask ``fronts``, as a state index."""
    hood = frozenset(s for i, s in enumerate(a.states) if fronts >> i & 1)
    return a.states.index(next(r.target for r in a.rules[a.states[q]] if eval_guard(r.guard, hood)))


def assert_step_is_the_first_matching_rule(a):
    n = len(a.states)
    assert a.index == {s: i for i, s in enumerate(a.states)}
    for q in range(n):
        for fronts in range(1 << n):
            assert a.step(q, fronts) == rule_list_target(a, q, fronts), (q, fronts)
            assert a.mask(s for i, s in enumerate(a.states) if fronts >> i & 1) == fronts


class TestStep:
    def test_step_is_the_first_matching_rule(self):
        for seed in range(40):
            assert_step_is_the_first_matching_rule(make_automaton(random.Random(seed), max_states=5, bits=1))

    @given(automata(max_states=5, guard_depth=3))
    @settings(max_examples=60)
    def test_step_is_the_first_matching_rule_on_deep_guards(self, a):
        assert_step_is_the_first_matching_rule(a)

    @given(automata(guard_depth=3), st.data())
    @settings(max_examples=60)
    def test_region_against_the_first_matching_rule(self, a, data):
        # each state is out of, in or free in the region (at most 4 states,
        # so at most 4 free); its neighborhoods hold inn and any part of free
        n = len(a.states)
        for q in range(n):
            roles = data.draw(st.lists(st.sampled_from((0, 1, 2)), min_size=n, max_size=n))
            inn = sum(1 << s for s, role in enumerate(roles) if role == 1)
            free = sum(1 << s for s, role in enumerate(roles) if role == 2)
            reached = {rule_list_target(a, q, inn | sub) for sub in range(free + 1) if sub & ~free == 0}
            target, split, targets = a.region(q, inn, free)
            if split:
                assert target == -1 and split & free == split and split & split - 1 == 0, (q, inn, free)
                assert all(targets >> t & 1 for t in reached), (q, inn, free)
            else:
                assert reached == {target} and targets == 0, (q, inn, free)

    @pytest.mark.parametrize("seed", [None, *range(6)])
    def test_memo_after_compile_down_fuzz_and_run(self, seed):
        # compile-down's closure and the run engine fill the one memo
        a = (safe_one_automaton() if seed is None
             else make_automaton(random.Random(seed), max_states=5, bits=1, quasi_acyclic=True))
        automaton_to_formula(a)
        fuzz_consistency(a, max_nodes=3, graphs=8, timings_per_graph=4, seed=7)
        g = chain_graph()
        async_run(a, g, sample_timing(g, steps=6, seed=3))
        filled = [(q, fronts, target) for (q, fronts, free), (target, _, _) in a.region_memo.items() if not free]
        assert filled
        for q, fronts, target in filled:
            assert target == rule_list_target(a, q, fronts), (q, fronts)


class TestTraceOperators:
    def test_defining_equations(self):
        # the eight defining cases of the four operators
        assert trace_first(("q1",)) == "q1"
        assert trace_first(("q1", "q3")) == "q1"
        assert trace_last(("q3",)) == "q3"
        assert trace_last(("q1", "q3")) == "q3"
        assert trace_pushlast(("q1", "q2"), "q2") == ("q1", "q2")
        assert trace_pushlast(("q1", "q2"), "q3") == ("q1", "q2", "q3")
        assert trace_popfirst(("q1", "q2")) == ("q2",)
        assert trace_popfirst(("q1",)) == ("q1",)

    def test_pushlast_singleton_idempotent(self):
        assert trace_pushlast(("q1",), "q1") == ("q1",)

    def test_popfirst_longer(self):
        assert trace_popfirst(("q1", "q2", "q3")) == ("q2", "q3")

    @given(state_traces(), st.sampled_from(("a", "b", "c", "d")))
    def test_pushlast_laws(self, t, q):
        out = trace_pushlast(t, q)
        assert trace_last(out) == q
        assert not any(x == y for x, y in zip(out, out[1:]))
        assert out[: len(t)] == t
        assert trace_pushlast(out, q) == out

    @given(state_traces())
    def test_popfirst_laws(self, t):
        out = trace_popfirst(t)
        assert len(out) == max(1, len(t) - 1)
        assert trace_last(out) == trace_last(t)


class TestQuasiAcyclicity:
    def test_five_state_machine(self):
        assert safe_one_automaton().is_quasi_acyclic()

    def test_two_cycle(self):
        a = Automaton(
            bits=0, states=("q1", "q2"), init={"": "q1"}, accepting=frozenset(),
            rules={
                "q1": (TransitionRule(ELSE, "q2"),),
                "q2": (TransitionRule(ELSE, "q1"),),
            },
        )
        assert not a.is_quasi_acyclic()

    def test_self_loop_only(self):
        assert tiny().is_quasi_acyclic()

    def test_enumeration_guard(self):
        n = 21
        states = tuple(f"s{i}" for i in range(n))
        a = Automaton(
            bits=0, states=states, init={"": "s0"}, accepting=frozenset(),
            rules={q: (TransitionRule(ELSE, q),) for q in states},
        )
        with pytest.raises(AutomatonTooLarge):
            a.is_quasi_acyclic()


class TestTraceLengthBound:
    """The longest path of the derived state diagram, against the 2^|Q|
    scan and the longest trace."""

    def assert_agrees_with_the_scan(self, a):
        bound = a.trace_length_bound()
        assert (bound is not None) == a.is_quasi_acyclic()
        if bound is not None:
            assert max(len(t) for t in a.traces()) == bound <= len(a.states)

    @pytest.mark.parametrize("name", ["safe_one.json", "sync_probe.json"])
    def test_samples(self, name):
        a = parse_automaton((SAMPLES / name).read_text())
        assert a.trace_length_bound() is not None
        self.assert_agrees_with_the_scan(a)

    def test_two_cycle(self):
        a = Automaton(
            bits=0, states=("q1", "q2"), init={"": "q1"}, accepting=frozenset(),
            rules={
                "q1": (TransitionRule(ELSE, "q2"),),
                "q2": (TransitionRule(ELSE, "q1"),),
            },
        )
        assert a.trace_length_bound() is None

    def test_cycle_through_a_rule_that_never_fires(self):
        # q2 -> q1 is a rule target but no neighborhood takes it, so it is no
        # edge of the state diagram
        a = Automaton(
            bits=0, states=("q1", "q2"), init={"": "q1"}, accepting=frozenset(),
            rules={
                "q1": (TransitionRule(ELSE, "q2"),),
                "q2": (TransitionRule(SubsetEq(frozenset({"q1", "q2"})), "q2"),
                       TransitionRule(ELSE, "q1")),
            },
        )
        assert a.trace_length_bound() == 2 and a.is_quasi_acyclic()

    def test_chain_of_rules(self):
        states = tuple(f"s{i}" for i in range(30))
        a = Automaton(
            bits=0, states=states, init={"": "s0"}, accepting=frozenset(),
            rules={q: (TransitionRule(ELSE, states[min(i + 1, 29)]),) for i, q in enumerate(states)},
        )
        assert a.trace_length_bound() == 30

    @settings(max_examples=100)
    @given(automata(quasi_acyclic=True))
    def test_random_quasi_acyclic(self, a):
        assert a.trace_length_bound() is not None
        self.assert_agrees_with_the_scan(a)

    @settings(max_examples=100)
    @given(automata())
    def test_random(self, a):
        self.assert_agrees_with_the_scan(a)


class TestTraces:
    def test_single_state(self):
        assert tiny().traces() == {("q",)}

    def test_else_chain(self):
        a = Automaton(
            bits=0, states=("q1", "q2"), init={"": "q1"}, accepting=frozenset(),
            rules={
                "q1": (TransitionRule(ELSE, "q2"),),
                "q2": (TransitionRule(ELSE, "q2"),),
            },
        )
        assert a.traces() == {("q1",), ("q2",), ("q1", "q2")}

    def test_five_state_machine(self):
        ts = safe_one_automaton().traces()
        assert ("q2", "q4", "q5") in ts
        assert ("q1", "q5") in ts
        assert len(ts) == 15
        assert all(("q" + str(i),) in ts for i in range(1, 6))

    def test_infinite_trace_set_rejected(self):
        a = Automaton(
            bits=0, states=("q1", "q2"), init={"": "q1"}, accepting=frozenset(),
            rules={
                "q1": (TransitionRule(ELSE, "q2"),),
                "q2": (TransitionRule(ELSE, "q1"),),
            },
        )
        with pytest.raises(NotQuasiAcyclic):
            a.traces()

    @given(automata(max_states=4, bits=1, quasi_acyclic=True))
    @settings(max_examples=30)
    def test_every_trace_satisfies_the_invariants(self, a):
        ts = a.traces()
        assert all(a.is_trace(t) for t in ts)
        assert all((q,) in ts for q in a.states)

    def test_probe_trace_count(self):
        assert len(sync_probe_automaton().traces()) == 5
