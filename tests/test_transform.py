import hashlib
import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import assume, given, settings

from automu.automata import (
    _GUARD_SYNTAX,
    ELSE,
    Automaton,
    AutomatonTooLarge,
    Guard,
    NotQuasiAcyclic,
    TransitionRule,
    automaton_to_json,
    parse_automaton,
    trace_pushlast,
)
from automu.graphs import enumerate_digraphs
from automu.harness import equiv_exhaustive
from automu import transform
from automu.logic import (
    And,
    Box,
    Const,
    Dia,
    FalseF,
    MuSystem,
    Or,
    Var,
    format_formula,
    lfp,
    parse_formula,
)
from automu.runtime import fuzz_consistency, initial_configuration, sync_accepting_nodes, sync_step
from automu.transform import (
    NotFlattened,
    SizeGuardExceeded,
    automaton_to_formula,
    compute_enables,
    flatten,
    formula_to_automaton,
    shallow_sat,
)
from automu.zoo import (
    boxed_one_formula,
    reach_one_formula,
    safe_one_automaton,
    safe_one_formula,
    sync_probe_automaton,
)
from strategies import make_automaton, make_system, seeds, systems
from test_kernel import BENCHMARK_FORMULAS, SAMPLES
from test_logic import all_states_automaton, tree_parse

SIX_VARIABLES = ("(mu ((X (or (dia (and (var Y) (var Z))) (box (or (var Y) (p 0))))) "
                 "(Y (or (p 0) (dia (var Z)))) (Z (or (not-p 0) (box (dia (var X)))))))")


class TestFlatten:
    def test_nested_diamond(self):
        sys = parse_formula("(mu ((X0 (dia (dia (var X0))))))", bits=1)
        flat = flatten(sys)
        assert flat.vars == ("X0", "Y0")
        assert flat.bodies[0] == Dia(Var("Y0"))
        assert flat.bodies[1] == Dia(Var("X0"))
        assert equiv_exhaustive(sys, flat, 3).equivalent

    def test_already_flat_is_unchanged(self):
        sys = safe_one_formula()
        assert flatten(sys) == sys

    def test_box_of_constant(self):
        sys = parse_formula("(mu ((X0 (box (p 0)))))")
        flat = flatten(sys)
        assert flat.vars == ("X0", "Y0")
        assert flat.bodies[0] == Box(Var("Y0"))
        assert flat.bodies[1] == Const(0)
        assert equiv_exhaustive(sys, flat, 3).equivalent

    def test_fresh_names_avoid_collisions(self):
        sys = MuSystem(bits=0, vars=("Y0",), bodies=(Dia(Box(Var("Y0"))),))
        flat = flatten(sys)
        assert flat.vars == ("Y0", "Y1")
        assert equiv_exhaustive(sys, flat, 3).equivalent

    def test_head_position_preserved(self):
        sys = parse_formula("(mu ((A (box (dia (var B)))) (B (p 0))))")
        flat = flatten(sys)
        assert flat.vars[0] == "A"
        assert equiv_exhaustive(sys, flat, 3).equivalent


class TestShallowSat:
    def test_box_vacuous(self):
        assert shallow_sat(Box(Var("X2")), set(), set())

    def test_left_disjunct_from_atoms(self):
        f = Or(And(Const(0), Var("X2")), Dia(Var("X1")))
        assert shallow_sat(f, {"p0", "X2"}, set())
        assert shallow_sat(f, {"p0", "X2"}, {frozenset({"X1"})})

    def test_dia_needs_a_member(self):
        assert not shallow_sat(Dia(Var("X1")), set(), {frozenset({"X2"})})
        assert shallow_sat(Dia(Var("X1")), set(), {frozenset({"X1", "X2"})})

    def test_requires_flat_input(self):
        with pytest.raises(NotFlattened):
            shallow_sat(Dia(Dia(Var("X"))), set(), set())


class TestFormulaToAutomaton:
    def test_flagship_construction_shape(self):
        a = formula_to_automaton(safe_one_formula())
        assert len(a.states) == 8
        assert a.init == {"1": "{p0}", "0": "{}"}
        assert a.accepting == {"{X1}", "{X1,X2}", "{p0,X1}", "{p0,X1,X2}"}
        assert a.is_quasi_acyclic()

    def test_wait_free_update_is_simultaneous(self):
        # from {p0} with no neighbors: the box adds X2, but X1 must not ride
        # along in the same step since X2 was not in the state being read
        a = formula_to_automaton(safe_one_formula())
        assert a.delta("{p0}", frozenset()) == "{p0,X2}"
        assert a.delta("{p0,X2}", frozenset()) == "{p0,X1,X2}"

    def test_states_only_grow(self):
        a = formula_to_automaton(safe_one_formula())
        members = {q: set(q.strip("{}").split(",")) - {""} for q in a.states}
        for mask in range(1 << len(a.states)):
            hood = frozenset(s for i, s in enumerate(a.states) if mask >> i & 1)
            for q in a.states:
                assert members[q] <= members[a.delta(q, hood)]

    def test_total_acceptance(self):
        sys = parse_formula("(mu ((X0 true)))", bits=1)
        a = formula_to_automaton(sys)
        assert len(a.states) == 4  # subsets of {p0, X0}
        assert equiv_exhaustive(a, sys, 2).equivalent

    def test_flagship_equivalence_small(self):
        assert equiv_exhaustive(formula_to_automaton(safe_one_formula()), safe_one_formula(), 2).equivalent

    def test_seed_formula_round_trips_small(self):
        for sys in (reach_one_formula(), boxed_one_formula()):
            a = formula_to_automaton(sys)
            assert a.is_quasi_acyclic()
            assert equiv_exhaustive(a, sys, 2).equivalent

    def test_size_guard(self):
        names = tuple(f"V{i}" for i in range(17))
        sys = MuSystem(bits=0, vars=names, bodies=tuple(Var(n) for n in names))
        with pytest.raises(SizeGuardExceeded):
            formula_to_automaton(sys)

    def test_size_guard_trips_before_any_atom_is_named(self):
        # the label width comes from the largest constant index: one constant asks for 3,000,001 atoms
        sys = parse_formula("(mu ((X (p 3000000))))")
        tracemalloc.start()
        try:
            with pytest.raises(SizeGuardExceeded, match="over 3000002 atoms exceeds the guard of 16"):
                formula_to_automaton(sys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_variable_named_like_a_constant(self):
        sys = MuSystem(bits=1, vars=("p0",), bodies=(Const(0),))
        a = formula_to_automaton(sys)
        assert equiv_exhaustive(a, sys, 2).equivalent

    def test_two_bit_system_with_sixteen_states(self):
        # 16 subsets of the four atoms, 11 of them reachable from
        # initialization: quasi-acyclicity holds by construction instead of
        # being re-derived by a scan over all 2^11 neighborhoods
        sys = parse_formula("(mu ((X (and (dia (var Y)) (box (var Y)))) (Y (or (p 0) (p 1)))))", bits=2)
        a = formula_to_automaton(sys)
        assert len(a.states) == 11
        members = {q: set(q.strip("{}").split(",")) - {""} for q in a.states}
        for q, rules in a.rules.items():
            assert all(members[q] <= members[rule.target] for rule in rules)
        verdict = equiv_exhaustive(a, sys, 3)
        assert verdict.equivalent and verdict.checked == 98824


def _members(state_id):
    return frozenset(state_id.strip("{}").split(",")) - {""}


def _assert_delta_is_shallow_step(a, flat, hoods):
    """delta(q, N) = q + {x : shallow_sat(body_x, q, N)} for every state q and
    every neighborhood N in ``hoods``; ``flat`` names the variables as the
    automaton's states do."""
    for n in hoods:
        hood = [_members(s) for s in n]
        for q in a.states:
            atoms = _members(q)
            want = atoms | {x for x, body in zip(flat.vars, flat.bodies) if shallow_sat(body, atoms, hood)}
            assert _members(a.delta(q, n)) == want, (q, sorted(n))


def _all_hoods(a):
    return [frozenset(s for i, s in enumerate(a.states) if mask >> i & 1)
            for mask in range(1 << len(a.states))]


class TestSymbolicCompileUp:
    @pytest.mark.parametrize("name", sorted(BENCHMARK_FORMULAS))
    def test_delta_is_the_shallow_step_everywhere(self, name):
        sys = parse_formula(BENCHMARK_FORMULAS[name])
        a = formula_to_automaton(sys)
        _assert_delta_is_shallow_step(a, flatten(sys), _all_hoods(a))

    def test_renamed_variable_is_the_shallow_step_everywhere(self):
        # the variable p0 is renamed V0 so it cannot collide with constant p0
        a = formula_to_automaton(parse_formula("(mu ((p0 (p 0))))"))
        ref = MuSystem(bits=1, vars=("V0",), bodies=(Const(0),))
        _assert_delta_is_shallow_step(a, ref, _all_hoods(a))

    @settings(max_examples=60)
    @given(systems(bits=1, max_vars=2, depth=2), seeds)
    def test_random_systems_on_sampled_hoods(self, sys, seed):
        flat = flatten(sys)
        assume(flat.bits + len(flat.vars) <= 6)
        a = formula_to_automaton(sys)
        rng = random.Random(seed)
        hoods = [frozenset(s for s in a.states if rng.random() < p) for p in (0.0, 0.1, 0.3, 0.6, 1.0)]
        _assert_delta_is_shallow_step(a, flat, hoods)

    def test_rule_counts(self):
        # one rule per subset of the variables still open at a reachable
        # state whose target is reachable
        counts = {name: sum(map(len, formula_to_automaton(parse_formula(f)).rules.values()))
                  for name, f in BENCHMARK_FORMULAS.items()}
        assert counts == {"safe_one": 17, "reach_one": 5, "boxed_one": 8, "two_and": 11, "two_box": 8}

    def test_six_variable_system_compiles_and_round_trips(self):
        sys = parse_formula(SIX_VARIABLES, bits=1)
        a = formula_to_automaton(sys)
        assert len(flatten(sys).vars) == 6 and len(a.states) == 26
        assert sum(map(len, a.rules.values())) <= 2 * 3 ** 6
        verdict = equiv_exhaustive(a, sys, 3)
        assert verdict.equivalent and verdict.checked == 12420

    def test_unreachable_rules_are_never_listed(self):
        # 14 variables open at every state lacking them, 3^14 rules over all
        # subsets; no neighbor ever holds one, so only the empty state is reachable
        names = tuple(f"V{i}" for i in range(14))
        sys = MuSystem(bits=0, vars=names, bodies=tuple(Dia(Var(n)) for n in names))
        start = time.perf_counter()
        a = formula_to_automaton(sys)
        assert time.perf_counter() - start < 0.1
        assert a.states == ("{}",) and a.rules == {"{}": (TransitionRule(ELSE, "{}"),)}

    def test_rule_guard_trips_before_any_rule_is_built(self, monkeypatch):
        # the reachable table of SIX_VARIABLES has 88 rules
        def no_rules(*args):
            raise AssertionError("a rule was built")

        monkeypatch.setattr(transform, "TransitionRule", no_rules)
        monkeypatch.setattr(transform, "MAX_RULE_TABLE", 87)
        with pytest.raises(SizeGuardExceeded, match="rule table of 88 entries exceeds the guard of 87"):
            formula_to_automaton(parse_formula(SIX_VARIABLES, bits=1))

    def test_variable_names_with_a_comma(self):
        # a comma separates the atoms of a state id, so such a name is renamed
        sys = parse_formula("(mu ((a (var b)) (b true) (a,b (dia (var a)))))")
        assert equiv_exhaustive(formula_to_automaton(sys), sys, 3).equivalent


def _compile_up_outcome(sys: MuSystem) -> str:
    try:
        return automaton_to_json(formula_to_automaton(sys))
    except SizeGuardExceeded as e:
        return f"refused: {e}"


class TestCompileUpOfSharedInput:
    """``flatten`` walks occurrences, so a modal argument the parse shares
    still gets one fresh variable per occurrence, as on a tree."""

    SHARED = "(mu ((X (and (dia (or (p 0) (var X))) (box (or (p 0) (var X)))))))"

    def test_shared_modal_argument(self):
        sys = parse_formula(self.SHARED)
        assert sys.bodies[0].left.inner is sys.bodies[0].right.inner
        assert flatten(sys).vars == ("X", "Y0", "Y1")
        assert format_formula(flatten(sys)) == format_formula(flatten(tree_parse(self.SHARED)))
        assert _compile_up_outcome(sys) == _compile_up_outcome(tree_parse(self.SHARED))

    @pytest.mark.parametrize("name", sorted(BENCHMARK_FORMULAS))
    def test_benchmark_formulas(self, name):
        text = BENCHMARK_FORMULAS[name]
        assert _compile_up_outcome(parse_formula(text)) == _compile_up_outcome(tree_parse(text))

    @settings(max_examples=60)
    @given(systems(bits=1, max_vars=2, depth=2))
    def test_random_systems(self, sys):
        # the first body's argument appears under both a diamond and a box
        f = sys.bodies[0]
        sys = MuSystem(bits=sys.bits, vars=sys.vars, bodies=(And(Dia(f), Box(f)), *sys.bodies[1:]))
        text = format_formula(sys)
        interned = parse_formula(text, bits=sys.bits)
        assume(sys.bits + len(flatten(interned).vars) <= 6)
        assert _compile_up_outcome(interned) == _compile_up_outcome(tree_parse(text, bits=sys.bits))


def _guard_within(g: Guard, keep: frozenset[str]) -> Guard:
    """``g`` with every state set it names cut to ``keep``."""
    attr = _GUARD_SYNTAX[type(g)][1]
    if attr == "states":
        return type(g)(g.states & keep)
    if attr == "inner":
        return type(g)(_guard_within(g.inner, keep))
    if attr == "parts":
        return type(g)(tuple(_guard_within(part, keep) for part in g.parts))
    return g


def restrict(a: Automaton) -> Automaton:
    """``a`` on R, the states reachable from initialization: the states of R
    in their order, the rules whose target is in R, and guards naming only
    states of R."""
    keep = frozenset(a.state_diagram(a.init.values()))
    return Automaton(
        bits=a.bits,
        states=tuple(q for q in a.states if q in keep),
        init=a.init,
        rules={q: tuple(TransitionRule(_guard_within(r.guard, keep), r.target)
                        for r in a.rules[q] if r.target in keep)
               for q in a.states if q in keep},
        accepting=a.accepting & keep,
    )


# SIX_VARIABLES and the make_system seed whose compile-up has 256 states,
# 14 of them reachable
NAMED_SYSTEMS = {
    **{name: (text, None) for name, text in BENCHMARK_FORMULAS.items()},
    "SIX_VARIABLES": (SIX_VARIABLES, 1),
    "seed_20": (format_formula(make_system(random.Random(20), 1, 3, 3)), 1),
}


class TestReachableCompileUp:
    """Compile-up is the all-states construction restricted to the states
    reachable from initialization, byte for byte, and decides as it does."""

    @pytest.mark.parametrize("name", sorted(NAMED_SYSTEMS))
    def test_named_systems(self, name):
        sys = parse_formula(*NAMED_SYSTEMS[name])
        assert automaton_to_json(formula_to_automaton(sys)) == automaton_to_json(restrict(all_states_automaton(sys)))

    @settings(max_examples=60)
    @given(systems())
    def test_random_systems(self, sys):
        assume(sys.bits + len(flatten(sys).vars) <= 8)
        assert automaton_to_json(formula_to_automaton(sys)) == automaton_to_json(restrict(all_states_automaton(sys)))

    @pytest.mark.parametrize("name", sorted(BENCHMARK_FORMULAS) + ["SIX_VARIABLES"])
    def test_same_verdicts(self, name):
        sys = parse_formula(*NAMED_SYSTEMS[name])
        a, reference = formula_to_automaton(sys), all_states_automaton(sys)
        assert equiv_exhaustive(a, sys, 3) == equiv_exhaustive(reference, sys, 3)
        for seed in range(3):
            assert fuzz_consistency(a, 4, 10, 10, seed=seed) == fuzz_consistency(reference, 4, 10, 10, seed=seed)


class TestPinnedClosure:
    def test_probe_full_closure(self):
        closure = compute_enables(sync_probe_automaton())
        assert (len(closure.pairs), closure.iterations_used) == (96, 96)

    def test_flagship_one_round(self):
        closure = compute_enables(safe_one_automaton(), max_rounds=1, max_traces=20)
        assert (len(closure.pairs), closure.iterations_used) == (20480, 160)

    def test_flagship_compile_down_size(self):
        assert len(format_formula(automaton_to_formula(safe_one_automaton()))) == 12062

    def test_up_down_round_trip(self):
        a = formula_to_automaton(safe_one_formula())
        assert sum(map(len, transform._driver_closure(a).values())) == 8340
        down = automaton_to_formula(a)
        assert len(down.vars) == 13 and len(format_formula(down)) == 29469
        assert equiv_exhaustive(down, safe_one_formula(), 2).equivalent


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# SHA-256 of the all-states compile-up (automaton JSON) of the benchmark
# formulas at the bit widths the benchmark compiles them at, and of
# SIX_VARIABLES; compile-up restricted to the reachable states prints the
# same for the formulas whose every state is reachable
UP_DIGESTS = {
    ("safe_one", 1): "7bd49db7553420307e1eba614f8e3282bfa064364fb345d9b664dee77536d506",
    ("reach_one", 1): "dbef18db77e63bf18252674203c329f2eb4cd6bfb94557b94bb8d99de6c589a2",
    ("boxed_one", 1): "c89c968fd4c561cc887d4019f47551147454034f8c33f3ede07f40830f22a0c8",
    ("two_and", 2): "adcd056ec5adace7dfd6f1b198ae3fccf12b1376c9d3da163c2f7b628d3abebb",
    ("two_box", 2): "f51a57f93977af7b7f6c32a066c4c817d967fd04bb27abd58f78108f1bcf5521",
}

# SHA-256 of compile-down of the all-states compile-up (formula text) for the
# other benchmark formulas; safe_one's is test_up_down_flagship.  Compile-down
# reads only the traces from initialization, so the restricted compile-up
# compiles down to the same text
UP_DOWN_DIGESTS = {
    "reach_one": "16af4b95d83b4f42c5050ccd5c34bf06c7c5ff9b13a4ad7791a788695a4fca25",
    "boxed_one": "00fca4d5a5979b9dd0572a1dab6ea371e62b24740d33deef4dd40b8439eadcaf",
    "two_and": "ed421c8fa984ec61caf3500a4a6eb7c94ed6dc78ad9fdd077004c1ad9996b0e7",
    "two_box": "646e2c835e8db978b35e914c66cfbbcce8e244575a7fd116ae4a4acc74c30fcf",
}

# SHA-256 of compile-up (automaton JSON), where it differs from the
# all-states construction
REACHABLE_UP_DIGESTS = {
    ("boxed_one", 1): "de3a485e639079999a70955c41845dc8c3d318fb4e33089a8badd7b17e09b83f",
    ("two_box", 2): "166a53a63ee5ac98e760d661e74b80726be97ca36ac825b0647d09c6f099c822",
}


class TestPinnedOutputs:
    """Translation outputs pinned byte for byte."""

    @pytest.mark.parametrize("name, bits", sorted(UP_DIGESTS))
    def test_compile_up(self, name, bits):
        a = all_states_automaton(parse_formula(BENCHMARK_FORMULAS[name], bits=bits))
        assert _sha256(automaton_to_json(a)) == UP_DIGESTS[name, bits]

    @pytest.mark.parametrize("name, bits", sorted(UP_DIGESTS))
    def test_compile_up_reachable(self, name, bits):
        a = formula_to_automaton(parse_formula(BENCHMARK_FORMULAS[name], bits=bits))
        assert _sha256(automaton_to_json(a)) == REACHABLE_UP_DIGESTS.get((name, bits), UP_DIGESTS[name, bits])

    def test_compile_up_six_variables(self):
        a = all_states_automaton(parse_formula(SIX_VARIABLES, bits=1))
        assert _sha256(automaton_to_json(a)) == (
            "34f9c852e7692432c2ccf6c92a5cd8b0e885d7862cc78362012165a4bfa1b656")

    def test_compile_up_six_variables_reachable(self):
        text = automaton_to_json(formula_to_automaton(parse_formula(SIX_VARIABLES, bits=1)))
        assert len(text) == 86376 and _sha256(text) == (
            "a8c82c5a10566a5e5c107e0da18d8ff4aea8004365d7918c9a8636db79af25fd")

    def test_compile_down_flagship(self):
        a = parse_automaton((SAMPLES / "safe_one.json").read_text())
        assert _sha256(format_formula(automaton_to_formula(a))) == (
            "688a50acfa9752653d97eeb38be5db17c4aa47f3a4fb0c4d0689744f03591da0")

    def test_up_down_flagship(self):
        down = automaton_to_formula(formula_to_automaton(safe_one_formula()))
        assert _sha256(format_formula(down)) == (
            "22be73df04d2baa399dea2eda7eb3ac1118c2e18c2a24e9ba3f28f2540135a21")

    @pytest.mark.parametrize("name", sorted(UP_DOWN_DIGESTS))
    def test_up_down(self, name):
        down = automaton_to_formula(all_states_automaton(parse_formula(BENCHMARK_FORMULAS[name])))
        assert _sha256(format_formula(down)) == UP_DOWN_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(UP_DOWN_DIGESTS))
    def test_up_down_reachable(self, name):
        down = automaton_to_formula(formula_to_automaton(parse_formula(BENCHMARK_FORMULAS[name])))
        assert _sha256(format_formula(down)) == UP_DOWN_DIGESTS[name]


def _is_base_pair(a, h, t):
    if not all(len(x) == 1 for x in h):
        return False
    n = frozenset(x[0] for x in h)
    for q in a.states:
        if trace_pushlast((q,), a.delta(q, n)) == t:
            return True
    return False


def _becomes(h, h2):
    """The one-step evolution relation on neighbor-trace sets."""
    fwd = all(
        any(t2 == t or (len(t2) == len(t) + 1 and t2[: len(t)] == t) for t2 in h2) for t in h
    )
    bwd = all(
        any(t2 == t or (len(t2) == len(t) + 1 and t2[: len(t)] == t) for t in h) for t2 in h2
    )
    return fwd and bwd


class TestComputeEnables:
    def test_five_state_base_pairs(self):
        closure = compute_enables(safe_one_automaton(), max_rounds=1, max_traces=20)
        pairs = closure.pairs
        assert (frozenset({("q4",), ("q5",)}), ("q1", "q5")) in pairs
        assert (frozenset(), ("q2", "q4")) in pairs

    def test_five_state_one_step_derivation(self):
        # {[q4]} drives [q2,q4]; evolving the neighbor to [q4,q5] drives
        # [q2,q4,q5] since delta(q4, {q5}) = q5
        closure = compute_enables(safe_one_automaton(), max_rounds=1, max_traces=20)
        assert (frozenset({("q4", "q5")}), ("q2", "q4", "q5")) in closure.pairs

    def test_probe_closure_bound(self):
        a = sync_probe_automaton()
        closure = compute_enables(a)
        t = len(a.traces())
        assert closure.iterations_used <= t * 2**t

    def test_probe_pairs_revalidate(self):
        a = sync_probe_automaton()
        closure = compute_enables(a)
        by_t = {}
        for h, t in closure.pairs:
            by_t.setdefault(t, set()).add(h)
        for h, t in closure.pairs:
            if _is_base_pair(a, h, t):
                continue
            # must be one inductive step from some pair in the closure
            assert any(
                _becomes(h0, h) and trace_pushlast(t0, a.delta(t0[-1], frozenset(x[-1] for x in h))) == t
                for h0, t0 in closure.pairs
            ), (h, t)

    def test_closure_contains_synchronous_pairs(self):
        a = sync_probe_automaton()
        closure = compute_enables(a).pairs
        for g in enumerate_digraphs(3, 1):
            config = initial_configuration(a, g)
            rich = {v: (config.node_state[v],) for v in g.nodes}
            for _ in range(4):
                nxt = sync_step(a, g, config)
                for v in g.nodes:
                    h = frozenset(rich[u] for u in g.incoming(v))
                    t = trace_pushlast(rich[v], nxt.node_state[v])
                    assert (h, t) in closure, (h, t)
                config = nxt
                rich = {v: trace_pushlast(rich[v], config.node_state[v]) for v in g.nodes}

    def test_guard_rejects_large_trace_sets(self):
        with pytest.raises(AutomatonTooLarge, match="max_rounds"):
            compute_enables(safe_one_automaton())  # 15 traces > default guard

    def test_requires_quasi_acyclic(self):
        cyclic = Automaton(
            bits=0, states=("q1", "q2"), init={"": "q1"}, accepting=frozenset(),
            rules={
                "q1": (TransitionRule(ELSE, "q2"),),
                "q2": (TransitionRule(ELSE, "q1"),),
            },
        )
        with pytest.raises(NotQuasiAcyclic):
            compute_enables(cyclic)


class TestAutomatonToFormula:
    def test_single_state_accept_all(self):
        a = Automaton(
            bits=1, states=("q",), init={"0": "q", "1": "q"}, accepting=frozenset({"q"}),
            rules={"q": (TransitionRule(ELSE, "q"),)},
        )
        sys = automaton_to_formula(a)
        assert equiv_exhaustive(sys, parse_formula("(mu ((X0 true)))", bits=1), 2).equivalent

    def test_single_state_accept_nothing(self):
        a = Automaton(
            bits=1, states=("q",), init={"0": "q", "1": "q"}, accepting=frozenset(),
            rules={"q": (TransitionRule(ELSE, "q"),)},
        )
        sys = automaton_to_formula(a)
        assert sys.bodies[0] == FalseF()
        for g in itertools.islice(enumerate_digraphs(2, 1), 25):
            assert lfp(sys, g)[sys.vars[0]] == frozenset()

    def test_head_is_first_variable(self):
        sys = automaton_to_formula(sync_probe_automaton())
        assert sys.vars[0] == "X0"

    def test_flagship_down_small(self):
        sys = automaton_to_formula(safe_one_automaton())
        assert equiv_exhaustive(sys, safe_one_automaton(), 2).equivalent

    def test_probe_down_matches_on_edgeless_graphs(self):
        # without edges no timing effects exist, so even the probe's formula
        # must agree there: delta(qa, {}) = qdead, nothing accepted
        sys = automaton_to_formula(sync_probe_automaton())
        for g in enumerate_digraphs(1, 1):
            if not g.edges:
                assert lfp(sys, g)[sys.vars[0]] == sync_accepting_nodes(sync_probe_automaton(), g)

    def test_compiled_machines_round_trip_back_down(self):
        # compiled machines are timing independent, the hypothesis the
        # downward construction rests on, so up-then-down must close the loop
        for base in (reach_one_formula(), boxed_one_formula()):
            a = formula_to_automaton(base)
            down = automaton_to_formula(a)
            assert equiv_exhaustive(down, base, 2).equivalent

    def test_zero_bit_automaton(self):
        a = Automaton(
            bits=0, states=("q", "r"), init={"": "q"}, accepting=frozenset({"r"}),
            rules={
                "q": (TransitionRule(ELSE, "r"),),
                "r": (TransitionRule(ELSE, "r"),),
            },
        )
        sys = automaton_to_formula(a)
        assert equiv_exhaustive(sys, a, 3).equivalent

    def test_requires_quasi_acyclic_input(self):
        cyclic = Automaton(
            bits=0, states=("q1", "q2"), init={"": "q1"}, accepting=frozenset(),
            rules={
                "q1": (TransitionRule(ELSE, "q2"),),
                "q2": (TransitionRule(ELSE, "q1"),),
            },
        )
        with pytest.raises(NotQuasiAcyclic):
            automaton_to_formula(cyclic)
