import itertools
import random

import pytest
from hypothesis import given, settings

from automu.graphs import BitWidthMismatch, Digraph, PointedDigraph, enumerate_digraphs
from automu.logic import (
    And,
    Box,
    Const,
    Dia,
    FalseF,
    FormulaSyntaxError,
    NegConst,
    Or,
    TrueF,
    Var,
    apply_once,
    approximants,
    eval_modal,
    format_formula,
    lfp,
    lfp_iterations,
    parse_formula,
    satisfies,
)
from automu.zoo import chain_graph, safe_one_formula, single_node
from strategies import graphs, make_graph, seeds, systems


def g(bits, nodes, labels, edges):
    return Digraph(bits=bits, nodes=tuple(nodes), labels=dict(labels), edges=frozenset(edges))


class TestParsing:
    def test_flagship_formula(self):
        sys = safe_one_formula()
        assert sys.vars == ("X1", "X2")
        assert sys.bits == 1
        assert sys.bodies[0] == Or(And(Const(0), Var("X2")), Dia(Var("X1")))
        assert sys.bodies[1] == Box(Var("X2"))

    def test_unknown_variable(self):
        with pytest.raises(FormulaSyntaxError, match="unknown variable 'X9'"):
            parse_formula("(mu ((X0 (var X9))))")

    def test_trivial_true(self):
        sys = parse_formula("(mu ((X0 true)))")
        assert sys.bits == 0
        assert sys.bodies == (TrueF(),)

    def test_nary_desugars_left_associatively(self):
        sys = parse_formula("(mu ((X0 (or true false (p 0)))))")
        assert sys.bodies[0] == Or(Or(TrueF(), FalseF()), Const(0))

    def test_const_out_of_range_with_explicit_bits(self):
        with pytest.raises(FormulaSyntaxError, match="out of range"):
            parse_formula("(mu ((X0 (p 3))))", bits=2)

    @pytest.mark.parametrize("text", ["(mu ((X0 true)))", "(mu ((X0 (p 0))))"])
    def test_negative_bits_are_refused_first(self, text):
        with pytest.raises(FormulaSyntaxError, match=r"^bits must be >= 0, got -1$"):
            parse_formula(text, bits=-1)

    def test_inferred_bits(self):
        assert parse_formula("(mu ((X0 (p 3))))").bits == 4

    @pytest.mark.parametrize("index", ["²", "٣", "-1"])
    def test_const_index_takes_ascii_digits_only(self, index):
        for head in ("p", "not-p"):
            with pytest.raises(FormulaSyntaxError, match=f"\\({head} <int>\\) expected"):
                parse_formula(f"(mu ((X ({head} {index}))))")

    def test_unbalanced(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("(mu ((X0 true))")

    def test_bare_atom(self):
        with pytest.raises(FormulaSyntaxError, match="bare atom"):
            parse_formula("(mu ((X0 X0)))")

    def test_duplicate_variable(self):
        with pytest.raises(FormulaSyntaxError, match="duplicate"):
            parse_formula("(mu ((X0 true) (X0 false)))")

    def test_variables_cannot_be_negated(self):
        # the grammar has no negation form at all except on constants
        with pytest.raises(FormulaSyntaxError):
            parse_formula("(mu ((X0 (not (var X0)))))")

    def test_format_round_trip_flagship(self):
        sys = safe_one_formula()
        assert parse_formula(format_formula(sys)) == sys

    @given(systems())
    @settings(max_examples=50)
    def test_format_round_trip_random(self, sys):
        assert parse_formula(format_formula(sys), bits=sys.bits) == sys

    def test_wide_formula_walks_without_recursion(self):
        # 3,000 arguments desugar to a chain 3,000 deep, past the recursion limit
        sys = parse_formula("(mu ((X (or " + "(dia (var X)) (p 2) " * 1500 + "))))")
        assert sys.bits == 3
        assert format_formula(sys).count("(or ") == 2999
        assert lfp(sys, g(3, ["u", "v"], {"u": "001", "v": "000"}, [("u", "v")]))["X"] == {"u", "v"}


class TestEvalModal:
    def test_box_vacuous_at_in_degree_zero(self):
        d = g(0, ["v"], {"v": ""}, [])
        assert eval_modal(Box(FalseF()), d, {}) == {"v"}

    def test_dia_clause(self):
        d = g(0, ["u", "v"], {"u": "", "v": ""}, [("u", "v")])
        assert eval_modal(Dia(Var("X")), d, {"X": {"u"}}) == {"v"}

    def test_contradiction(self):
        d = g(1, ["u", "v"], {"u": "1", "v": "0"}, [("u", "v")])
        assert eval_modal(And(Const(0), NegConst(0)), d, {}) == frozenset()

    def test_constants(self):
        d = g(2, ["u", "v"], {"u": "10", "v": "01"}, [])
        assert eval_modal(Const(0), d, {}) == {"u"}
        assert eval_modal(Const(1), d, {}) == {"v"}

    def test_missing_variable(self):
        d = g(0, ["v"], {"v": ""}, [])
        with pytest.raises(KeyError, match="missing variable"):
            eval_modal(Var("X"), d, {})


class TestLfp:
    def test_single_node_hand_iteration(self):
        p = single_node("1")
        chain = list(approximants(safe_one_formula(), p.graph))
        assert chain == [
            {"X1": frozenset(), "X2": frozenset()},
            {"X1": frozenset(), "X2": frozenset({"v"})},
            {"X1": frozenset({"v"}), "X2": frozenset({"v"})},
        ]
        val, steps = lfp_iterations(safe_one_formula(), p.graph)
        assert steps == 3  # the bound (k+1)*|V| + 1 is met exactly here
        assert satisfies(safe_one_formula(), p)

    def test_self_loop_stays_empty(self):
        p = single_node("1", self_loop=True)
        assert lfp(safe_one_formula(), p.graph) == {"X1": frozenset(), "X2": frozenset()}
        assert not satisfies(safe_one_formula(), p)

    def test_all_true_in_one_application(self):
        sys = parse_formula("(mu ((A true) (B true)))", bits=1)
        d = make_graph(random.Random(1), 4, 1)
        chain = list(approximants(sys, d))
        assert len(chain) == 2
        assert chain[1] == {"A": frozenset(d.nodes), "B": frozenset(d.nodes)}

    def test_chain_satisfied_at_sink(self):
        assert satisfies(safe_one_formula(), PointedDigraph(chain_graph(), "v"))

    def test_zero_labeled_isolated_node(self):
        assert not satisfies(safe_one_formula(), single_node("0"))

    def test_mu_false(self):
        sys = parse_formula("(mu ((X0 false)))", bits=1)
        for d in itertools.islice(enumerate_digraphs(2, 1), 20):
            assert lfp(sys, d)["X0"] == frozenset()

    def test_bit_width_mismatch(self):
        with pytest.raises(BitWidthMismatch):
            lfp(parse_formula("(mu ((X0 true)))", bits=2), single_node("1").graph)


def _subsets(nodes):
    for r in range(1 << len(nodes)):
        yield frozenset(n for i, n in enumerate(nodes) if r >> i & 1)


class TestOperatorProperties:
    @given(systems(max_vars=2, depth=3), graphs(max_nodes=3), seeds)
    @settings(max_examples=60)
    def test_monotone(self, sys, d, seed):
        rng = random.Random(seed)
        small, big = {}, {}
        for x in sys.vars:
            lo = frozenset(v for v in d.nodes if rng.random() < 0.4)
            hi = lo | frozenset(v for v in d.nodes if rng.random() < 0.4)
            small[x], big[x] = lo, hi
        out_small = apply_once(sys, d, small)
        out_big = apply_once(sys, d, big)
        assert all(out_small[x] <= out_big[x] for x in sys.vars)

    @given(systems(max_vars=3), graphs(max_nodes=4))
    @settings(max_examples=60)
    def test_chain_nondecreasing_and_bounded(self, sys, d):
        chain = list(approximants(sys, d))
        for prev, cur in zip(chain, chain[1:]):
            assert all(prev[x] <= cur[x] for x in sys.vars)
        _, steps = lfp_iterations(sys, d)
        assert steps <= len(sys.vars) * len(d.nodes) + 1

    @given(systems(max_vars=3), graphs(max_nodes=4))
    @settings(max_examples=60)
    def test_fixpoint_property(self, sys, d):
        val = lfp(sys, d)
        assert apply_once(sys, d, val) == val

    @given(systems(max_vars=2, depth=2))
    @settings(max_examples=20)
    def test_prefixpoint_minimality_exhaustive(self, sys):
        # every pre-fixpoint contains the least fixpoint; exhaustive over all
        # valuations on all graphs with <= 2 nodes
        for d in enumerate_digraphs(2, 1):
            least = lfp(sys, d)
            assignments = [_subsets(d.nodes) for _ in sys.vars]
            for combo in itertools.product(*[list(a) for a in assignments]):
                val = dict(zip(sys.vars, combo))
                image = apply_once(sys, d, val)
                if all(image[x] <= val[x] for x in sys.vars):
                    assert all(least[x] <= val[x] for x in sys.vars)
