import functools
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from automu import graphs
from automu.automata import ELSE, Automaton, SubsetEq, SupsetEq, TransitionRule, parse_automaton
from automu.graphs import (
    BitWidthMismatch,
    Digraph,
    Domain,
    PointedDigraph,
    backward_bisimilar,
    enumerate_digraphs,
    indexed_digraph,
    random_digraph,
    slice_width,
)
from automu.harness import (
    Counterexample,
    EquivVerdict,
    _accepting_mask,
    _exhaustive_slice,
    accepted_nodes,
    bisim_invariance_check,
    device_accepts,
    equiv_exhaustive,
    equiv_sampled,
)
from automu.logic import And, MuSystem, TrueF, parse_formula
from automu.runtime import sync_accepting_mask, sync_accepting_nodes
from automu.transform import automaton_to_formula, formula_to_automaton
from automu.zoo import chain_graph, safe_one_automaton, safe_one_formula, single_node
from strategies import automata, make_pointed, systems
from test_kernel import BENCHMARK_FORMULAS
from test_runtime import sync_step_accepting_nodes

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def reference_scan(d1, d2, digraphs):
    """The scan graph by graph that the sliced scan replaced: one evaluation
    per device and digraph; the first disagreement (or None) and the points
    checked up to it."""
    checked = 0
    for g in digraphs:
        s1 = accepted_nodes(d1, g)
        s2 = accepted_nodes(d2, g)
        checked += len(g.nodes)
        if s1 != s2:
            point = next(v for v in g.nodes if (v in s1) != (v in s2))
            return Counterexample(g, point, point in s1, point in s2), checked
    return None, checked


def reference_verdict(d1, d2, max_nodes: int) -> EquivVerdict:
    cex, checked = reference_scan(d1, d2, enumerate_digraphs(max_nodes, d1.bits))
    return EquivVerdict(equivalent=cex is None, checked=checked, counterexample=cex)


def all_points(max_nodes: int, bits: int) -> int:
    """``checked`` of a scan that finds no disagreement."""
    return sum(m * 2 ** (m * m) * 2 ** (bits * m) for m in range(1, max_nodes + 1))


def block_digraph(m: int, bits: int, block: int, j: int) -> Digraph:
    """Digraph j of block ``block`` at m nodes (see ``Domain.of_block``)."""
    return indexed_digraph(m, bits, *divmod(block * slice_width(m, bits) + j, 2 ** (bits * m)))


def assert_blocks_match_graphs(d, blocks, positions=None, reference=accepted_nodes) -> None:
    """On every digraph of every (m, block) in ``blocks`` (or at the given
    positions of each), the device's sliced acceptance agrees with
    ``reference`` (by default ``accepted_nodes``) on that one digraph."""
    for m, block in blocks:
        width = slice_width(m, d.bits)
        got = _accepting_mask(d, Domain.of_block(m, d.bits, block))
        for j in range(width) if positions is None else positions:
            g = block_digraph(m, d.bits, block, j)
            sliced = {v for i, v in enumerate(g.nodes) if got >> i * width + j & 1}
            assert sliced == reference(d, g), g


def all_blocks(max_nodes: int, bits: int) -> list[tuple[int, int]]:
    return [(m, block) for m in range(1, max_nodes + 1)
            for block in range(2 ** (m * m + bits * m) // slice_width(m, bits))]


def reference_sampled(d1, d2, max_nodes: int, samples: int, seed: int) -> EquivVerdict:
    """Sampled equiv one sample at a time: the same draws, each compared by
    ``device_accepts`` at its point."""
    rng = random.Random(seed)
    for k, s in enumerate([rng.randrange(2**32) for _ in range(samples)]):
        p = random_digraph(random.Random(s), max_nodes, d1.bits)
        v1, v2 = device_accepts(d1, p), device_accepts(d2, p)
        if v1 != v2:
            return EquivVerdict(False, k + 1, Counterexample(p.graph, p.point, v1, v2))
    return EquivVerdict(True, samples)


# a 0-bit automaton whose run cycles with a period that depends on the edge
# mask: a node without in-neighbours loops through a0 a1 a2, one with them
# through b0 b1 and moves to the accepting sink once it sees a2 from b1, so
# a block of several edge masks repeats jointly only after many steps
MASK_PERIOD = Automaton(
    bits=0,
    states=("a0", "a1", "a2", "b0", "b1", "hit"),
    init={"": "a0"},
    rules={
        **{f"a{i}": (TransitionRule(SubsetEq(frozenset()), f"a{(i + 1) % 3}"), TransitionRule(ELSE, "b0"))
           for i in range(3)},
        "b0": (TransitionRule(ELSE, "b1"),),
        "b1": (TransitionRule(SupsetEq(frozenset({"a2"})), "hit"), TransitionRule(ELSE, "b0")),
        "hit": (TransitionRule(ELSE, "hit"),),
    },
    accepting=frozenset({"hit"}),
)


# the devices of the round-trip benchmark and the samples: the five
# benchmark formulas, their compile-ups, the sample automata and the
# compile-down of the flagship automaton
DEVICE_NAMES = (
    [f"formula:{name}" for name in BENCHMARK_FORMULAS]
    + [f"up:{name}" for name in BENCHMARK_FORMULAS]
    + [f"sample:{p.name}" for p in sorted(SAMPLES.glob("*.json")) if '"states"' in p.read_text()]
    + ["down:safe_one.json", "cyclic:mask_period", "formula0:reach_a_source"]
)


@functools.cache
def device(name: str):
    kind, _, arg = name.partition(":")
    if kind == "formula":
        return parse_formula(BENCHMARK_FORMULAS[arg])
    if kind == "up":
        return formula_to_automaton(device(f"formula:{arg}"))
    if kind == "sample":
        return parse_automaton((SAMPLES / arg).read_text())
    if kind == "cyclic":
        return MASK_PERIOD
    if kind == "formula0":  # a backward path from a node without in-neighbours
        return parse_formula("(mu ((X (or (box false) (dia (var X))))))")
    return automaton_to_formula(device(f"sample:{arg}"))


class TestExhaustive:
    def test_devices_equal_themselves(self):
        for d in (safe_one_automaton(), safe_one_formula()):
            assert equiv_exhaustive(d, d, 2).equivalent

    def test_flagship_pair(self):
        verdict = equiv_exhaustive(safe_one_automaton(), safe_one_formula(), 2)
        assert verdict.equivalent
        assert verdict.checked == 4 * 1 + 64 * 2  # pointed instances at m <= 2

    def test_true_vs_false_first_counterexample(self):
        t = parse_formula("(mu ((X0 true)))")
        f = parse_formula("(mu ((X0 false)))")
        verdict = equiv_exhaustive(t, f, 2)
        assert not verdict.equivalent
        cex = verdict.counterexample
        # the very first enumerated digraph: one node, no edges
        assert cex.graph.nodes == ("n0",)
        assert cex.graph.edges == frozenset()
        assert cex.point == "n0"
        assert (cex.verdict1, cex.verdict2) == (True, False)

    def test_counterexample_replays(self):
        t = parse_formula("(mu ((X0 true)))")
        f = parse_formula("(mu ((X0 false)))")
        cex = equiv_exhaustive(t, f, 2).counterexample
        p = PointedDigraph(cex.graph, cex.point)
        assert device_accepts(t, p) == cex.verdict1
        assert device_accepts(f, p) == cex.verdict2

    def test_counterexample_serialization(self):
        t = parse_formula("(mu ((X0 true)))")
        f = parse_formula("(mu ((X0 false)))")
        doc = equiv_exhaustive(t, f, 1).to_dict()
        assert doc["verdict"] == "counterexample"
        assert doc["d1"] is True and doc["d2"] is False
        json.dumps(doc)

    def test_bit_width_mismatch(self):
        with pytest.raises(BitWidthMismatch):
            equiv_exhaustive(parse_formula("(mu ((X0 (p 1))))"), safe_one_automaton(), 1)

    def test_parallel_matches_sequential(self):
        t = parse_formula("(mu ((X0 (p 0))))", bits=1)
        f = parse_formula("(mu ((X0 false)))", bits=1)
        seq = equiv_exhaustive(t, f, 2)
        par = equiv_exhaustive(t, f, 2, jobs=2)
        assert seq.counterexample == par.counterexample

    def test_parallel_matches_sequential_on_a_late_disagreement(self):
        # the point is labeled 11 and has in-neighbours labeled 10 and 01,
        # and each of the three has an in-neighbour with its own label: on at
        # most 3 nodes the labels are unique, so every node has a self-loop
        # and the first witness is edge mask 309 of the 512 at 3 nodes, in
        # the second of two or three slices
        three_loops = parse_formula(
            "(mu ((X (and (and (and (p 0) (p 1)) (dia (and (p 0) (p 1))))"
            "             (and (dia (and (and (p 0) (not-p 1)) (dia (and (p 0) (not-p 1)))))"
            "                  (dia (and (and (not-p 0) (p 1)) (dia (and (not-p 0) (p 1))))))))))"
        )
        nothing = parse_formula("(mu ((X false)))", bits=2)
        verdicts = [equiv_exhaustive(three_loops, nothing, 3, jobs=jobs) for jobs in (1, 2, 3)]
        assert verdicts[0] == verdicts[1] == verdicts[2] == reference_verdict(three_loops, nothing, 3)
        cex = verdicts[0].counterexample
        assert cex.graph == indexed_digraph(3, 2, 309, 27) and cex.point == "n2"
        # 1- and 2-node graphs, 309 edge masks of 64 labelings, 28 labelings
        assert verdicts[0].checked == 8 + 512 + 309 * 64 * 3 + 28 * 3 == 59932


class TestSlicedScan:
    """The sliced scan against the scan graph by graph it replaced.  Each
    device's sliced acceptance is checked on every digraph of at most 3
    nodes, so the two scans see the same disagreements; the scans are then
    compared on every pair of devices: verdict, ``checked``, graph and point."""

    @pytest.mark.parametrize("name", DEVICE_NAMES)
    def test_device_exhaustive(self, name):
        d = device(name)
        assert_blocks_match_graphs(d, all_blocks(3, d.bits))

    @pytest.mark.parametrize("name", DEVICE_NAMES)
    def test_device_on_sampled_4_node_edge_masks(self, name):
        # as many digraphs as 12 whole 4-node edge masks hold, 12 * 2^(4 bits),
        # checked at the same positions of three blocks of 4096 digraphs each
        d = device(name)
        rng = random.Random(name)
        width = slice_width(4, d.bits)
        blocks = 2 ** (16 + 4 * d.bits) // width
        positions = min(width, 12 * 2 ** (4 * d.bits) // 3)
        assert_blocks_match_graphs(d, [(4, rng.randrange(blocks)) for _ in range(3)],
                                   sorted(rng.sample(range(width), positions)))

    @pytest.mark.parametrize("name", DEVICE_NAMES)
    def test_scans_agree_with_every_later_device(self, name):
        d1 = device(name)
        for other in DEVICE_NAMES[DEVICE_NAMES.index(name) + 1:]:
            d2 = device(other)
            if d2.bits != d1.bits:
                continue
            got = equiv_exhaustive(d1, d2, 3)
            if got.equivalent:  # the device tests give the reference this verdict
                assert got.checked == all_points(3, d1.bits), other
            else:
                assert got == reference_verdict(d1, d2, 3), other

    def test_scans_agree_on_sampled_4_node_edge_masks(self, monkeypatch):
        # with 16 digraphs a block, block 1 + 4 + 256 + mask of the scan is
        # the 16 digraphs enumerate_digraphs yields for 4-node edge mask
        # ``mask`` (indexed_digraph reproduces them, see test_graphs)
        monkeypatch.setattr(graphs, "MAX_SLICE_BITS", 4)
        dead_end_one = parse_formula("(mu ((X0 (and (p 0) (box false)))))")
        rng = random.Random(4)
        for mask in sorted(rng.sample(range(2**16), 6)):
            block = 1 + 4 + 256 + mask
            graphs_of_block = [indexed_digraph(4, 1, mask, index) for index in range(16)]
            for d2 in (safe_one_formula(), dead_end_one):
                got = _exhaustive_slice(safe_one_automaton(), d2, 4, block, block + 1)
                assert got == reference_scan(safe_one_automaton(), d2, graphs_of_block), mask

    @settings(max_examples=25)
    @given(st.integers(min_value=0, max_value=2).flatmap(
        lambda bits: st.tuples(systems(bits=bits, max_vars=3), automata(max_states=4, bits=bits))))
    def test_random_devices(self, case):
        # automata with non-trivial cycles included: the run stops when the
        # whole sliced configuration repeats or after |Q|^m configurations
        system, automaton = case
        nodes = 3 if system.bits < 2 else 2
        for d in case:
            assert_blocks_match_graphs(d, all_blocks(nodes, d.bits))
        # the wide domains' region splitting against the rule-list run, which splits nothing
        assert_blocks_match_graphs(automaton, all_blocks(nodes, automaton.bits), reference=sync_step_accepting_nodes)
        assert equiv_exhaustive(system, automaton, nodes) == reference_verdict(system, automaton, nodes)

    def test_run_bound_on_mixed_periods(self):
        # the 1-node block holds the digraph without and with a self-loop,
        # whose runs cycle with periods 3 and 2 (the second after one step):
        # the joint configuration first repeats at step 7, and the run stops
        # after |Q|^1 = 6 configurations
        a = MASK_PERIOD
        for m in (1, 2, 3):
            for block in range(2 ** (m * m) // slice_width(m, 0)):
                width = slice_width(m, 0)
                got = sync_accepting_mask(a, Domain.of_block(m, 0, block))
                for j in range(width):
                    g = block_digraph(m, 0, block, j)
                    want = sync_accepting_nodes(a, g)
                    assert {v for i, v in enumerate(g.nodes) if got >> i * width + j & 1} == want, g
                    if m < 3:
                        assert want == sync_step_accepting_nodes(a, g), g

    def test_blocks_of_labelings(self, monkeypatch):
        # with at most 32 digraphs a block, a block at 2 bits spans two edge
        # masks at 1 and 2 nodes and holds half of one at 3 nodes; with at
        # most 4, every block splits one edge mask; the scan must not notice
        small = parse_formula("(mu ((X (and (p 1) (dia (and (p 0) (not-p 1)))))))")
        nothing = parse_formula("(mu ((X false)))", bits=2)
        whole = equiv_exhaustive(small, nothing, 3)
        up = device("up:two_and")
        for top, width in ((5, 32), (2, 4)):
            monkeypatch.setattr(graphs, "MAX_SLICE_BITS", top)
            assert [slice_width(m, 2) for m in (1, 2, 3)] == [min(8, width), width, width]
            assert equiv_exhaustive(small, nothing, 3) == whole == reference_verdict(small, nothing, 3)
            assert_blocks_match_graphs(device("formula:two_and"), all_blocks(3, 2))
            assert_blocks_match_graphs(up, all_blocks(3, 2)[::37])
            assert equiv_exhaustive(up, device("formula:two_and"), 3).checked == all_points(3, 2)


class TestSampled:
    def test_identical_devices(self):
        a = safe_one_automaton()
        assert equiv_sampled(a, a, 4, 50, seed=1).equivalent

    def test_flagship_pair_500_samples(self):
        verdict = equiv_sampled(safe_one_automaton(), safe_one_formula(), 5, 500, seed=0)
        assert verdict.equivalent
        assert verdict.checked == 500

    def test_deterministic(self):
        t = parse_formula("(mu ((X0 (p 0))))", bits=1)
        f = parse_formula("(mu ((X0 false)))", bits=1)
        v1 = equiv_sampled(t, f, 3, 40, seed=9)
        v2 = equiv_sampled(t, f, 3, 40, seed=9)
        assert v1 == v2
        assert not v1.equivalent

    def test_parallel_matches_sequential(self):
        t = parse_formula("(mu ((X0 (p 0))))", bits=1)
        f = parse_formula("(mu ((X0 false)))", bits=1)
        seq = equiv_sampled(t, f, 3, 40, seed=9)
        par = equiv_sampled(t, f, 3, 40, seed=9, jobs=2)
        assert seq.counterexample == par.counterexample

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_early_and_late_counterexamples(self, jobs):
        # true vs false disagrees at the first sample; a point with
        # in-neighbours, all of them sources labeled 1, is rare enough at 4
        # nodes that the first witness lies several batches in (batch 7 of
        # samples 64-127, and batch 9 of samples 256-399)
        rare = parse_formula("(mu ((X (and (dia true) (box (and (p 0) (box false)))))))")
        nothing = parse_formula("(mu ((X false)))", bits=1)
        everything = parse_formula("(mu ((X true)))", bits=1)
        for d1, d2, seed in ((everything, nothing, 3), (rare, nothing, 0), (rare, nothing, 7)):
            got = equiv_sampled(d1, d2, 4, 400, seed=seed, jobs=jobs)
            assert got == reference_sampled(d1, d2, 4, 400, seed)
        assert equiv_sampled(everything, nothing, 4, 400, seed=3, jobs=jobs).checked == 1
        assert [equiv_sampled(rare, nothing, 4, 400, seed=seed).checked for seed in (0, 7)] == [65, 357]

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2).flatmap(
        lambda bits: st.tuples(systems(bits=bits, max_vars=3), automata(max_states=4, bits=bits))),
        st.integers(min_value=0, max_value=2**16))
    def test_batches_match_the_sample_by_sample_scan(self, case, seed):
        # equivalent pairs (each device against itself, the system also
        # against a copy whose first body is and-ed with true) and the
        # system against the automaton, which mostly disagree early
        system, automaton = case
        padded = MuSystem(bits=system.bits, vars=system.vars,
                          bodies=(And(system.bodies[0], TrueF()), *system.bodies[1:]))
        for d1, d2 in ((system, padded), (automaton, automaton), (system, automaton)):
            want = reference_sampled(d1, d2, 4, 150, seed)
            for jobs in (1, 2, 3):
                assert equiv_sampled(d1, d2, 4, 150, seed=seed, jobs=jobs) == want

    def test_bounded_scope_misses_large_motifs(self):
        # X0 marks nodes whose every backward path is an exact 3-step descent
        # to an in-degree-0 node labeled 1; the levels are mutually exclusive,
        # so witnesses need 4 distinct nodes and no check at <= 3 can see one
        ladder = parse_formula(
            "(mu ((X0 (and (dia (var L2)) (box (var L2))))"
            "     (L2 (and (dia (var L1)) (box (var L1))))"
            "     (L1 (and (dia (var L0)) (box (var L0))))"
            "     (L0 (and (p 0) (box false)))))"
        )
        nothing = parse_formula("(mu ((X0 false)))", bits=1)
        assert equiv_exhaustive(ladder, nothing, 3).equivalent  # bounded != proof
        chain4 = Digraph(
            bits=1,
            nodes=("a", "b", "c", "d"),
            labels={"a": "1", "b": "0", "c": "0", "d": "0"},
            edges=frozenset({("a", "b"), ("b", "c"), ("c", "d")}),
        )
        assert device_accepts(ladder, PointedDigraph(chain4, "d"))
        assert not device_accepts(nothing, PointedDigraph(chain4, "d"))


class TestDispatch:
    def test_accepted_nodes_agree_with_device_accepts(self):
        g = chain_graph()
        for d in (safe_one_automaton(), safe_one_formula()):
            nodes = accepted_nodes(d, g)
            for v in g.nodes:
                assert (v in nodes) == device_accepts(d, PointedDigraph(g, v))

    def test_rejects_non_devices(self):
        with pytest.raises(TypeError):
            accepted_nodes(object(), chain_graph())


class TestBisimInvariance:
    def test_flagship_on_random_graphs(self):
        a = safe_one_automaton()
        rng = random.Random(0)
        for _ in range(20):
            p = make_pointed(rng, 3, 1)
            for depth in (1, 2):
                verdict = bisim_invariance_check(a, p, depth)
                assert verdict.ok, (p, depth, verdict)

    def test_depth_zero_trivially_passes(self):
        verdict = bisim_invariance_check(safe_one_automaton(), single_node("1"), 0)
        assert verdict.ok and verdict.bisimilar and verdict.invariant

    def test_negative_control_mutated_label(self):
        # corrupt the witness by flipping a label: bisimilarity itself must
        # fail, which the verdict keeps separate from invariance
        p = single_node("1")
        corrupted = single_node("0")
        assert not backward_bisimilar(p, corrupted)
        verdict = bisim_invariance_check(safe_one_automaton(), p, 1)
        assert verdict.bisimilar  # the honest witness is fine
        assert verdict.ok == (verdict.bisimilar and verdict.invariant)
