import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from automu import graphs
from automu.graphs import (
    BitWidthMismatch,
    Digraph,
    Domain,
    GraphFormatError,
    PointedDigraph,
    backward_bisimilar,
    backward_unravel,
    count_digraphs,
    digraph_to_dict,
    digraph_to_json,
    enumerate_digraphs,
    indexed_digraph,
    parse_digraph,
    random_digraph,
    random_indices,
    slice_width,
)
from strategies import pointed_digraphs, seeds


def g(bits, nodes, labels, edges):
    return Digraph(bits=bits, nodes=tuple(nodes), labels=dict(labels), edges=frozenset(edges))


class TestParsing:
    def test_minimal_valid(self):
        d = parse_digraph('{"bits": 1, "nodes": ["u"], "labels": {"u": "1"}, "edges": []}')
        assert d.nodes == ("u",)
        assert d.labels["u"] == "1"
        assert d.edges == frozenset()

    def test_empty_node_set(self):
        with pytest.raises(GraphFormatError, match="empty node set"):
            parse_digraph('{"bits": 1, "nodes": [], "labels": {}, "edges": []}')

    def test_label_width_mismatch(self):
        with pytest.raises(GraphFormatError, match="label width"):
            parse_digraph('{"bits": 2, "nodes": ["u"], "labels": {"u": "1"}, "edges": []}')

    def test_label_characters(self):
        with pytest.raises(GraphFormatError, match="label width"):
            parse_digraph('{"bits": 1, "nodes": ["u"], "labels": {"u": "x"}, "edges": []}')

    def test_undeclared_edge_endpoint(self):
        with pytest.raises(GraphFormatError, match="undeclared node"):
            parse_digraph('{"bits": 0, "nodes": ["u"], "labels": {"u": ""}, "edges": [["u", "w"]]}')

    def test_duplicate_node(self):
        with pytest.raises(GraphFormatError, match="duplicate node id"):
            parse_digraph('{"bits": 0, "nodes": ["u", "u"], "labels": {"u": ""}, "edges": []}')

    def test_arrow_in_node_id(self):
        # a timing document names the edge (u, v) "u->v", so it could not name this graph's edges
        with pytest.raises(GraphFormatError, match="node id 'a->b' contains '->'"):
            parse_digraph('{"bits": 0, "nodes": ["c", "a->b"], "labels": {"a->b": "", "c": ""}, "edges": []}')

    def test_missing_label(self):
        with pytest.raises(GraphFormatError, match="labels"):
            parse_digraph('{"bits": 1, "nodes": ["u", "v"], "labels": {"u": "1"}, "edges": []}')

    def test_malformed_json(self):
        with pytest.raises(GraphFormatError, match="not valid JSON"):
            parse_digraph("{nope")

    def test_missing_key(self):
        with pytest.raises(GraphFormatError, match="missing key"):
            parse_digraph('{"bits": 1, "nodes": ["u"], "labels": {"u": "1"}}')

    def test_round_trip(self):
        d = g(2, ["a", "b"], {"a": "01", "b": "10"}, [("a", "b"), ("b", "b")])
        assert parse_digraph(digraph_to_json(d)) == d

    def test_point_must_be_a_node(self):
        with pytest.raises(GraphFormatError, match="not a node"):
            PointedDigraph(g(0, ["u"], {"u": ""}, []), "w")


class TestIncoming:
    def test_direct_edge(self):
        d = g(0, ["u", "v"], {"u": "", "v": ""}, [("u", "v")])
        assert d.incoming("v") == {"u"}

    def test_self_loop(self):
        d = g(0, ["v"], {"v": ""}, [("v", "v")])
        assert d.incoming("v") == {"v"}

    def test_no_incoming(self):
        d = g(0, ["u", "v"], {"u": "", "v": ""}, [("u", "v")])
        assert d.incoming("u") == frozenset()

    def test_unknown_node(self):
        d = g(0, ["u"], {"u": ""}, [])
        with pytest.raises(KeyError, match="unknown node"):
            d.incoming("zz")


class TestEnumeration:
    def test_counts_single_node(self):
        assert len(list(enumerate_digraphs(1, 0))) == 2
        assert len(list(enumerate_digraphs(1, 1))) == 4

    def test_counts_two_nodes(self):
        graphs = list(enumerate_digraphs(2, 1))
        assert len(graphs) == 68
        assert len(graphs) == count_digraphs(2, 1)

    def test_closed_form(self):
        assert count_digraphs(3, 1) == 4 + 64 + 4096

    def test_every_yield_is_valid_and_order_is_stable(self):
        first = [digraph_to_dict(d) for d in enumerate_digraphs(2, 1)]
        second = [digraph_to_dict(d) for d in enumerate_digraphs(2, 1)]
        assert first == second  # deterministic order, invariants checked on build

    def test_no_duplicates(self):
        graphs = [json.dumps(digraph_to_dict(d), sort_keys=True) for d in enumerate_digraphs(2, 1)]
        assert len(set(graphs)) == len(graphs)

    def test_bad_max_nodes(self):
        with pytest.raises(ValueError):
            list(enumerate_digraphs(0, 1))

    @pytest.mark.parametrize("bits", [0, 1, 2])
    def test_indexed_digraph_reproduces_the_enumeration(self, bits):
        indexed = [
            indexed_digraph(m, bits, mask, index)
            for m in range(1, 4) for mask in range(2 ** (m * m)) for index in range(2 ** (bits * m))
        ]
        assert indexed == list(product_enumeration(3, bits)) == list(enumerate_digraphs(3, bits))


def product_enumeration(max_nodes, bits):
    """The enumeration order spelled out independently: edge subsets in
    ascending bitmask order over row-major pairs, then labelings as
    ``itertools.product`` of the label strings."""
    label_pool = ["".join(t) for t in itertools.product("01", repeat=bits)]
    for m in range(1, max_nodes + 1):
        nodes = tuple(f"n{i}" for i in range(m))
        pairs = [(u, v) for u in nodes for v in nodes]
        for mask in range(1 << (m * m)):
            edges = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
            for assignment in itertools.product(label_pool, repeat=m):
                yield Digraph(bits=bits, nodes=nodes, labels=dict(zip(nodes, assignment)), edges=edges)


def assert_domain_holds(d: Domain, gs: list[Digraph], at: list[int], rng: random.Random) -> None:
    """Digraph gs[k] is bit at[k] of every slice of d: its labels in the
    words and leaves, and its incoming neighbours under ``dia``, also of
    node sets that hold other digraphs' nodes as well."""
    width, m = d.width, d.m
    assert d.full == (1 << m * width) - 1
    for k, g in enumerate(gs):
        j = at[k]
        for i, v in enumerate(g.nodes):
            bit = i * width + j
            assert [w for w, s in d.words.items() if s >> bit & 1] == [g.labels[v]]
            assert [d.leaves[b] >> bit & 1 for b in range(g.bits)] == [int(c) for c in g.labels[v]]
        for s in range(2**m):
            inner = {g.nodes[i] for i in range(m) if s >> i & 1}
            sliced = sum(1 << i * width + j for i in range(m) if s >> i & 1)
            noise = rng.getrandbits(m * width) & ~sum(1 << i * width + j for i in range(m))
            for mixed in (sliced, sliced | noise):
                image = d.dia(mixed)
                assert [image >> i * width + j & 1 for i in range(m)] == [
                    int(bool(g.incoming(v) & inner)) for v in g.nodes]


class TestDomain:
    @pytest.mark.parametrize("bits", [0, 1, 2])
    def test_edge_mask_domain_holds_every_labeling(self, bits):
        # index i = mask * 2^(bits*m) + L of the enumeration is bit
        # i mod W of block i // W: a block holds whole edge masks here
        rng = random.Random(bits)
        for m in range(1, 4):
            width, period = slice_width(m, bits), 2 ** (bits * m)
            for mask in range(0, 2 ** (m * m), 7):
                first = mask * period
                d = Domain.of_block(m, bits, first // width)
                gs = [indexed_digraph(m, bits, mask, index) for index in range(period)]
                assert_domain_holds(d, gs, [(first + index) % width for index in range(period)], rng)

    @pytest.mark.parametrize("bits", [0, 1, 2])
    def test_blocks_partition_the_enumeration(self, bits, monkeypatch):
        # with at most 8 digraphs a block, blocks span several edge masks at
        # few labelings and split one at many
        monkeypatch.setattr(graphs, "MAX_SLICE_BITS", 3)
        rng = random.Random(bits)
        for m in range(1, 4):
            width, period = slice_width(m, bits), 2 ** (bits * m)
            assert width == min(8, 2 ** (m * m) * period)
            for block in range(0, 2 ** (m * m) * period // width, 5):
                gs = [indexed_digraph(m, bits, *divmod(block * width + j, period)) for j in range(width)]
                assert_domain_holds(Domain.of_block(m, bits, block), gs, list(range(width)), rng)

    def test_digraph_domain(self):
        g = Digraph(bits=2, nodes=("a", "b", "c"), labels={"a": "10", "b": "11", "c": "10"},
                    edges=frozenset({("a", "b"), ("b", "b"), ("c", "a")}))
        d = Domain.of_digraph(g)
        assert (d.width, d.full) == (1, 0b111)
        assert d.words == {"10": 0b101, "11": 0b010}
        assert d.leaves == (0b111, 0b010)
        assert d.dia(0b001) == 0b010 and d.dia(0b110) == 0b011 and d.dia(0) == 0

    @pytest.mark.parametrize("bits", [0, 1, 2])
    def test_digraphs_domain(self, bits):
        # any digraphs on m nodes, edges and labels drawn independently
        rng = random.Random(bits)
        for m in range(1, 5):
            for width in (1, 2, 7, 64):
                gs = []
                while len(gs) < width:
                    p = random_digraph(rng, m, bits)
                    if len(p.graph.nodes) == m:
                        gs.append(p.graph)
                assert_domain_holds(Domain.of_digraphs(gs), gs, list(range(width)), rng)

    @pytest.mark.parametrize("bits", [0, 1, 2])
    def test_indices_domain(self, bits):
        # the digraphs of (edge mask, labeling index) pairs, as sampled equiv packs them
        rng = random.Random(bits)
        for m in range(1, 5):
            for width in (1, 2, 7, 64):
                pairs = [(rng.getrandbits(m * m), rng.getrandbits(bits * m)) for _ in range(width)]
                gs = [indexed_digraph(m, bits, mask, index) for mask, index in pairs]
                assert_domain_holds(Domain.of_indices(m, bits, pairs), gs, list(range(width)), rng)


class TestBisimulation:
    def test_identity(self):
        d = g(1, ["u", "v"], {"u": "1", "v": "0"}, [("u", "v")])
        assert backward_bisimilar(PointedDigraph(d, "v"), PointedDigraph(d, "v"))

    def test_label_mismatch(self):
        a = PointedDigraph(g(1, ["u"], {"u": "1"}, []), "u")
        b = PointedDigraph(g(1, ["u"], {"u": "0"}, []), "u")
        assert not backward_bisimilar(a, b)

    def test_chain_vs_two_parents(self):
        # u -> v matched by u1 -> v', u2 -> v': relation {(v,v'),(u,u1),(u,u2)}
        left = PointedDigraph(g(1, ["u", "v"], {"u": "1", "v": "0"}, [("u", "v")]), "v")
        right = PointedDigraph(
            g(1, ["u1", "u2", "vp"], {"u1": "1", "u2": "1", "vp": "0"},
              [("u1", "vp"), ("u2", "vp")]),
            "vp",
        )
        assert backward_bisimilar(left, right)

    def test_in_degree_must_match_in_kind(self):
        # point with an incoming 1 vs point with no incoming at all
        a = PointedDigraph(g(1, ["u", "v"], {"u": "1", "v": "0"}, [("u", "v")]), "v")
        b = PointedDigraph(g(1, ["v"], {"v": "0"}, []), "v")
        assert not backward_bisimilar(a, b)

    def test_bit_width_mismatch(self):
        a = PointedDigraph(g(1, ["u"], {"u": "1"}, []), "u")
        b = PointedDigraph(g(2, ["u"], {"u": "11"}, []), "u")
        with pytest.raises(BitWidthMismatch):
            backward_bisimilar(a, b)

    @given(pointed_digraphs())
    def test_reflexive(self, p):
        assert backward_bisimilar(p, p)

    @given(pointed_digraphs(), pointed_digraphs())
    def test_symmetric(self, p, q):
        assert backward_bisimilar(p, q) == backward_bisimilar(q, p)


class TestUnravel:
    def test_depth_zero_is_a_copy(self):
        d = g(1, ["u", "v"], {"u": "1", "v": "0"}, [("u", "v"), ("v", "u")])
        p = PointedDigraph(d, "v")
        w = backward_unravel(p, 0)
        assert len(w.graph.nodes) == len(d.nodes)
        assert len(w.graph.edges) == len(d.edges)
        assert sorted(w.graph.labels.values()) == sorted(d.labels.values())
        assert backward_bisimilar(p, w)

    def test_self_loop_depth_one(self):
        p = PointedDigraph(g(1, ["v"], {"v": "1"}, [("v", "v")]), "v")
        w = backward_unravel(p, 1)
        # root path node plus one whole-graph copy
        assert len(w.graph.nodes) == 2
        assert backward_bisimilar(p, w)

    def test_dag_within_depth_is_isomorphic(self):
        d = g(1, ["u", "v"], {"u": "1", "v": "0"}, [("u", "v")])
        p = PointedDigraph(d, "v")
        w = backward_unravel(p, 2)
        # unraveling a chain beyond its depth ends at in-degree-0 copies
        assert backward_bisimilar(p, w)
        assert sorted(w.graph.labels[v] for v in w.graph.nodes) == ["0", "1"]
        assert len(w.graph.edges) == 1

    def test_negative_depth(self):
        with pytest.raises(ValueError):
            backward_unravel(PointedDigraph(g(0, ["u"], {"u": ""}, []), "u"), -1)

    @given(pointed_digraphs(max_nodes=3), st.integers(min_value=0, max_value=2))
    @settings(max_examples=40)
    def test_always_backward_bisimilar(self, p, depth):
        assert backward_bisimilar(p, backward_unravel(p, depth))


class TestRandomDigraph:
    def test_deterministic(self):
        a = random_digraph(random.Random(7), 4, 1)
        b = random_digraph(random.Random(7), 4, 1)
        assert a == b

    @given(seeds)
    def test_valid(self, seed):
        p = random_digraph(random.Random(seed), 5, 2)
        assert p.point in p.graph.nodes

    @given(seeds, st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=3))
    @settings(max_examples=60)
    def test_draws_as_the_digraph_sampler_did(self, seed, max_nodes, bits):
        # the sampler that built names and label strings as it drew: the same
        # digraph, and the generator left in the same state
        old = random.Random(seed)
        m = old.randint(1, max_nodes)
        nodes = tuple(f"n{i}" for i in range(m))
        edges = frozenset((u, v) for u in nodes for v in nodes if old.random() < 0.5)
        labels = {v: "".join(old.choice("01") for _ in range(bits)) for v in nodes}
        expected = PointedDigraph(Digraph(bits=bits, nodes=nodes, labels=labels, edges=edges),
                                  old.choice(nodes))
        new = random.Random(seed)
        m, mask, index, point = random_indices(new, max_nodes, bits)
        g = indexed_digraph(m, bits, mask, index)
        assert PointedDigraph(g, g.nodes[point]) == expected
        assert random_digraph(random.Random(seed), max_nodes, bits) == expected
        assert new.random() == old.random()
