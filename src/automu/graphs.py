"""Finite labeled digraphs.

A digraph here is a finite nonempty set of nodes, a set of directed edges
(self-loops allowed, no multi-edges), and a fixed-width bit label on every
node.  This module owns parsing and validation of the JSON graph format,
exhaustive enumeration of all small digraphs, the bitsliced domains the
device kernels evaluate on, backward bisimulation checking, and backward
unraveling (a generator of bisimilar witnesses).
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence


class GraphFormatError(ValueError):
    """A graph document is malformed or violates a digraph invariant."""


class BitWidthMismatch(ValueError):
    """Two objects that must agree on label width do not."""


Edge = tuple[str, str]


@dataclass(frozen=True, eq=True)
class Digraph:
    """Immutable labeled digraph.

    Invariants (checked on construction): the node list is nonempty and free
    of duplicates, no node id contains ``->``, every node has a label of
    exactly ``bits`` characters from ``{'0','1'}``, and every edge endpoint
    is a declared node.
    """

    bits: int
    nodes: tuple[str, ...]
    labels: dict[str, str]
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        if self.bits < 0:
            raise GraphFormatError("bits must be >= 0")
        if not self.nodes:
            raise GraphFormatError("empty node set: a digraph needs at least one node")
        if len(set(self.nodes)) != len(self.nodes):
            dup = next(n for n in self.nodes if self.nodes.count(n) > 1)
            raise GraphFormatError(f"duplicate node id {dup!r}")
        arrow = next((n for n in self.nodes if "->" in n), None)
        if arrow is not None:  # a timing document names the edge (u, v) "u->v"
            raise GraphFormatError(f"node id {arrow!r} contains '->', which timing documents use to name an edge")
        declared = set(self.nodes)
        if set(self.labels) != declared:
            odd = set(self.labels) ^ declared
            raise GraphFormatError(f"labels must cover exactly the declared nodes; mismatch at {sorted(odd)!r}")
        for node, label in self.labels.items():
            if len(label) != self.bits or any(c not in "01" for c in label):
                raise GraphFormatError(
                    f"label width: node {node!r} has label {label!r}, expected {self.bits} bits"
                )
        for u, v in self.edges:
            if u not in declared or v not in declared:
                raise GraphFormatError(f"edge ({u!r}, {v!r}) references an undeclared node")

    @cached_property
    def incoming_map(self) -> dict[str, frozenset[str]]:
        inc: dict[str, set[str]] = {v: set() for v in self.nodes}
        for u, v in self.edges:
            inc[v].add(u)
        return {v: frozenset(s) for v, s in inc.items()}

    @cached_property
    def sorted_edges(self) -> tuple[Edge, ...]:
        """The edges in sorted order, the order timings index them in (not
        the hash order of the frozenset)."""
        return tuple(sorted(self.edges))

    @cached_property
    def edge_endpoints(self) -> tuple[tuple[int, int], ...]:
        """Each of ``sorted_edges`` as (source, target) indices into ``nodes``."""
        node = {v: i for i, v in enumerate(self.nodes)}
        # from a list, not a generator: in CPython, tuple(<generator>) leaves the
        # collector's allocation count raised, and fuzz builds one per graph
        return tuple([(node[u], node[v]) for u, v in self.sorted_edges])

    @cached_property
    def in_edges(self) -> tuple[int, ...]:
        """Per node, in ``nodes`` order, the mask of the ``sorted_edges``
        indices that point into it."""
        masks = [0] * len(self.nodes)
        for j, (_, v) in enumerate(self.edge_endpoints):
            masks[v] |= 1 << j
        return tuple(masks)

    def incoming(self, v: str) -> frozenset[str]:
        """Set of incoming neighbors of ``v``: all u with an edge u -> v."""
        if v not in self.incoming_map:
            raise KeyError(f"unknown node id {v!r}")
        return self.incoming_map[v]


@dataclass(frozen=True, eq=True)
class PointedDigraph:
    """A digraph with one distinguished evaluation node."""

    graph: Digraph
    point: str

    def __post_init__(self) -> None:
        if self.point not in self.graph.nodes:
            raise GraphFormatError(f"point {self.point!r} is not a node of the graph")


def parse_digraph(text: str) -> Digraph:
    """Parse the JSON graph document format.

    ``{"bits": 1, "nodes": ["u"], "labels": {"u": "1"}, "edges": [["u","u"]]}``
    Label strings are big-endian: character i is bit i of the node's label.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise GraphFormatError(f"not valid JSON: {exc}") from exc
    return digraph_from_dict(doc)


def digraph_from_dict(doc: object) -> Digraph:
    if not isinstance(doc, dict):
        raise GraphFormatError("graph document must be a JSON object")
    for key in ("bits", "nodes", "labels", "edges"):
        if key not in doc:
            raise GraphFormatError(f"missing key {key!r}")
    bits, nodes, labels, edges = doc["bits"], doc["nodes"], doc["labels"], doc["edges"]
    if type(bits) is not int:  # a JSON true or false is an int subclass, not an integer
        raise GraphFormatError("'bits' must be an integer")
    if not isinstance(nodes, list) or not all(isinstance(n, str) for n in nodes):
        raise GraphFormatError("'nodes' must be a list of strings")
    if not isinstance(labels, dict) or not all(isinstance(x, str) for x in labels.values()):
        raise GraphFormatError("'labels' must map node ids to label strings")
    if not isinstance(edges, list):
        raise GraphFormatError("'edges' must be a list of [src, dst] pairs")
    edge_set = set()
    for i, e in enumerate(edges):
        if not (isinstance(e, list) and len(e) == 2 and all(isinstance(x, str) for x in e)):
            raise GraphFormatError(f"edge #{i} must be a [src, dst] pair of strings")
        edge_set.add((e[0], e[1]))
    return Digraph(bits=bits, nodes=tuple(nodes), labels=dict(labels), edges=frozenset(edge_set))


def digraph_to_dict(g: Digraph) -> dict:
    return {
        "bits": g.bits,
        "nodes": list(g.nodes),
        "labels": {v: g.labels[v] for v in g.nodes},
        "edges": [list(e) for e in sorted(g.edges)],
    }


def digraph_to_json(g: Digraph) -> str:
    return json.dumps(digraph_to_dict(g), indent=2)


def labeling(m: int, bits: int, index: int) -> tuple[str, ...]:
    """The labels of nodes n0..n_{m-1} in labeling ``index`` of the
    enumeration order: the index written in binary with bits*m digits, node 0
    most significant, character i of a label its bit i.  Labelings are thus
    lexicographic in the nodes' labels."""
    digits = format(index | 1 << bits * m, "b")[1:]  # a leading 1 keeps bits*m digits, even 0
    return tuple(digits[v * bits:(v + 1) * bits] for v in range(m))


def edge_pairs(m: int, mask: int) -> list[tuple[int, int]]:
    """The edges (u, v) of node indices that edge mask ``mask`` holds at m
    nodes: bit u*m + v stands for the edge u -> v (row-major pair order)."""
    return [(i // m, i % m) for i in range(m * m) if mask >> i & 1]


def indexed_digraph(m: int, bits: int, mask: int, index: int) -> Digraph:
    """The digraph on nodes n0..n_{m-1} with edge mask ``mask`` and labeling
    ``index`` (see ``labeling`` and ``edge_pairs``)."""
    nodes = tuple(f"n{i}" for i in range(m))
    return Digraph(
        bits=bits,
        nodes=nodes,
        labels=dict(zip(nodes, labeling(m, bits, index))),
        edges=frozenset((nodes[u], nodes[v]) for u, v in edge_pairs(m, mask)),
    )


def enumerate_digraphs(max_nodes: int, bits: int) -> Iterator[Digraph]:
    """Yield every digraph on node sets {n0..n_{m-1}} for 1 <= m <= max_nodes.

    For each node count m, all 2^(m*m) edge masks are enumerated in
    ascending order, and for each edge mask all 2^(bits*m) labelings in
    index order, which is lexicographic in the nodes' labels
    (``indexed_digraph`` defines both).  No isomorphism reduction is
    attempted, so the total count is sum over m of 2^(m*m) * 2^(bits*m).
    """
    if max_nodes < 1:
        raise ValueError("max_nodes must be >= 1")
    for m in range(1, max_nodes + 1):
        for mask in range(1 << (m * m)):
            for index in range(1 << (bits * m)):
                yield indexed_digraph(m, bits, mask, index)


def count_digraphs(max_nodes: int, bits: int) -> int:
    """Closed form for the number of digraphs enumerate_digraphs yields."""
    return sum(2 ** (m * m) * 2 ** (bits * m) for m in range(1, max_nodes + 1))


class Domain:
    """The node sets of W digraphs on the same m nodes, held in one int
    each.  Node v owns the slice of bits [v*W, (v+1)*W), bit j of each slice
    standing for digraph j; the digraphs may differ in their labels and
    edges.

    A single digraph is the W = 1 domain (``of_digraph``), and any W of
    them one domain of width W (``of_digraphs``).  A block of the
    enumeration is the domain of 2^MAX_SLICE_BITS consecutive digraphs
    (``of_block``): all labelings of several edge masks when labelings are
    few, part of one edge mask's when they are many.  ``dia`` is memoized
    per domain."""

    __slots__ = ("m", "width", "full", "words", "leaves", "_sources", "_image")

    def __init__(self, m: int, width: int, edges: Mapping[tuple[int, int], int],
                 words: Mapping[str, int], bits: int):
        """``edges`` maps each (u, v) to its selector, the W-bit mask of the
        digraphs with the edge u -> v, and ``words`` each label to the nodes
        that carry it."""
        self.m = m
        self.width = width
        self.full = (1 << m * width) - 1
        self.words = words
        # bit b -> the nodes whose label has bit b set (the words are disjoint)
        self.leaves = tuple(sum(s for w, s in words.items() if w[b] == "1") for b in range(bits))
        # (u * W, a selector, v * W for the targets v of u's edges that share it)
        targets: dict[tuple[int, int], list[int]] = {}
        for (u, v), selector in edges.items():
            if selector:
                targets.setdefault((u * width, selector), []).append(v * width)
        self._sources = tuple((shift, selector, tuple(ts)) for (shift, selector), ts in targets.items())
        self._image: dict[int, int] = {}

    @classmethod
    def of_digraph(cls, g: Digraph) -> "Domain":
        """g alone; node v of the domain is g.nodes[v]."""
        return cls.of_digraphs([g])

    @classmethod
    def of_digraphs(cls, gs: Sequence[Digraph]) -> "Domain":
        """The digraphs, all on m nodes and of one label width, bit j of
        every slice standing for gs[j]; node v of the domain is node v of
        each digraph's ``nodes``."""
        return cls._of_rows(len(gs[0].nodes), gs[0].bits,
                            [([g.labels[node] for node in g.nodes], g.edge_endpoints) for g in gs])

    @classmethod
    def of_indices(cls, m: int, bits: int, indexed: Sequence[tuple[int, int]]) -> "Domain":
        """The digraphs ``indexed_digraph(m, bits, mask, index)`` for the
        (mask, index) pairs, bit j of every slice standing for the j-th."""
        return cls._of_rows(m, bits, [(labeling(m, bits, index), edge_pairs(m, mask)) for mask, index in indexed])

    @classmethod
    def _of_rows(cls, m: int, bits: int, rows: Sequence[tuple[Sequence[str], Iterable[tuple[int, int]]]]) -> "Domain":
        """The digraphs on m nodes given as (the labels of nodes 0..m-1, the
        edges (u, v) of node indices), bit j of every slice standing for the j-th."""
        width = len(rows)
        words: dict[str, int] = {}
        edges: dict[tuple[int, int], int] = {}
        for j, (labels, endpoints) in enumerate(rows):
            for v, w in enumerate(labels):
                words[w] = words.get(w, 0) | 1 << v * width + j
            for e in endpoints:
                edges[e] = edges.get(e, 0) | 1 << j
        return cls(m, width, edges, words, bits)

    @classmethod
    def of_block(cls, m: int, bits: int, block: int) -> "Domain":
        """The W = ``slice_width(m, bits)`` digraphs of m nodes with
        enumeration indices i in [block * W, (block + 1) * W), bit j of every
        slice standing for index block * W + j.  Index i is the digraph
        ``indexed_digraph(m, bits, *divmod(i, 2^(bits*m)))``: its edge mask
        times the labelings per mask, plus its labeling."""
        width = slice_width(m, bits)
        period = 1 << bits * m  # labelings per edge mask
        first = block * width
        # the edge bits that change within the block select runs of labelings;
        # the others are those of the block's first edge mask
        varying = _varying_selectors(width, period)
        mask, slot = first // period, (1 << width) - 1
        edges: dict[tuple[int, int], int] = {}
        for e in range(m * m):  # bit e of an edge mask is the edge (e // m, e % m)
            if e < len(varying):
                edges[e // m, e % m] = varying[e]
            elif mask >> e & 1:
                edges[e // m, e % m] = slot
        return cls(m, width, edges, _slice_words(m, bits, width, first % period), bits)

    def dia(self, s: int) -> int:
        """The nodes with an incoming neighbour in s: OR over edges (u, v) of
        u's slice, restricted to the digraphs that have the edge, moved to
        v's; one mask per source node and selector, and one shift per
        target that shares it (a multiplication by the targets' sum would
        cost more at wide W than the shifts)."""
        out = self._image.get(s)
        if out is None:
            out = 0
            for shift, selector, targets in self._sources:
                moved = s >> shift & selector
                if moved:
                    for t in targets:
                        out |= moved << t
            self._image[s] = out
        return out


# the log2 of the most digraphs one block holds, which keeps a node set of
# m nodes within m * 2^MAX_SLICE_BITS bits
MAX_SLICE_BITS = 12


def slice_width(m: int, bits: int) -> int:
    """How many digraphs of m nodes one block of the enumeration holds: all
    2^(m*m + bits*m) of them, or 2^MAX_SLICE_BITS when there are more."""
    return 1 << min(m * m + bits * m, MAX_SLICE_BITS)


@functools.lru_cache(maxsize=64)
def _varying_selectors(width: int, period: int) -> tuple[int, ...]:
    """For each edge bit e that changes within a block of ``width`` indices
    (blocks start at a multiple of ``width``, and each edge mask spans
    ``period`` of them), the W-bit mask of the indices whose edge mask has
    bit e: the upper half of every 2^(e+1) masks' run of indices."""
    out = []
    run = period
    while run < width:  # ``run`` indices share bit e of their edge mask
        upper = ((1 << run) - 1) << run
        out.append(upper * (((1 << width) - 1) // ((1 << 2 * run) - 1)))
        run *= 2
    return tuple(out)


@functools.lru_cache(maxsize=64)
def _slice_words(m: int, bits: int, width: int, start: int) -> dict[str, int]:
    """Label -> the nodes that carry it, over the labelings (start + j) mod
    2^(bits*m) of m nodes for j < width.  Every domain of the block shares
    the dict, so it is never written after this."""
    period = min(width, 1 << bits * m)
    repeat = ((1 << width) - 1) // ((1 << period) - 1)  # bit k * period for every k
    words: dict[str, int] = {}
    for j in range(period):
        for v, w in enumerate(labeling(m, bits, start + j)):
            words[w] = words.get(w, 0) | repeat << v * width + j
    return words


def node_set(g: Digraph, mask: int) -> frozenset[str]:
    """The nodes of g that a W = 1 mask over g.nodes holds."""
    return frozenset(v for i, v in enumerate(g.nodes) if mask >> i & 1)


def random_indices(rng: random.Random, max_nodes: int, bits: int) -> tuple[int, int, int, int]:
    """Sample a random pointed digraph as ``(m, edge mask, labeling index,
    point)``, the digraph being ``indexed_digraph(m, bits, mask, index)``
    and the point a node index: node count uniform in 1..max_nodes, each of
    the m^2 directed edges present independently with probability 1/2 (drawn
    in row-major order, the order of the mask's bits), label bits uniform
    (node by node, the labeling's digits), point uniform."""
    m = rng.randint(1, max_nodes)
    mask = 0
    for e in range(m * m):
        if rng.random() < 0.5:
            mask |= 1 << e
    index = 0
    for _ in range(bits * m):
        index = index << 1 | (rng.choice("01") == "1")
    return m, mask, index, rng.choice(range(m))


def random_digraph(rng: random.Random, max_nodes: int, bits: int) -> PointedDigraph:
    """The pointed digraph ``random_indices`` draws."""
    m, mask, index, point = random_indices(rng, max_nodes, bits)
    g = indexed_digraph(m, bits, mask, index)
    return PointedDigraph(g, g.nodes[point])


def backward_bisimilar(a: PointedDigraph, b: PointedDigraph) -> bool:
    """Decide whether two pointed digraphs are backward bisimilar.

    A backward bisimulation relates nodes with equal labels such that every
    incoming edge on either side is matched by an incoming edge on the other
    side with related sources.  Computed as a greatest fixpoint: start from
    all label-equal pairs and delete pairs whose incoming edges cannot be
    matched, until stable.
    """
    g, h = a.graph, b.graph
    if g.bits != h.bits:
        raise BitWidthMismatch(f"label widths differ: {g.bits} vs {h.bits}")
    pairs = {(u, v) for u in g.nodes for v in h.nodes if g.labels[u] == h.labels[v]}
    changed = True
    while changed:
        changed = False
        for u, v in list(pairs):
            fwd = all(any((w, x) in pairs for x in h.incoming(v)) for w in g.incoming(u))
            bwd = all(any((w, x) in pairs for w in g.incoming(u)) for x in h.incoming(v))
            if not (fwd and bwd):
                pairs.discard((u, v))
                changed = True
    return (a.point, b.point) in pairs


def backward_unravel(p: PointedDigraph, depth: int) -> PointedDigraph:
    """Unravel ``p`` against the edge direction into a tree of the given depth,
    grafting a fresh copy of the whole original graph onto every frontier node.

    Tree levels below ``depth`` are backward paths from the point; each
    frontier path ending at original node u is replaced by a disjoint copy of
    the original graph, wired into the tree at that copy's u.  The result is
    backward bisimilar to ``p``; depth 0 returns an isomorphic copy.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    g = p.graph
    nodes: list[str] = []
    labels: dict[str, str] = {}
    edges: set[Edge] = set()

    # paths are tuples (point, v1, ..., vj) with each v_{i+1} -> v_i an edge
    path_id: dict[tuple[str, ...], str] = {}
    levels: list[list[tuple[str, ...]]] = [[(p.point,)]]
    for j in range(depth):
        nxt = [path + (u,) for path in levels[j] for u in sorted(g.incoming(path[-1]))]
        levels.append(nxt)
    for j in range(depth):  # interior tree nodes only
        for path in levels[j]:
            pid = f"p{len(path_id)}"
            path_id[path] = pid
            nodes.append(pid)
            labels[pid] = g.labels[path[-1]]
    for j in range(1, depth):
        for path in levels[j]:
            edges.add((path_id[path], path_id[path[:-1]]))

    for k, frontier in enumerate(levels[depth]):
        copy = {v: f"g{k}.{v}" for v in g.nodes}
        for v in g.nodes:
            nodes.append(copy[v])
            labels[copy[v]] = g.labels[v]
        edges.update((copy[u], copy[v]) for u, v in g.edges)
        if depth > 0:
            edges.add((copy[frontier[-1]], path_id[frontier[:-1]]))

    out = Digraph(bits=g.bits, nodes=tuple(nodes), labels=labels, edges=frozenset(edges))
    point = path_id[(p.point,)] if depth > 0 else f"g0.{p.point}"
    return PointedDigraph(out, point)
