"""Brute-force oracle layer.

A *device* is either an automaton or a fixpoint system; both define a set of
accepted pointed digraphs (synchronous acceptance for automata, membership in
the first fixpoint component for systems).  Equivalence of two devices is
checked by exhaustive enumeration of all small digraphs or by seeded random
sampling; disagreements are returned as replayable counterexamples.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Union

from . import graphs
from .automata import Automaton
from .graphs import (  # enumerate_digraphs and random_digraph are looked up here by perfbench
    BitWidthMismatch,
    Digraph,
    Domain,
    PointedDigraph,
    backward_bisimilar,
    backward_unravel,
    digraph_to_dict,
    enumerate_digraphs,
    indexed_digraph,
    random_digraph,
    random_indices,
    slice_width,
)
from .logic import MuSystem, holds_on, lfp
from .runtime import (
    check_budget,
    first_hit,
    split_range,
    sync_accepting_mask,
    sync_accepting_nodes,
    sync_accepts,
)

Device = Union[Automaton, MuSystem]


def accepted_nodes(d: Device, g: Digraph) -> frozenset[str]:
    """Nodes of g at which the device's property holds; the dispatch on one
    digraph shared by every checker and the command line."""
    if isinstance(d, Automaton):
        return sync_accepting_nodes(d, g)
    if isinstance(d, MuSystem):
        return lfp(d, g)[d.vars[0]]
    raise TypeError(f"not a device: {d!r}")


def device_accepts(d: Device, p: PointedDigraph) -> bool:
    return p.point in accepted_nodes(d, p.graph)


@dataclass(frozen=True)
class Counterexample:
    graph: Digraph
    point: str
    verdict1: bool
    verdict2: bool

    def to_dict(self) -> dict:
        return {
            "verdict": "counterexample",
            "graph": digraph_to_dict(self.graph),
            "point": self.point,
            "d1": self.verdict1,
            "d2": self.verdict2,
        }


@dataclass(frozen=True)
class EquivVerdict:
    equivalent: bool
    checked: int  # pointed digraphs compared
    counterexample: Counterexample | None = None

    def to_dict(self) -> dict:
        if self.equivalent:
            return {"verdict": "equivalent", "checked": self.checked}
        return self.counterexample.to_dict() | {"checked": self.checked}


def _require_same_bits(d1: Device, d2: Device) -> None:
    if d1.bits != d2.bits:
        raise BitWidthMismatch(f"devices disagree on label width: {d1.bits} vs {d2.bits}")


def _accepting_mask(d: Device, domain: Domain) -> int:
    """The domain nodes at which the device's property holds: the sliced
    counterpart of ``accepted_nodes``."""
    if isinstance(d, Automaton):
        return sync_accepting_mask(d, domain)
    if isinstance(d, MuSystem):
        return holds_on(d, domain)
    raise TypeError(f"not a device: {d!r}")


def _blocks(max_nodes: int, bits: int) -> list[tuple[int, int]]:
    """(m, the blocks at m nodes) for m = 1..max_nodes.  A block is W =
    ``slice_width(m, bits)`` consecutive digraphs of the enumeration, so
    blocks come in enumeration order: m ascending, then edge mask, then
    labeling."""
    return [(m, (1 << m * m + bits * m) // slice_width(m, bits)) for m in range(1, max_nodes + 1)]


def _exhaustive_slice(
    d1: Device, d2: Device, max_nodes: int, start: int, stop: int
) -> tuple[Counterexample | None, int]:
    """Scan blocks [start, stop) of the enumeration, both devices evaluating
    all digraphs of a block at once; return the first disagreement (or None)
    and the points checked up to it.  A block that agrees everywhere counts m
    points per digraph.  In the first that does not, the disagreement is at
    its lowest digraph, then lowest node, and the count stops after that
    digraph: both are what a scan graph by graph finds."""
    bits = d1.bits
    checked = offset = 0
    for m, count in _blocks(max_nodes, bits):
        for block in range(max(start - offset, 0), min(stop - offset, count)):
            domain = Domain.of_block(m, bits, block)
            s1 = _accepting_mask(d1, domain)
            s2 = _accepting_mask(d2, domain)
            width = domain.width
            if s1 == s2:
                checked += m * width
                continue
            diff, slot = s1 ^ s2, (1 << width) - 1
            digraphs = 0  # those on which some node disagrees
            for v in range(m):
                digraphs |= diff >> v * width & slot
            j = (digraphs & -digraphs).bit_length() - 1
            v = next(v for v in range(m) if diff >> v * width + j & 1)
            g = indexed_digraph(m, bits, *divmod(block * width + j, 1 << bits * m))
            at = v * width + j
            return Counterexample(g, g.nodes[v], bool(s1 >> at & 1), bool(s2 >> at & 1)), checked + m * (j + 1)
        offset += count
    return None, checked


def equiv_exhaustive(d1: Device, d2: Device, max_nodes: int, jobs: int = 1) -> EquivVerdict:
    """Compare the devices on every digraph with up to ``max_nodes`` nodes and
    every point, in enumeration order, a block of 2^MAX_SLICE_BITS digraphs
    at once (bitsliced, see ``Domain``).  The first disagreement and
    ``checked`` are those of a scan graph by graph, and the same at any job
    count: parallel workers scan disjoint ranges of blocks and the earliest
    disagreeing range wins."""
    check_budget(max_nodes, jobs)
    _require_same_bits(d1, d2)
    total = sum(count for _, count in _blocks(max_nodes, d1.bits))
    cex, checked = first_hit(_exhaustive_slice, [
        (d1, d2, max_nodes, start, stop) for start, stop in split_range(total, jobs)
    ], jobs)
    return EquivVerdict(equivalent=cex is None, checked=checked, counterexample=cex)


def _sampled_slice(
    d1: Device, d2: Device, max_nodes: int, seed: int, start: int, stop: int
) -> tuple[Counterexample | None, int]:
    """Compare the devices at samples [start, stop) of those ``seed`` draws,
    in batches of 1, 2, 4, ... samples so that an early disagreement stays
    cheap.  ``random.Random(seed)`` draws each sample's sub-seed, a batch's
    when the batch is reached.  A sample is drawn as integers
    (``random_indices``), and a batch's samples of one node count share one
    domain packed from them; only the reported counterexample is built as a
    ``Digraph``.  Return the lowest disagreeing sample (or None) and the
    samples checked up to it."""
    bits, rng = d1.bits, random.Random(seed)
    for _ in range(start):  # the sub-seeds of the slices before this one
        rng.randrange(2**32)
    done, size, count = 0, 1, stop - start
    while done < count:
        seeds = [rng.randrange(2**32) for _ in range(min(size, count - done))]
        batch = [random_indices(random.Random(s), max_nodes, bits) for s in seeds]
        by_nodes: dict[int, list[int]] = {}  # m -> the batch positions of its samples
        for i, (m, _, _, _) in enumerate(batch):
            by_nodes.setdefault(m, []).append(i)
        hits = []  # (batch position, verdicts) of each node count's lowest disagreement
        for m, positions in by_nodes.items():
            domain = Domain.of_indices(m, bits, [batch[i][1:3] for i in positions])
            s1 = _accepting_mask(d1, domain)
            s2 = _accepting_mask(d2, domain)
            diff = s1 ^ s2
            for j, i in enumerate(positions):
                at = batch[i][3] * domain.width + j
                if diff >> at & 1:
                    hits.append((i, bool(s1 >> at & 1), bool(s2 >> at & 1)))
                    break
        if hits:
            i, v1, v2 = min(hits)
            m, mask, index, point = batch[i]
            g = indexed_digraph(m, bits, mask, index)
            return Counterexample(g, g.nodes[point], v1, v2), done + i + 1
        done += len(batch)
        size = min(2 * size, 1 << graphs.MAX_SLICE_BITS)
    return None, count


def equiv_sampled(
    d1: Device, d2: Device, max_nodes: int, samples: int, seed: int = 0, jobs: int = 1
) -> EquivVerdict:
    """Compare the devices at a random point of ``samples`` random digraphs
    (edge probability 0.5, uniform labels); deterministic for a given seed
    (each sample runs off its own derived sub-seed, so job count does not
    change which digraphs are drawn).  The samples are evaluated in batches,
    one domain per node count, and the lowest disagreeing one is reported.
    Sampling can only refute equivalence, never establish it."""
    check_budget(max_nodes, jobs, samples=samples)
    _require_same_bits(d1, d2)
    cex, checked = first_hit(_sampled_slice, [
        (d1, d2, max_nodes, seed, start, stop) for start, stop in split_range(samples, jobs)
    ], jobs)
    return EquivVerdict(equivalent=cex is None, checked=checked, counterexample=cex)


@dataclass(frozen=True)
class InvarianceVerdict:
    """Outcome of an unraveling invariance check.  ``bisimilar`` failing means
    the witness generator itself misbehaved; ``invariant`` failing with
    ``bisimilar`` holding means acceptance distinguished two backward
    bisimilar structures."""

    ok: bool
    bisimilar: bool
    invariant: bool
    original: PointedDigraph
    witness: PointedDigraph
    accepts_original: bool
    accepts_witness: bool


def bisim_invariance_check(a: Automaton, p: PointedDigraph, depth: int) -> InvarianceVerdict:
    """Unravel ``p`` backward to ``depth``, confirm the result is backward
    bisimilar, and confirm the automaton accepts both or neither."""
    w = backward_unravel(p, depth)
    bisim = backward_bisimilar(p, w)
    acc_p = sync_accepts(a, p)
    acc_w = sync_accepts(a, w)
    invariant = acc_p == acc_w
    return InvarianceVerdict(
        ok=bisim and invariant,
        bisimilar=bisim,
        invariant=invariant,
        original=p,
        witness=w,
        accepts_original=acc_p,
        accepts_witness=acc_w,
    )
