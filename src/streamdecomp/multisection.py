"""Online recursive multi-section: streaming process mapping and partitioning.

A hierarchical topology ``a_1:...:a_l`` (cores per processor, processors per
node, ...) induces a tree of nested partitioning subproblems.  Each incoming
node descends from the root to a leaf, at every tree level running a one-pass
scorer (Fennel with a per-level penalty scale, or LDG) restricted to the
children of the block chosen one level above.  One descent is equivalent to
restreaming the graph once per level, so a single pass suffices.  A node's
neighbor leaves are counted once; a level maps each in its range to a child
by a table (4 bytes per leaf, 4k per tree level) and, as in Fennel and
FREIGHT, scores only the children that can win: O(distinct neighbor leaves
+ capacity classes) per level, whatever the fan-out.  Like Fennel's
``pen``, each block keeps a table of its children's Fennel penalties, which
the kernel rewrites for the one child a node descends into; a node of
weight 1 scores a child by one lookup and computes no power, and the entry
is the float of its inline penalty, since ``1 * alpha == alpha`` exactly.
The kernel,
:func:`oms_assign`, places a chunk of spool columns (``SPOOL_CHUNK`` nodes)
per call and walks its flat ids and weights by offsets, so no record is
built; ``tests/reference.py`` keeps the record-at-a-time descent as its
oracle.

When no hierarchy is given, an artificial b-section tree over the k blocks
plays the same role (heterogeneous child capacities when k is not a power of
b).  PE distances are never materialized as a k x k matrix: each PE gets a
binary code of l mixed-radix sections and the distance of two PEs is read off
the highest nonzero section of the XOR of their codes.  A division-based
fallback computes the same value from successive integer divisions.
"""

from __future__ import annotations

import math
from array import array
from collections import _count_elements
from dataclasses import dataclass
from itertools import count, repeat
from typing import Optional

from .onepass import FennelParams
from .partition import UNASSIGNED, PartitionState


def int_list(text: str, flag: str, sep: str = ":") -> list[int]:
    """The integers of a ``sep`` list; a ValueError naming ``flag`` if one
    token is not an integer."""
    out = []
    for token in text.split(sep):
        try:
            out.append(int(token))
        except ValueError:
            raise ValueError(f"{flag} {text!r}: {token!r} is not an "
                             f"integer") from None
    return out


@dataclass
class HierarchySpec:
    """Layer fan-outs a_1..a_l and layer distances d_1..d_l."""

    fanouts: list[int]
    distances: list[int]

    def __post_init__(self):
        if len(self.fanouts) != len(self.distances):
            raise ValueError("fan-out and distance sequences differ in length")
        if not self.fanouts:
            raise ValueError("hierarchy needs at least one layer")
        if any(a < 1 for a in self.fanouts):
            raise ValueError("fan-outs must be >= 1")
        if any(d < 0 for d in self.distances):
            raise ValueError("distances must be >= 0")
        # Fan-out-1 layers contribute nothing: no pair of PEs can first
        # differ there.  Collapse them so every remaining a_i >= 2.
        kept = [(a, d) for a, d in zip(self.fanouts, self.distances) if a > 1]
        if not kept:
            kept = [(1, self.distances[0])]
        self.fanouts = [a for a, _ in kept]
        self.distances = [d for _, d in kept]
        self._codes: Optional[list[int]] = None
        # Distance of two PEs by the bit length of the XOR of their codes:
        # a leading bit in section i means they first differ at layer i.
        s = self.section_bits
        self.distance_by_bit_length = [0] + [
            self.distances[(bits - 1) // s]
            for bits in range(1, self.num_layers * s + 1)]

    @classmethod
    def parse(cls, fanouts: str, distances: str) -> "HierarchySpec":
        """From the colon lists of ``--hierarchy`` and ``--distances``."""
        return cls(int_list(fanouts, "--hierarchy"),
                   int_list(distances, "--distances"))

    @property
    def k(self) -> int:
        return math.prod(self.fanouts)

    @property
    def num_layers(self) -> int:
        return len(self.fanouts)

    @property
    def section_bits(self) -> int:
        return max(1, math.ceil(math.log2(max(self.fanouts))))

    def pe_code(self, pe: int) -> int:
        """Binary code with one s-bit section per layer, section i = digit i."""
        s = self.section_bits
        code = 0
        t = pe
        for i, a in enumerate(self.fanouts):
            t, digit = divmod(t, a)
            code |= digit << (i * s)
        return code

    def codes(self) -> list[int]:
        if self._codes is None:
            self._codes = [self.pe_code(b) for b in range(self.k)]
        return self._codes

    def distance(self, pe_a: int, pe_b: int) -> int:
        """Distance via XOR of codes and the position of the leading bit."""
        codes = self.codes()
        return self.distance_by_bit_length[
            (codes[pe_a] ^ codes[pe_b]).bit_length()]

    def division_vector(self) -> list[int]:
        """h_i = product of fan-outs below layer i (the division fallback)."""
        h = []
        acc = 1
        for a in self.fanouts:
            h.append(acc)
            acc *= a
        return h

    def division_distance(self, pe_a: int, pe_b: int) -> int:
        """Same distance by successive integer divisions, top layer first."""
        h = self.division_vector()
        for i in range(self.num_layers - 1, -1, -1):
            if pe_a // h[i] != pe_b // h[i]:
                return self.distances[i]
        return 0


class TreeBlock:
    """One block of the multi-section tree covering leaf range [lo, hi].

    An internal block keeps the state of its children in per-child lists,
    indexed like ``children``: its weight (the only copy of a child's
    weight), its capacity, its penalty scale and its Fennel penalty
    ``pens[i] = alphas[i] * gamma * child_weights[i] ** (gamma - 1)``;
    ``child_of[leaf - lo]`` is the index of the child covering ``leaf``.
    ``classes`` lists the [start, stop) index runs of equally sized
    children, which share capacity and scale.  ``pens`` starts at 0.0,
    exact for an empty child since gamma > 1, and only a Fennel-scored
    :func:`oms_assign` keeps it current.
    """

    __slots__ = ("lo", "hi", "children", "child_of", "child_weights",
                 "capacities", "alphas", "pens", "classes", "height")

    def __init__(self, lo: int, hi: int):
        self.lo = lo
        self.hi = hi
        self.children: list[TreeBlock] = []
        self.child_of = array("I")
        self.child_weights: list[int] = []
        self.capacities: list[int] = []
        self.alphas: list[float] = []
        self.pens: list[float] = []
        self.classes: list[tuple[int, int]] = []
        self.height = 0

    @property
    def t(self) -> int:
        return self.hi - self.lo + 1


def _build(lo: int, hi: int, fanouts: list[int], l_max: int,
           alpha: float) -> TreeBlock:
    """One run's tree over blocks lo..hi: a block covering t > 1 leaves at
    depth d splits into min(fanouts[d], t) near-equal parts, the larger
    parts first.  Each child gets capacity t * l_max and penalty scale
    alpha / sqrt(t) for its own t."""
    node = TreeBlock(lo, hi)
    if node.t > 1:
        parts = min(fanouts[0], node.t)
        base, rem = divmod(node.t, parts)
        starts = [lo + i * base + min(i, rem) for i in range(parts + 1)]
        node.children = [_build(start, stop - 1, fanouts[1:], l_max, alpha)
                         for start, stop in zip(starts, starts[1:])]
        node.child_of = array("I", [i for i, c in enumerate(node.children)
                                    for _ in range(c.t)])
        node.child_weights = [0] * parts
        node.capacities = [c.t * l_max for c in node.children]
        node.alphas = [heterogeneous_alpha(c, alpha) for c in node.children]
        node.pens = [0.0] * parts
        node.classes = [(0, rem), (rem, parts)] if rem else [(0, parts)]
        node.height = 1 + max(c.height for c in node.children)
    return node


def build_hierarchy(k: int, l_max: int, alpha: float, b: int = 4) -> TreeBlock:
    """Root of the artificial recursive b-section tree over blocks 0..k-1
    (nh-OMS).  A split at least halves a block, so the tree is at most
    ``k.bit_length()`` levels deep."""
    if k < 1 or b < 2:
        raise ValueError("need k >= 1 and b >= 2")
    return _build(0, k - 1, [b] * k.bit_length(), l_max, alpha)


def build_from_spec(spec: HierarchySpec, l_max: int,
                    alpha: float) -> TreeBlock:
    """Root of the tree mirroring the topology: the root splits along the
    outermost layer.  k is the product of the fan-outs, so every split is
    exact."""
    return _build(0, spec.k - 1, spec.fanouts[::-1], l_max, alpha)


def heterogeneous_alpha(block: TreeBlock, alpha: float) -> float:
    """Penalty scale for scoring one tree block: alpha / sqrt(t).

    A block covering t of the original k blocks poses a subproblem with t
    times fewer blocks over roughly t/k of the graph; substituting those
    counts into the Fennel alpha formula shrinks it by exactly sqrt(t).
    """
    return alpha / math.sqrt(block.t)


@dataclass
class OmsConfig:
    scorer: str = "fennel"          # fennel | ldg
    base: int = 4                   # nh-OMS fan-out when no hierarchy given
    hash_bottom_layers: int = 0

    def __post_init__(self):
        if self.scorer not in ("fennel", "ldg"):
            raise ValueError(f"unknown scorer {self.scorer!r}")
        if not 2 <= self.base <= 16:
            raise ValueError("base must be in 2..16")
        if self.hash_bottom_layers < 0:
            raise ValueError("hash_bottom_layers must be >= 0")


def oms_assign(chunk, root: TreeBlock, state: PartitionState,
               config: OmsConfig, params: FennelParams) -> None:
    """Place each node of ``chunk``, the spool columns ``(start, degrees,
    ids, weights, node_weight)`` of nodes ``start`` on: descend from
    ``root``, taking at each level the best feasible child or, when none
    fits, the lightest one, flagged as a violation.

    Without edge ``weights`` a node's leaves are counted in C; with them
    every row keeps ``(leaf, w)`` pairs in row order, so float sums add in
    the same order (integer counts convert to the floats that sums of 1
    give).  Scored are the children holding a neighbor and each class's
    lightest child (lowest index first): no other child of a class scores
    better.  Ties go to the lighter child, then the lower index.

    Under Fennel a node of weight 1 scores ``gain - pens[idx]``, the float
    of the inline penalty heavier nodes compute; each level rewrites
    ``pens`` for the child it takes, scored, hashed or fallen back to.
    """
    start, degrees, ids, weights, node_weight = chunk
    assignment = state.assignment
    block_weight = state.block_weight
    block_of = assignment.__getitem__
    fennel = config.scorer == "fennel"
    hashed = config.hash_bottom_layers
    gamma, g1 = params.gamma, params.gamma - 1.0
    pos = 0
    for v, degree, weight in zip(count(start), degrees,
                                 node_weight or repeat(1)):
        stop = pos + degree
        if weights is None:
            counts: dict[int, int] = {}
            _count_elements(counts, map(block_of, ids[pos:stop]))
            counts.pop(UNASSIGNED, None)
            leaves = counts.items()
        else:
            leaves = [(assignment[u], w)
                      for u, w in zip(ids[pos:stop], weights[pos:stop])
                      if assignment[u] != UNASSIGNED]
        pos = stop
        table = fennel and weight == 1
        node = root
        while node.children:
            child_weights = node.child_weights
            if node.height <= hashed:
                best = _hash_child(v, weight, node)
            else:
                lo, hi, child_of = node.lo, node.hi, node.child_of
                gains: dict[int, float] = {}
                for leaf, w in leaves:
                    if lo <= leaf <= hi:
                        idx = child_of[leaf - lo]
                        gains[idx] = gains.get(idx, 0.0) + w
                classes = node.classes
                if len(classes) == 1:       # equal children: no slice
                    gains.setdefault(
                        child_weights.index(min(child_weights)), 0.0)
                else:
                    for first, last in classes:
                        part = child_weights[first:last]
                        gains.setdefault(first + part.index(min(part)), 0.0)
                capacities, alphas, pens = node.capacities, node.alphas, \
                    node.pens
                best, best_score, best_cw = -1, 0.0, 0
                for idx, gain in gains.items():
                    cw = child_weights[idx]
                    capacity = capacities[idx]
                    if cw + weight > capacity:
                        continue
                    if table:
                        score = gain - pens[idx]
                    elif fennel:
                        score = gain - weight * alphas[idx] * gamma * cw ** g1
                    else:
                        score = gain * (1.0 - cw / capacity)
                    if best < 0 or score > best_score or \
                            score == best_score and (
                                cw < best_cw or cw == best_cw and idx < best):
                        best, best_score, best_cw = idx, score, cw
            if best < 0:
                state.violations += 1
                best = child_weights.index(min(child_weights))
            child_weights[best] += weight
            if fennel:
                node.pens[best] = node.alphas[best] * gamma * \
                    child_weights[best] ** g1
            node = node.children[best]
        if assignment[v] != UNASSIGNED:
            raise AssertionError(f"node {v} already assigned")
        leaf = node.lo
        assignment[v] = leaf
        block_weight[leaf] += weight


def _hash_child(node_id: int, weight: int, node: TreeBlock) -> int:
    """The hashed child if it fits, else the lightest feasible one; -1 if
    none is feasible."""
    weights, capacities = node.child_weights, node.capacities
    idx = node_id % len(weights)
    if weights[idx] + weight <= capacities[idx]:
        return idx
    feasible = [(cw, i) for i, cw in enumerate(weights)
                if cw + weight <= capacities[i]]
    return min(feasible)[1] if feasible else -1


def run_oms(stream, config: OmsConfig, state: PartitionState,
            params: FennelParams,
            spec: Optional[HierarchySpec] = None) -> PartitionState:
    """One pass of online recursive multi-section.

    The tree mirrors the topology ``spec`` (process mapping), or else is the
    ``config.base``-section tree over ``state.k`` blocks (nh-OMS graph
    partitioning).  Only the final leaf block is stored per node; ancestors
    are implied by the leaf ranges.  The kernel runs once per chunk of
    ``stream.chunks()``; no record is built.
    """
    if spec is None:
        root = build_hierarchy(state.k, state.l_max, params.alpha, config.base)
    elif spec.k != state.k:
        raise AssertionError(f"hierarchy has k={spec.k}, state k={state.k}")
    else:
        root = build_from_spec(spec, state.l_max, params.alpha)
    for chunk in stream.chunks():
        oms_assign(chunk, root, state, config, params)
    return state
