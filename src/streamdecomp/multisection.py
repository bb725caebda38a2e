"""Online recursive multi-section: streaming process mapping and partitioning.

A hierarchical topology ``a_1:...:a_l`` (cores per processor, processors per
node, ...) induces a tree of nested partitioning subproblems.  Each incoming
node descends from the root to a leaf, at every tree level running a one-pass
scorer (Fennel with a per-level penalty scale, or LDG) restricted to the
children of the block chosen one level above.  One descent is equivalent to
restreaming the graph once per level, so a single pass suffices.

When no hierarchy is given, an artificial b-section tree over the k blocks
plays the same role (heterogeneous child capacities when k is not a power of
b).  PE distances are never materialized as a k x k matrix: each PE gets a
binary code of l mixed-radix sections and the distance of two PEs is read off
the highest nonzero section of the XOR of their codes.  A division-based
fallback computes the same value from successive integer divisions.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

from .onepass import FennelParams
from .partition import UNASSIGNED, PartitionState


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
        # Fan-out-1 layers contribute nothing: no pair of PEs can first
        # differ there.  Collapse them so every remaining a_i >= 2.
        kept = [(a, d) for a, d in zip(self.fanouts, self.distances) if a > 1]
        if not kept:
            kept = [(1, self.distances[0])]
        self.fanouts = [a for a, _ in kept]
        self.distances = [d for _, d in kept]
        self._codes: Optional[list[int]] = None

    @classmethod
    def parse(cls, fanouts: str, distances: str) -> "HierarchySpec":
        return cls([int(t) for t in fanouts.split(":")],
                   [int(t) for t in distances.split(":")])

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
        x = codes[pe_a] ^ codes[pe_b]
        if x == 0:
            return 0
        section = (x.bit_length() - 1) // self.section_bits
        return self.distances[section]

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
    """One block of the multi-section tree covering leaf range [lo, hi]."""

    __slots__ = ("lo", "hi", "children", "child_starts", "weight", "height")

    def __init__(self, lo: int, hi: int):
        self.lo = lo
        self.hi = hi
        self.children: list[TreeBlock] = []
        self.child_starts: list[int] = []
        self.weight = 0
        self.height = 0

    @property
    def t(self) -> int:
        return self.hi - self.lo + 1

    def locate(self, leaf: int) -> "TreeBlock":
        """Child whose range contains the given leaf block."""
        return self.children[bisect_right(self.child_starts, leaf) - 1]


class MultisectionTree:
    def __init__(self, root: TreeBlock, k: int):
        self.root = root
        self.k = k
        self.l_max = 0

    def capacity(self, block: TreeBlock) -> int:
        return block.t * self.l_max

    def total_block_slots(self) -> int:
        """Number of tracked block weights (the 2k space bound)."""
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            for child in node.children:
                count += 1
                stack.append(child)
        return count

    def check_leaf_weights(self, state: PartitionState) -> None:
        """Every internal weight must equal the sum of its leaves' weights."""
        def walk(node: TreeBlock) -> int:
            if not node.children:
                expected = state.block_weight[node.lo]
            else:
                expected = sum(walk(c) for c in node.children)
            if node.weight != expected:
                raise AssertionError("tree weights out of sync with partition")
            return node.weight
        walk(self.root)


def _attach_children(parent: TreeBlock, sizes: list[int]) -> None:
    lo = parent.lo
    for size in sizes:
        child = TreeBlock(lo, lo + size - 1)
        parent.children.append(child)
        parent.child_starts.append(lo)
        lo += size


def _build(k: int, fanout_at_depth) -> MultisectionTree:
    """Tree over blocks 0..k-1: a node covering t > 1 leaves at depth d
    splits into min(f, t) near-equal parts, f = ``fanout_at_depth(d)``,
    the larger parts first."""
    root = TreeBlock(0, k - 1)
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        if node.t == 1:
            continue
        parts = min(fanout_at_depth(depth), node.t)
        base, rem = divmod(node.t, parts)
        _attach_children(node, [base + 1] * rem + [base] * (parts - rem))
        stack.extend((child, depth + 1) for child in node.children)
    _set_heights(root)
    return MultisectionTree(root, k)


def build_hierarchy(k: int, b: int = 4) -> MultisectionTree:
    """Artificial recursive b-section tree over blocks 0..k-1 (nh-OMS)."""
    if k < 1 or b < 2:
        raise ValueError("need k >= 1 and b >= 2")
    return _build(k, lambda depth: b)


def build_from_spec(spec: HierarchySpec) -> MultisectionTree:
    """Tree mirroring the topology: the root splits along the outermost layer.

    k is the product of the fan-outs, so every split is exact.
    """
    layers = spec.fanouts[::-1]
    return _build(spec.k, lambda depth: layers[depth])


def _set_heights(node: TreeBlock) -> int:
    if not node.children:
        node.height = 0
    else:
        node.height = 1 + max(_set_heights(c) for c in node.children)
    return node.height


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


def oms_assign(record, tree: MultisectionTree, state: PartitionState,
               config: OmsConfig, params: FennelParams) -> int:
    """Descend the tree, scoring the current block's children at each layer."""
    node = tree.root
    assignment = state.assignment
    neighbors = [(assignment[v], w) for v, w in record.neighbors
                 if assignment[v] != UNASSIGNED]
    while node.children:
        if config.hash_bottom_layers and node.height <= config.hash_bottom_layers:
            child = _hash_child(record, node, tree, state)
        else:
            child = _score_child(record, node, tree, state, neighbors,
                                 config, params)
        child.weight += record.weight
        node = child
    block = node.lo
    tree.root.weight += record.weight
    state.assign(record.id, block, record.weight)
    return block


def _score_child(record, node: TreeBlock, tree: MultisectionTree,
                 state: PartitionState, neighbors, config: OmsConfig,
                 params: FennelParams) -> TreeBlock:
    alpha, gamma = params.alpha, params.gamma
    gains = [0.0] * len(node.children)
    for leaf, w in neighbors:
        if node.lo <= leaf <= node.hi:
            gains[bisect_right(node.child_starts, leaf) - 1] += w
    best = None
    best_key = None
    for idx, child in enumerate(node.children):
        capacity = tree.capacity(child)
        if child.weight + record.weight > capacity:
            continue
        if config.scorer == "fennel":
            a = heterogeneous_alpha(child, alpha)
            score = gains[idx] - record.weight * a * gamma * \
                child.weight ** (gamma - 1.0)
        else:
            score = gains[idx] * (1.0 - child.weight / capacity)
        key = (score, -child.weight, -idx)
        if best_key is None or key > best_key:
            best, best_key = child, key
    if best is None:
        state.violations += 1
        best = min(node.children, key=lambda c: c.weight)
    return best


def _hash_child(record, node: TreeBlock, tree: MultisectionTree,
                state: PartitionState) -> TreeBlock:
    child = node.children[record.id % len(node.children)]
    if child.weight + record.weight <= tree.capacity(child):
        return child
    feasible = [c for c in node.children
                if c.weight + record.weight <= tree.capacity(c)]
    if feasible:
        return min(feasible, key=lambda c: c.weight)
    state.violations += 1
    return min(node.children, key=lambda c: c.weight)


def run_oms(stream, config: OmsConfig, state: PartitionState,
            params: FennelParams,
            spec: Optional[HierarchySpec] = None) -> PartitionState:
    """One pass of online recursive multi-section.

    The tree mirrors the topology ``spec`` (process mapping), or else is the
    ``config.base``-section tree over ``state.k`` blocks (nh-OMS graph
    partitioning).  Only the final leaf block is stored per node; ancestors
    are implied by the leaf ranges.
    """
    if spec is None:
        tree = build_hierarchy(state.k, config.base)
    elif spec.k != state.k:
        raise ValueError(f"hierarchy has k={spec.k}, the state k={state.k}")
    else:
        tree = build_from_spec(spec)
    tree.l_max = state.l_max
    for record in stream:
        oms_assign(record, tree, state, config, params)
    state.tree = tree
    return state
