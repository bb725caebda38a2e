"""Partition state shared by all streaming algorithms."""

from __future__ import annotations

import heapq
import math
from fractions import Fraction

UNASSIGNED = -1


def compute_lmax(total_weight: int, k: int, epsilon: float) -> int:
    """Per-block capacity ceil((1+eps) * total_weight / k).

    Evaluated with exact rational arithmetic so that capacities never drift
    by one when the product happens to be an integer.
    """
    if total_weight < 1 or k < 1 or epsilon < 0:
        raise ValueError("need total_weight >= 1, k >= 1, epsilon >= 0")
    eps = Fraction(str(epsilon))
    return math.ceil((1 + eps) * total_weight / k)


class MinBlockHeap:
    """Lowest-index block of minimum key over a live per-block key list.

    A lazy min-heap of ``(key, block)`` entries: every key change pushes a
    fresh entry and stale ones are dropped when they reach the top, so keys
    may rise and fall.  The heap is rebuilt from the live list once it holds
    more than ``4 * k`` entries, which keeps memory O(k) and pushes and
    queries O(log k) amortized.
    """

    def __init__(self, keys: list):
        self.keys = keys
        self.rebuild()

    def rebuild(self) -> None:
        self.heap = [(key, block) for block, key in enumerate(self.keys)]
        heapq.heapify(self.heap)

    def update(self, block: int) -> None:
        """Record that ``keys[block]`` changed."""
        heapq.heappush(self.heap, (self.keys[block], block))
        if len(self.heap) > 4 * len(self.keys):
            self.rebuild()

    def min_block(self) -> int:
        heap, keys = self.heap, self.keys
        while True:
            key, block = heap[0]
            if keys[block] == key:
                return block
            heapq.heappop(heap)


class PartitionState:
    """Assignment array plus per-block weights; the source of truth for balance.

    ``block_count`` tracks the number of nodes per block (the LDG tie-break
    wants node counts, not weights).  ``violations`` counts nodes that had to
    be placed in a full block because no feasible block existed; runs never
    abort on capacity exhaustion, they flag it.

    ``by_weight()`` and ``by_count()`` order the blocks by weight and by node
    count.  Each is built on its first call and kept current by ``assign``
    and ``unassign``, so code that never asks for one pays a ``None`` check.
    Writing ``block_weight`` or ``block_count`` directly bypasses them.
    """

    def __init__(self, n: int, k: int, epsilon: float, total_weight: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.n = n
        self.k = k
        self.epsilon = epsilon
        self.total_weight = total_weight
        self.l_max = compute_lmax(total_weight, k, epsilon)
        self.assignment = [UNASSIGNED] * n
        self.block_weight = [0] * k
        self.block_count = [0] * k
        self.violations = 0
        self.pass_stats: list = []
        self._by_weight: MinBlockHeap | None = None
        self._by_count: MinBlockHeap | None = None

    def by_weight(self) -> MinBlockHeap:
        if self._by_weight is None:
            self._by_weight = MinBlockHeap(self.block_weight)
        return self._by_weight

    def by_count(self) -> MinBlockHeap:
        if self._by_count is None:
            self._by_count = MinBlockHeap(self.block_count)
        return self._by_count

    def assign(self, node: int, block: int, weight: int = 1) -> None:
        if self.assignment[node] != UNASSIGNED:
            raise ValueError(f"node {node} already assigned")
        self.assignment[node] = block
        self.block_weight[block] += weight
        self.block_count[block] += 1
        if self._by_weight is not None:
            self._by_weight.update(block)
        if self._by_count is not None:
            self._by_count.update(block)

    def unassign(self, node: int, weight: int = 1) -> int:
        """Remove a node from its block (restreaming) and return the old block."""
        block = self.assignment[node]
        if block == UNASSIGNED:
            raise ValueError(f"node {node} not assigned")
        self.assignment[node] = UNASSIGNED
        self.block_weight[block] -= weight
        self.block_count[block] -= 1
        if self._by_weight is not None:
            self._by_weight.update(block)
        if self._by_count is not None:
            self._by_count.update(block)
        return block

    def max_block_weight(self) -> int:
        return max(self.block_weight)

    def is_balanced(self) -> bool:
        return self.max_block_weight() <= self.l_max

    def check_consistency(self, node_weights) -> None:
        """Recompute block weights from scratch and compare."""
        recomputed = [0] * self.k
        counts = [0] * self.k
        for node, block in enumerate(self.assignment):
            if block == UNASSIGNED:
                continue
            recomputed[block] += node_weights[node]
            counts[block] += 1
        if recomputed != self.block_weight or counts != self.block_count:
            raise AssertionError("block weights inconsistent with assignments")
