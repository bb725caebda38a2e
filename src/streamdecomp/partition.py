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

    ``violations`` counts fallbacks: one per node placed where no block fit
    (hashing: where it overfills), and under OMS one per tree level where
    no child fit; runs never abort.

    The state keeps no ordered view of its blocks: a kernel that asks for
    the lightest block builds a :class:`MinBlockHeap` over ``block_weight``
    and tells it of each block its writes change.
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
        self.violations = 0

    def assign(self, node: int, block: int, weight: int = 1) -> None:
        if self.assignment[node] != UNASSIGNED:
            raise AssertionError(f"node {node} already assigned")
        self.assignment[node] = block
        self.block_weight[block] += weight

    def unassign(self, node: int, weight: int = 1) -> int:
        """Remove a node from its block (restreaming) and return the old block."""
        block = self.assignment[node]
        if block == UNASSIGNED:
            raise AssertionError(f"node {node} not assigned")
        self.assignment[node] = UNASSIGNED
        self.block_weight[block] -= weight
        return block
