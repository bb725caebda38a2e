"""Streaming hypergraph partitioner optimizing cut-net or connectivity.

The score of putting node v into block i is w(I_obj(i,v)) - c(v)*alpha*gamma*
c(V_i)^(gamma-1), where I_obj(i,v) are the incident nets whose most recently
streamed pin went to block i (the cut-net objective additionally drops nets
that are already cut).  Instead of scanning all k blocks, the argmax is split
into the blocks connected to v (solved explicitly in O(|I(v)|)) and the rest
(solved by a min-weight query, O(1) with unit weights and O(log k) amortized
with weighted nodes), so per-node work never depends on k.
"""

from __future__ import annotations

from .onepass import FennelParams, fennel_gain
from .partition import PartitionState

UNTOUCHED, SINGLE_BLOCK, CUT = 0, 1, 2


class NetTracker:
    """Per-net cut status and the block of the most recently streamed pin."""

    def __init__(self, num_nets: int):
        self.status = bytearray(num_nets)
        self.last_block = [-1] * num_nets

    def observe(self, net: int, block: int) -> None:
        s = self.status[net]
        if s == UNTOUCHED:
            self.status[net] = SINGLE_BLOCK
        elif s == SINGLE_BLOCK and self.last_block[net] != block:
            self.status[net] = CUT
        self.last_block[net] = block

    def is_cut(self, net: int) -> bool:
        return self.status[net] == CUT


class _Bucket:
    __slots__ = ("cardinality", "l", "r")

    def __init__(self, cardinality: int, l: int, r: int):
        self.cardinality = cardinality
        self.l = l
        self.r = r


class SortedBlocks:
    """Keeps all k blocks sorted by cardinality with O(1) increments.

    Array A holds the block ids in ascending order of cardinality, B maps a
    block id to its position in A, and each maximal run of equal cardinality
    is covered by one bucket storing its [l, r] position range.  Incrementing
    a block swaps it to the right edge of its bucket and moves it into the
    following bucket (or a fresh one), so A stays sorted without any loop.
    """

    def __init__(self, k: int):
        self.k = k
        self.a = list(range(k))
        self.b = list(range(k))
        root = _Bucket(0, 0, k - 1)
        self.bucket_of = [root] * k

    def increment(self, d: int) -> None:
        p = self.b[d]
        c_bucket = self.bucket_of[d]
        q = c_bucket.r
        other = self.a[q]
        self.a[p], self.a[q] = self.a[q], self.a[p]
        self.b[other], self.b[d] = p, q
        c_bucket.r = q - 1
        nxt = self.bucket_of[self.a[q + 1]] if q + 1 < self.k else None
        if nxt is not None and c_bucket.cardinality + 1 == nxt.cardinality:
            self.bucket_of[d] = nxt
            nxt.l -= 1
        else:
            fresh = _Bucket(c_bucket.cardinality + 1, q, q)
            self.bucket_of[d] = fresh

    def min_block(self) -> int:
        return self.a[0]

    def cardinality(self, block: int) -> int:
        return self.bucket_of[block].cardinality


def _net_gains(record, tracker: NetTracker, cutnet: bool):
    """Per-block weighted gain and contributing-net count from the tracker."""
    gains: dict[int, float] = {}
    counts: dict[int, int] = {}
    for e, w in zip(record.ids, record.weights):
        s = tracker.status[e]
        if s == UNTOUCHED or (cutnet and s == CUT):
            continue
        d = tracker.last_block[e]
        gains[d] = gains.get(d, 0.0) + w
        counts[d] = counts.get(d, 0) + 1
    return gains, counts


def freight_assign(record, state: PartitionState, tracker: NetTracker,
                   blocks, cutnet: bool, params: FennelParams,
                   unit: bool = True) -> int:
    """Assign one node via the S1/S2 decomposition, then update all state.

    Only the connected blocks (S1) and ``blocks.min_block()`` are scored:
    every other block has gain 0 and count 0 and is no lighter, so the min
    block matches or beats it.  A connected block has count >= 1, so the min
    block wins over it only with a strictly higher score.  ``cutnet`` drops
    the nets that are already cut.  ``unit`` says ``blocks`` is a
    :class:`SortedBlocks` that must be told of the choice.
    """
    gains, counts = _net_gains(record, tracker, cutnet)
    lightest = blocks.min_block()
    if lightest not in gains:
        gains[lightest] = 0.0
        counts[lightest] = 0
    weight = record.weight
    block_weight = state.block_weight
    best = None
    best_key = None
    for i, g in gains.items():
        bw = block_weight[i]
        if bw + weight > state.l_max:
            continue
        key = (fennel_gain(g, weight, bw, params), counts[i], -bw, -i)
        if best_key is None or key > best_key:
            best, best_key = i, key
    if best is None:
        # The min block is full, so every block is: place it there, flagged.
        state.violations += 1
        best = lightest
    _commit(record, best, state, tracker, blocks, unit)
    return best


def _commit(record, block: int, state: PartitionState, tracker: NetTracker,
            blocks, unit: bool) -> None:
    state.assign(record.id, block, record.weight)
    if unit:
        blocks.increment(block)
    for e in record.ids:
        tracker.observe(e, block)


def run_freight(stream, state: PartitionState, params: FennelParams,
                objective: str = "connectivity") -> PartitionState:
    """One pass of FREIGHT over a node-major hypergraph stream.

    ``objective`` is ``connectivity`` or ``cutnet``.  Beyond the current
    record the decision state is O(m + k): the net tracker plus block
    weights; the assignment array only collects the output.
    """
    if objective not in ("connectivity", "cutnet"):
        raise ValueError(f"unknown objective {objective!r}")
    cutnet = objective == "cutnet"
    unit = not stream.header.has_node_weights
    tracker = NetTracker(stream.header.m)
    # Weighted nodes: the state's weight heap, kept current by state.assign.
    # Unit weights keep SortedBlocks, whose min_block tie order differs.
    blocks = SortedBlocks(state.k) if unit else state.by_weight()
    for record in stream:
        freight_assign(record, state, tracker, blocks, cutnet, params, unit)
    return state
