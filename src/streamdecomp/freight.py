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

from dataclasses import dataclass
from typing import Optional

from .onepass import FennelParams, fennel_alpha, fennel_gain
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
        self.buckets = {id(root): root}

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
            self.buckets[id(fresh)] = fresh
        if c_bucket.r < c_bucket.l:
            del self.buckets[id(c_bucket)]

    def min_block(self) -> int:
        return self.a[0]

    def cardinality(self, block: int) -> int:
        return self.bucket_of[block].cardinality

    def bucket_ranges(self) -> list[tuple[int, int, int]]:
        """(cardinality, l, r) per live bucket, sorted by l.  For checks."""
        return sorted((bk.cardinality, bk.l, bk.r) for bk in self.buckets.values())


@dataclass
class FreightConfig:
    objective: str = "connectivity"     # connectivity | cutnet
    k: int = 2
    epsilon: float = 0.03
    gamma: float = 1.5
    alpha: Optional[float] = None       # default sqrt(k)*m/n^1.5 from the header
    seed: int = 0

    def __post_init__(self):
        if self.objective not in ("connectivity", "cutnet"):
            raise ValueError(f"unknown objective {self.objective!r}")


def _net_gains(record, tracker: NetTracker, cutnet: bool):
    """Per-block weighted gain and contributing-net count from the tracker."""
    gains: dict[int, float] = {}
    counts: dict[int, int] = {}
    for e, w in record.incident_nets:
        s = tracker.status[e]
        if s == UNTOUCHED or (cutnet and s == CUT):
            continue
        d = tracker.last_block[e]
        gains[d] = gains.get(d, 0.0) + w
        counts[d] = counts.get(d, 0) + 1
    return gains, counts


def _feasible(state: PartitionState, block: int, node_weight: int,
              unit: bool) -> bool:
    # Unit-weight instances use the strict cardinality bound of the FREIGHT
    # argmax; weighted nodes fall back to the hard additive constraint.
    if unit:
        return state.block_weight[block] < state.l_max
    return state.block_weight[block] + node_weight <= state.l_max


def freight_assign(record, state: PartitionState, tracker: NetTracker,
                   blocks, config: FreightConfig, params: FennelParams,
                   unit: bool = True) -> int:
    """Assign one node via the S1/S2 decomposition, then update all state."""
    gains, counts = _net_gains(record, tracker, config.objective == "cutnet")

    best = None
    best_key = None
    for i, g in gains.items():
        if not _feasible(state, i, record.weight, unit):
            continue
        key = (fennel_gain(g, record.weight, state.block_weight[i], params),
               counts[i], -state.block_weight[i], -i)
        if best_key is None or key > best_key:
            best, best_key = i, key

    m = blocks.min_block()
    if not _feasible(state, m, record.weight, unit):
        # Min-weight block is full, so every block is: flagged fallback.
        if best is None:
            state.violations += 1
            best = m
    elif m not in gains:
        alt_key = (fennel_gain(0.0, record.weight, state.block_weight[m],
                               params), 0)
        if best_key is None or alt_key > (best_key[0], best_key[1]):
            best = m

    _commit(record, best, state, tracker, blocks, unit)
    return best


def select_block(gains: dict[int, float], counts: dict[int, int],
                 node_weight: int, state: PartitionState, params: FennelParams,
                 blocks, unit: bool = True) -> int:
    """Full O(k) argmax with the same deterministic tie policy as the fast path.

    Scans every block instead of using the S1/S2 split.  Ties break to the
    higher contributing-net count, then the lighter block; a residual tie
    with positive count goes to the lowest index, while an all-zero-count tie
    (equally light empty-gain blocks) resolves to the structure's min query,
    the one choice a full scan cannot reproduce order-independently.
    """
    best_key = None
    tied: list[int] = []
    for i in range(state.k):
        if not _feasible(state, i, node_weight, unit):
            continue
        key = (fennel_gain(gains.get(i, 0.0), node_weight,
                           state.block_weight[i], params),
               counts.get(i, 0), -state.block_weight[i])
        if best_key is None or key > best_key:
            best_key, tied = key, [i]
        elif key == best_key:
            tied.append(i)

    if best_key is None:
        state.violations += 1
        return blocks.min_block()
    if best_key[1] > 0:
        return min(tied)
    best = blocks.min_block()
    if best not in tied:
        raise AssertionError("min structure disagrees with full scan")
    return best


def naive_freight_assign(record, state: PartitionState, tracker: NetTracker,
                         blocks, config: FreightConfig, params: FennelParams,
                         unit: bool = True) -> int:
    gains, counts = _net_gains(record, tracker, config.objective == "cutnet")
    best = select_block(gains, counts, record.weight, state, params, blocks,
                        unit)
    _commit(record, best, state, tracker, blocks, unit)
    return best


def _commit(record, block: int, state: PartitionState, tracker: NetTracker,
            blocks, unit: bool) -> None:
    state.assign(record.id, block, record.weight)
    if unit:
        blocks.increment(block)
    for e, _ in record.incident_nets:
        tracker.observe(e, block)


def run_freight(stream, config: FreightConfig,
                total_weight: Optional[int] = None,
                naive: bool = False) -> PartitionState:
    """One pass of FREIGHT over a node-major hypergraph stream.

    Beyond the current record the decision state is O(m + k): the net tracker
    plus block weights; the assignment array only collects the output.
    """
    header = stream.header
    unit = not header.has_node_weights
    if total_weight is None:
        if not unit:
            raise ValueError("weighted nodes need an explicit total_weight")
        total_weight = header.n
    state = PartitionState(header.n, config.k, config.epsilon, total_weight)
    tracker = NetTracker(header.m)
    # Weighted nodes: the state's weight heap, kept current by state.assign.
    # Unit weights keep SortedBlocks, whose min_block tie order differs.
    blocks = SortedBlocks(config.k) if unit else state.by_weight()
    alpha = config.alpha
    if alpha is None:
        alpha = fennel_alpha(header.n, header.m, config.k, config.gamma)
    params = FennelParams(gamma=config.gamma, alpha=alpha)
    assign = naive_freight_assign if naive else freight_assign
    for record in stream:
        assign(record, state, tracker, blocks, config, params, unit)
    return state
