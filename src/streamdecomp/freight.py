"""Streaming hypergraph partitioner optimizing cut-net or connectivity.

The score of putting node v into block i is w(I_obj(i,v)) - c(v)*alpha*gamma*
c(V_i)^(gamma-1), where I_obj(i,v) are the incident nets whose most recently
streamed pin went to block i (the cut-net objective additionally drops nets
that are already cut).  Instead of scanning all k blocks, the argmax is split
into the blocks connected to v (solved explicitly in O(|I(v)|)) and the rest
(solved by a min-weight query, O(1) with unit weights and O(log k) amortized
with weighted nodes), so per-node work never depends on k.

:func:`freight_assign` is the whole per-node kernel: it reads the net
tracker's two flat arrays directly, sums the gains in one dict (two with
weighted nets, where gain and net count differ) and updates each incident
net's status inline, with no function call per pin.  ``tests/reference.py``
keeps the per-pin method and the full O(k) scan as its oracle.
"""

from __future__ import annotations

from .onepass import FennelParams
from .partition import PartitionState

UNTOUCHED, SINGLE_BLOCK, CUT = 0, 1, 2


class NetTracker:
    """Per-net cut status and the block of the most recently streamed pin.

    ``status[e]`` is UNTOUCHED, SINGLE_BLOCK or CUT; ``last_block[e]`` is -1
    until a pin of ``e`` is placed.  :func:`freight_assign` reads and
    updates both in place.
    """

    __slots__ = ("status", "last_block")

    def __init__(self, num_nets: int):
        self.status = bytearray(num_nets)
        self.last_block = [-1] * num_nets


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


def freight_assign(record, state: PartitionState, tracker: NetTracker,
                   blocks, cutnet: bool, params: FennelParams,
                   unit: bool = True, unit_nets: bool = False) -> int:
    """Assign one node via the S1/S2 decomposition, then update all state.

    Only the connected blocks (S1) and ``blocks.min_block()`` are scored:
    every other block has gain 0 and count 0 and is no lighter, so the min
    block matches or beats it.  A connected block has count >= 1, so the min
    block wins over it only with a strictly higher score.  ``cutnet`` drops
    the nets that are already cut.  ``unit`` says ``blocks`` is a
    :class:`SortedBlocks` that must be told of the choice.  ``unit_nets``
    says every net weighs 1, so a block's gain is its contributing-net count
    and one dict holds both.
    """
    status = tracker.status
    last_block = tracker.last_block
    ids = record.ids
    counts: dict[int, int] = {}
    if unit_nets:
        gains = counts
        for e in ids:
            s = status[e]
            if s == UNTOUCHED or (cutnet and s == CUT):
                continue
            d = last_block[e]
            counts[d] = counts.get(d, 0) + 1
    else:
        gains = {}
        for e, w in zip(ids, record.weights):
            s = status[e]
            if s == UNTOUCHED or (cutnet and s == CUT):
                continue
            d = last_block[e]
            gains[d] = gains.get(d, 0.0) + w
            counts[d] = counts.get(d, 0) + 1
    lightest = blocks.min_block()
    if lightest not in counts:
        gains[lightest] = counts[lightest] = 0
    weight = record.weight
    block_weight = state.block_weight
    room = state.l_max - weight
    # fennel_gain's penalty alpha*gamma*c(V_i)^(gamma-1), same float.
    ag = params.alpha * params.gamma
    g1 = params.gamma - 1.0
    best = None
    best_key = None
    for i, g in gains.items():
        bw = block_weight[i]
        if bw > room:
            continue
        key = (g - weight * (ag * bw ** g1), counts[i], -bw, -i)
        if best_key is None or key > best_key:
            best, best_key = i, key
    if best is None:
        # The min block is full, so every block is: place it there, flagged.
        state.violations += 1
        best = lightest
    state.assign(record.id, best, weight)
    if unit:
        blocks.increment(best)
    for e in ids:
        s = status[e]
        if s == UNTOUCHED:
            status[e] = SINGLE_BLOCK
        elif s == SINGLE_BLOCK and last_block[e] != best:
            status[e] = CUT
        last_block[e] = best
    return best


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
    header = stream.header
    unit = not header.has_node_weights
    unit_nets = not header.has_item_weights
    tracker = NetTracker(header.m)
    # Weighted nodes: the state's weight heap, kept current by state.assign.
    # Unit weights keep SortedBlocks, whose min_block tie order differs.
    blocks = SortedBlocks(state.k) if unit else state.by_weight()
    for record in stream:
        freight_assign(record, state, tracker, blocks, cutnet, params, unit,
                       unit_nets)
    return state
