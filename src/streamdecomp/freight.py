"""Streaming hypergraph partitioner optimizing cut-net or connectivity.

The score of putting node v into block i is w(I_obj(i,v)) - c(v)*alpha*gamma*
c(V_i)^(gamma-1), where I_obj(i,v) are the incident nets whose most recently
streamed pin went to block i (the cut-net objective additionally drops nets
that are already cut).  Instead of scanning all k blocks, the argmax is split
into the blocks connected to v (solved explicitly in O(|I(v)|)) and the rest
(solved by a min-weight query, O(1) with unit weights and O(log k) amortized
with weighted nodes), so per-node work never depends on k.

:func:`freight_assign` is the whole kernel, called once per chunk of spool
columns (``SPOOL_CHUNK`` nodes): it walks the chunk's flat ids and weights
by offsets, so no record is built, reads the per-net ``last_block`` list
directly, sums the gains in one dict (two with weighted nets, where gain
and net count differ), compares candidates without building a key per
block, and on unit node weights makes the state's writes and the sorted
blocks' swap itself, with no function call per node or pin.
``tests/reference.py`` keeps the record-at-a-time kernel, the per-pin
three-state method, the bucket-object :class:`SortedBlocks` and the full
O(k) scan as its oracles.
"""

from __future__ import annotations

from itertools import count, repeat

from .onepass import FennelParams
from .partition import UNASSIGNED, MinBlockHeap, PartitionState

CUT = -2   # a net's ``last_block`` entry once it is cut, under cut-net


class SortedBlocks:
    """Keeps all k blocks sorted by cardinality with O(1) increments.

    Array A holds the block ids in ascending order of cardinality, B maps a
    block id to its position in A, ``card`` maps it to its cardinality, and
    ``end[c]`` is one past the last position of cardinality c (the number
    of blocks of cardinality at most c), so each maximal run of equal
    cardinality c fills positions ``end[c-1]`` to ``end[c] - 1``.
    Incrementing a block swaps it to the right edge of its run, which then
    ends one position earlier: the block now opens the run of c + 1, and A
    stays sorted without any loop or allocation.
    """

    def __init__(self, k: int):
        self.k = k
        self.a = list(range(k))
        self.b = list(range(k))
        self.card = [0] * k
        self.end = [k]

    def increment(self, d: int) -> None:
        a, b, end = self.a, self.b, self.end
        c = self.card[d]
        p = b[d]
        q = end[c] - 1
        other = a[q]
        a[p] = other
        a[q] = d
        b[other] = p
        b[d] = q
        end[c] = q
        self.card[d] = c + 1
        if c + 1 == len(end):
            end.append(self.k)

    def min_block(self) -> int:
        return self.a[0]

    def cardinality(self, block: int) -> int:
        return self.card[block]


def freight_assign(chunk, state: PartitionState, last_block: list[int],
                   blocks: SortedBlocks, cutnet: bool,
                   params: FennelParams) -> None:
    """Place each node of ``chunk``, the spool columns ``(start, degrees,
    ids, weights, node_weight)`` of nodes ``start`` on, via the S1/S2
    decomposition, then update all state.

    Only the connected blocks (S1) and the min block are scored: every
    other block has gain 0 and count 0 and is no lighter, so the min block
    matches or beats it.  A connected block has count >= 1, so the min
    block wins over it only with a strictly higher score.  ``cutnet`` drops
    the nets that are already cut.  Without ``node_weight`` the min block is
    the one of least cardinality in ``blocks``, which the kernel increments
    itself; with it, the lightest block of a :class:`MinBlockHeap` the call
    builds over ``state.block_weight``.  Without ``weights`` every net
    weighs 1, so a block's gain is its contributing-net count and one dict
    holds both.
    """
    start, degrees, ids, weights, node_weight = chunk
    assignment = state.assignment
    block_weight = state.block_weight
    l_max = state.l_max
    unit = node_weight is None
    unit_nets = weights is None
    if unit:
        a, b, card, end, k = blocks.a, blocks.b, blocks.card, blocks.end, \
            blocks.k
        room = l_max - 1
    else:
        order = MinBlockHeap(block_weight)
    # fennel_penalties' penalty alpha*gamma*c(V_i)^(gamma-1), same float.
    ag = params.alpha * params.gamma
    g1 = params.gamma - 1.0
    pos = 0
    for node, degree, weight in zip(count(start), degrees,
                                    repeat(1) if unit else node_weight):
        stop = pos + degree
        row = ids[pos:stop]
        counts: dict[int, int] = {}
        if unit_nets:
            gains = counts
            for e in row:
                d = last_block[e]
                if d < 0:
                    continue
                counts[d] = counts.get(d, 0) + 1
        else:
            gains = {}
            for e, w in zip(row, weights[pos:stop]):
                d = last_block[e]
                if d < 0:
                    continue
                gains[d] = gains.get(d, 0.0) + w
                counts[d] = counts.get(d, 0) + 1
        pos = stop
        if unit:
            lightest = a[0]
        else:
            lightest = order.min_block()
            room = l_max - weight
        if lightest not in counts:
            gains[lightest] = counts[lightest] = 0
        # Highest score, then more contributing nets, the lighter block and
        # the lower index; the counts are read only on a tie.
        best = -1
        best_score = best_bw = 0
        for i, g in gains.items():
            bw = block_weight[i]
            if bw > room:
                continue
            score = g - weight * (ag * bw ** g1)
            if (best < 0 or score > best_score or score == best_score and (
                    counts[i] > counts[best] or counts[i] == counts[best]
                    and (bw < best_bw or bw == best_bw and i < best))):
                best, best_score, best_bw = i, score, bw
        if best < 0:
            # The min block is full, so every block is: place it there,
            # flagged.
            state.violations += 1
            best = lightest
        if unit:
            if assignment[node] != UNASSIGNED:
                raise AssertionError(f"node {node} already assigned")
            assignment[node] = best
            block_weight[best] += 1
            # SortedBlocks.increment: swap to the right edge of the run.
            c = card[best]
            p = b[best]
            q = end[c] - 1
            other = a[q]
            a[p] = other
            a[q] = best
            b[other] = p
            b[best] = q
            end[c] = q
            card[best] = c + 1
            if c + 1 == len(end):
                end.append(k)
        else:
            state.assign(node, best, weight)
            order.update(best)
        if cutnet:
            for e in row:
                d = last_block[e]
                last_block[e] = best if d == best or d == -1 else CUT
        else:
            for e in row:
                last_block[e] = best


def run_freight(stream, state: PartitionState, params: FennelParams,
                objective: str = "connectivity") -> PartitionState:
    """One pass of FREIGHT over a node-major hypergraph stream, one kernel
    call per chunk of ``stream.chunks()``; no record is built.

    ``objective`` is ``connectivity`` or ``cutnet``.  Beyond the current
    chunk the decision state is O(m + k): the per-net ``last_block`` list
    plus block weights; the assignment array only collects the output.
    """
    if objective not in ("connectivity", "cutnet"):
        raise ValueError(f"unknown objective {objective!r}")
    cutnet = objective == "cutnet"
    last_block = [-1] * stream.header.m
    # Unit weights keep SortedBlocks, whose min_block tie order differs
    # from the weight heap the kernel builds for weighted nodes.
    blocks = SortedBlocks(state.k)
    for chunk in stream.chunks():
        freight_assign(chunk, state, last_block, blocks, cutnet, params)
    return state
