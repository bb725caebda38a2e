"""One-pass streaming graph partitioners and restreaming drivers.

Implements Hashing, LDG and a weighted generalization of Fennel, plus the
restreaming variants ReLDG (per-pass block weights) and ReFennel (penalty
scale grows per pass).  All assignment loops are strictly sequential: every
decision reads the state left behind by the previous one.

The Fennel and LDG kernels place a chunk of the stream's spool columns per
call (a pass hands them each chunk of ``stream.chunks()``, so no record is
built) and score from a per-block table built once per pass: Fennel's
penalty ``(alpha*gamma) * c(V_i) ** (gamma-1)``, LDG's free capacity
``1 - c(V_i)/L_max`` and node count, for its ties.  A kernel rewrites a
block's entries when a node enters or leaves that block, so every score is
the float a per-node computation gives, and the partitions are the ones
the per-node kernels made.
"""

from __future__ import annotations

import math
from collections import _count_elements
from contextlib import suppress
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count, repeat
from typing import Optional

from .partition import UNASSIGNED, MinBlockHeap, PartitionState


def fennel_alpha(n: int, m: int, k: int, gamma: float = 1.5) -> float:
    """Classic Fennel penalty scale m * k^(gamma-1) / n^gamma.

    Edgeless graphs would give 0; a tiny positive floor keeps the score a
    pure (and working) balance objective there.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return max(m * k ** (gamma - 1.0) / n ** gamma, 1e-12)


@dataclass
class FennelParams:
    gamma: float = 1.5
    alpha: float = 1.0

    def __post_init__(self):
        # written so that NaN fails too
        if not 1.0 < self.gamma < math.inf:
            raise ValueError("gamma must be finite and > 1")
        if not 0.0 < self.alpha < math.inf:
            raise ValueError("alpha must be finite and > 0")

    @classmethod
    def for_stream(cls, n: int, m: int, k: int, gamma: float = 1.5,
                   alpha: Optional[float] = None,
                   total_weight: Optional[int] = None) -> "FennelParams":
        """Params of one run: ``alpha`` defaults to :func:`fennel_alpha`.  No
        block a run scores outweighs c(V) + n (``total_weight`` is c(V), else
        n), so a ``gamma`` whose penalty overflows there is rejected."""
        params = cls(gamma, 1.0 if alpha is None else alpha)
        params.alpha = _bounded_alpha(
            lambda: fennel_alpha(n, m, k, gamma) if alpha is None else alpha,
            gamma, (total_weight or n) + n, f"--gamma {gamma}")
        return params


def _bounded_alpha(alpha, gamma: float, heaviest: int, flag: str) -> float:
    """``alpha()``, unless it or the Fennel penalty alpha * gamma * h **
    (gamma - 1) at the block weight h = ``heaviest`` (no lighter block's is
    larger) overflows a float; then an input error that names ``flag``."""
    with suppress(OverflowError):
        value = alpha()
        if value * gamma * heaviest ** (gamma - 1.0) < math.inf:
            return value
    raise ValueError(f"{flag} overflows the Fennel penalty")


@dataclass
class OnePassConfig:
    algorithm: str = "fennel"           # hashing | ldg | fennel
    passes: int = 1
    restream_alpha_growth: float = 2.0  # ReFennel multiplier per extra pass

    def __post_init__(self):
        if self.algorithm not in ("hashing", "ldg", "fennel"):
            raise ValueError(f"unknown one-pass algorithm {self.algorithm!r}")
        if self.passes < 1:
            raise ValueError("passes must be >= 1")
        if not 1.0 <= self.restream_alpha_growth < math.inf:
            raise ValueError("restream_alpha_growth must be finite and >= 1")


def hashing_assign(node_id: int, k: int) -> int:
    """Deterministic hash of the node id into [0, k); ignores the neighborhood."""
    return node_id % k


def fennel_penalties(block_weight, params: FennelParams) -> list[float]:
    """The penalty table ``pen[i] = (alpha*gamma) * bw[i] ** (gamma-1)``
    of block weights ``bw``.  A node of weight c(v) with edge weight g into
    block i scores ``g - c(v) * pen[i]``: the generalized Fennel score,
    which with unit weights is the classic |V_i n N(u)| -
    alpha*gamma*|V_i|^(gamma-1).  Fennel, ReFennel, HeiStream and FREIGHT
    score with this float, from the table or computed inline."""
    ag = params.alpha * params.gamma
    g1 = params.gamma - 1.0
    return [ag * b ** g1 for b in block_weight]


def ldg_free(block_weight, l_max: int) -> list[float]:
    """LDG's free-capacity table ``free[i] = 1 - bw[i] / L_max``."""
    return [1.0 - b / l_max for b in block_weight]


def fennel_block(gains: dict[int, float], bw: list, pen: list, load: list,
                 room: float, weight: float, lightest: int) -> int:
    """The block with ``load[i] <= room`` of highest generalized Fennel score
    ``gains[i] - weight * pen[i]``, where ``pen`` is the penalty table of
    ``bw`` (:func:`fennel_penalties`); ties to the lighter ``bw`` and then
    the lower index; -1 if none fits.

    ``lightest`` is the block of least ``(bw[i], i)``.  If it fits, it matches
    or beats every block outside ``gains``, so only it (added to ``gains``)
    and the other keys of ``gains`` are scored: work independent of k.
    If not, a block heavier by ``bw`` may still fit by ``load``; all are.
    """
    if load[lightest] > room:
        gains = {i: gains.get(i, 0.0) for i in range(len(bw))}
    elif lightest not in gains:
        gains[lightest] = 0.0
    best = -1
    best_score = best_bw = 0
    for i, g in gains.items():
        if load[i] > room:
            continue
        b = bw[i]
        score = g - weight * pen[i]
        if (best < 0 or score > best_score or score == best_score
                and (b < best_bw or b == best_bw and i < best)):
            best, best_score, best_bw = i, score, b
    return best


# The chunk kernels below walk a chunk's spool columns by offsets, one slice
# of ids per node and no record; they count a node's neighbor blocks, pop
# the least block of a MinBlockHeap and make PartitionState.assign's and
# unassign's writes in their own loop, to spare a call per step.  Each row
# of a file without edge weights is counted in C by ``_count_elements``
# (the helper behind ``Counter.update``); its integer counts convert to the
# same floats as sums of 1.0 wherever they meet a float.  Each row of a
# file with edge weights is summed, all-ones rows too.  Each kernel builds
# the heap of the key it queries (Fennel the state's block weights, LDG the
# pass's node counts) at the top of its call and pushes each block its
# writes change.

def fennel_assign(chunk, state: PartitionState, params: FennelParams,
                  pen: list, restream: bool = False) -> None:
    """Place each node of ``chunk``, the spool columns ``(start, degrees,
    ids, weights, node_weight)`` of nodes ``start`` on, in turn in the block
    :func:`fennel_block` picks; with no block that fits (the lightest is
    full, so all are), in the lightest, flagged.

    ``weights`` None means every edge weighs 1, ``node_weight`` None every
    node.  ``pen`` is the penalty table of ``state.block_weight`` under
    ``params``; the kernel rewrites the entry of each block whose weight it
    changes.  With ``restream`` each node first leaves its block (ReFennel).
    """
    start, degrees, ids, weights, node_weight = chunk
    assignment = state.assignment
    block_weight = state.block_weight
    order = MinBlockHeap(block_weight)
    heap = order.heap
    limit = 4 * state.k
    l_max = state.l_max
    ag = params.alpha * params.gamma
    g1 = params.gamma - 1.0
    block_of = assignment.__getitem__
    pos = 0
    for node, degree, weight in zip(count(start), degrees,
                                    repeat(1) if node_weight is None
                                    else node_weight):
        stop = pos + degree
        if restream:
            old = assignment[node]
            if old == UNASSIGNED:
                raise AssertionError(f"node {node} not assigned")
            assignment[node] = UNASSIGNED
            bw = block_weight[old] = block_weight[old] - weight
            pen[old] = ag * bw ** g1
            heappush(heap, (bw, old))
            if len(heap) > limit:
                order.rebuild()
                heap = order.heap
        while True:
            bw, lightest = heap[0]
            if block_weight[lightest] == bw:
                break
            heappop(heap)
        room = l_max - weight
        if bw > room:
            state.violations += 1
            best = lightest
        else:
            gains: dict[int, float] = {}
            if weights is None:
                _count_elements(gains, map(block_of, ids[pos:stop]))
                gains.pop(UNASSIGNED, None)
            else:
                for v, w in zip(ids[pos:stop], weights[pos:stop]):
                    block = assignment[v]
                    if block != UNASSIGNED:
                        gains[block] = gains.get(block, 0.0) + w
            best = fennel_block(gains, block_weight, pen, block_weight, room,
                                weight, lightest)
        pos = stop
        if assignment[node] != UNASSIGNED:
            raise AssertionError(f"node {node} already assigned")
        assignment[node] = best
        bw = block_weight[best] = block_weight[best] + weight
        pen[best] = ag * bw ** g1
        heappush(heap, (bw, best))
        if len(heap) > limit:
            order.rebuild()
            heap = order.heap


def ldg_assign(chunk, state: PartitionState, free: list, counts: list,
               restream: bool = False) -> None:
    """Linear deterministic greedy: place each node of ``chunk`` (spool
    columns, as :func:`fennel_assign` takes them) in turn in the block of
    highest affinity times ``free[i]``.

    ``free`` is the free-capacity table (:func:`ldg_free`) of
    ``state.block_weight`` and ``counts`` the pass's nodes per block; the
    kernel rewrites both entries of each block it fills.  With
    ``restream`` each node is first marked unassigned (a ReLDG pass, which
    starts from cleared blocks).

    Ties go to the block with fewer nodes (as LDG defines), then lowest index.
    With edge weights >= 1 a feasible neighbor block scores > 0 and every
    other block 0, so only neighbor blocks are scored; without a feasible
    one the answer is the fewest-nodes block, lowest index first.
    """
    start, degrees, ids, weights, node_weight = chunk
    assignment = state.assignment
    block_weight = state.block_weight
    order = MinBlockHeap(counts)
    heap = order.heap
    limit = 4 * state.k
    l_max = state.l_max
    block_of = assignment.__getitem__
    pos = 0
    for node, degree, weight in zip(count(start), degrees,
                                    repeat(1) if node_weight is None
                                    else node_weight):
        stop = pos + degree
        if restream:
            assignment[node] = UNASSIGNED
        gains: dict[int, float] = {}
        if weights is None:
            _count_elements(gains, map(block_of, ids[pos:stop]))
            gains.pop(UNASSIGNED, None)
        else:
            for v, w in zip(ids[pos:stop], weights[pos:stop]):
                block = assignment[v]
                if block != UNASSIGNED:
                    gains[block] = gains.get(block, 0.0) + w
        pos = stop
        room = l_max - weight
        best = -1
        best_score = best_count = 0
        for i, g in gains.items():
            if block_weight[i] > room:
                continue
            score = g * free[i]
            if (best < 0 or score > best_score or score == best_score
                    and (counts[i] < best_count
                         or counts[i] == best_count and i < best)):
                best, best_score, best_count = i, score, counts[i]
        if best < 0:
            while True:
                size, best = heap[0]
                if counts[best] == size:
                    break
                heappop(heap)
            if block_weight[best] > room:
                best = _fewest_feasible(weight, state, counts)
        if assignment[node] != UNASSIGNED:
            raise AssertionError(f"node {node} already assigned")
        assignment[node] = best
        bw = block_weight[best] = block_weight[best] + weight
        size = counts[best] = counts[best] + 1
        free[best] = 1.0 - bw / l_max
        heappush(heap, (size, best))
        if len(heap) > limit:
            order.rebuild()
            heap = order.heap


def _fewest_feasible(weight: int, state: PartitionState, counts: list) -> int:
    # The fewest-nodes block is full.  With unit weights every block is; with
    # weighted nodes a block with more nodes may still fit, so scan.
    feasible = [i for i in range(state.k)
                if state.block_weight[i] + weight <= state.l_max]
    if feasible:
        return min(feasible, key=lambda i: (counts[i], i))
    # No feasible block: place on the globally lightest one and flag it.
    state.violations += 1
    return min(range(state.k), key=lambda i: (state.block_weight[i], i))


def _place_pass(stream, algorithm: str, state: PartitionState,
                params: FennelParams, restream: bool = False) -> None:
    """One pass of hashing, Fennel or LDG over ``stream``: one penalty
    (Fennel) or free-capacity and node-count (LDG) table for the pass, then
    the kernel once per chunk of ``stream.chunks()``.  Every LDG pass starts
    from empty blocks: a fresh state, or ReLDG's, emptied here; the
    assignment keeps serving neighbor lookups, and the pass places every
    node again, so its weights end as the totals."""
    if algorithm == "ldg":
        if restream:
            state.block_weight[:] = [0] * state.k
        free = ldg_free(state.block_weight, state.l_max)
        counts = [0] * state.k
        for chunk in stream.chunks():
            ldg_assign(chunk, state, free, counts, restream)
    elif algorithm == "fennel":
        pen = fennel_penalties(state.block_weight, params)
        for chunk in stream.chunks():
            fennel_assign(chunk, state, params, pen, restream)
    else:
        k, l_max, block_weight = state.k, state.l_max, state.block_weight
        for start, degrees, _, _, node_weight in stream.chunks():
            for node, weight in zip(range(start, start + len(degrees)),
                                    repeat(1) if node_weight is None
                                    else node_weight):
                block = hashing_assign(node, k)
                state.assign(node, block, weight)
                if block_weight[block] > l_max:
                    state.violations += 1   # hashing ignores weights; flag it


def run_onepass(stream, config: OnePassConfig, state: PartitionState,
                params: FennelParams) -> PartitionState:
    """One full pass assigning every streamed node, read from
    ``stream.chunks()``; no record is built.  Returns the final state."""
    _place_pass(stream, config.algorithm, state, params)
    return state


def run_restream(stream, config: OnePassConfig, state: PartitionState,
                 params: FennelParams) -> PartitionState:
    """Multi-pass drivers ReLDG / ReFennel: pass 1 is :func:`run_onepass`,
    and every later pass one :func:`_place_pass` with ``restream``.

    Each pass reads ``stream.chunks()`` (a
    :class:`~streamdecomp.streams.NodeStream` or a ``MemoryStream``), the
    same nodes in the same order every time.  ReLDG scores against block
    weights accumulated in the current pass only; ReFennel subtracts the
    node's own weight before scoring and multiplies alpha by
    ``restream_alpha_growth`` each pass (a growth whose last pass overflows
    the penalty is rejected up front).  Hashing makes one pass, since every
    later pass would repeat it.
    """
    growth = config.restream_alpha_growth
    if config.algorithm == "fennel":
        _bounded_alpha(lambda: params.alpha * growth ** (config.passes - 1),
                       params.gamma, state.total_weight + state.n,
                       f"--alpha-growth {growth}")
    run_onepass(stream, config, state, params)
    if config.algorithm == "hashing":
        return state
    for p in range(1, config.passes):
        _place_pass(stream, config.algorithm, state,
                    FennelParams(params.gamma, params.alpha * growth ** p)
                    if config.algorithm == "fennel" else params, True)
    return state
