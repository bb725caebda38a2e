"""Reference implementations used as oracles by the tests.

These deliberately avoid the production fast paths: the FREIGHT reference
and the Fennel and LDG scans score every block per node (FREIGHT's with
two gain dicts and one three-state tracker method call per pin), FREIGHT's
sorted blocks keep one bucket object per run of equal cardinality, the
Fennel twin reads neighbor assignments straight off the graph, the OMS
scan descent scores every child of every tree block with capacities and
penalty scales recomputed per child, the OMS candidate descent finds each neighbor's child
by a bisect and ranks children by tuple keys, the multi-pass multi-section
reference restreams once per tree layer with per-layer weight tables
instead of descending a tree,
the HeiStream kernels rebuild every node's connection dict on every visit
and score every block through ``fennel_gain`` (initial partitioning scores
all k), a later pass's batch model is built with the batch still assigned
and its weights subtracted from the artificial nodes, ReLDG restreams on a
second state of per-pass weights that shares the run's assignment, and
the two k x k PE distance matrices are built with numpy, which only the
tests need, and the OMS tree is built by a stack walk, with heights and
per-run constants set by two more walks.  A node-per-line file is parsed
one line at a time, each through :func:`_parse_line`, as the stream did
before it converted a chunk of lines at a time; it and :func:`_line_fault`
are the per-line rules the stream kept beside its chunk conversion until
that conversion alone decided which line is bad.  The record-at-a-time
Fennel and LDG kernels place one record per call through
``PartitionState``'s own methods, find the least block by an O(k) scan
and compute each penalty or free capacity where they score it, as the
kernels did before they took batches and tables, and the batch Fennel and
LDG kernels take a list of records, as they did before they walked a
chunk's columns; the record-at-a-time FREIGHT and OMS kernels place one
record per call through ``state.assign`` (FREIGHT's min block from
``SortedBlocks`` or an O(k) scan, :class:`ScanMinBlock`), as the kernels
did before they walked a chunk's columns.

The edge cut, comm cost, cut-net and connectivity are summed over records
one row entry at a time, as the metrics did before they walked a chunk's
columns.

A test reads a stream as records through :func:`stream_records` alone,
which builds them from ``stream.chunks()`` as the streams' own iteration
did before every reader took columns.  HeiStream's record batches
(:func:`record_load_batch`, :func:`record_build_model` and
:func:`record_commit_batch`) are its batch cut, model build and commit as
they were before they read a chunk's columns.

The consistency checks at the end recompute production state from scratch.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections import _count_elements
from heapq import heappop, heappush
from fractions import Fraction
from itertools import count, islice, repeat
from operator import mul
from typing import Iterator, Sequence

import numpy as np

from streamdecomp import freight
from streamdecomp.freight import SortedBlocks
from streamdecomp.heistream import BatchModel
from streamdecomp.multisection import TreeBlock, _hash_child, \
    heterogeneous_alpha
from streamdecomp.onepass import FennelParams, fennel_block, run_onepass
from streamdecomp.partition import UNASSIGNED, MinBlockHeap, PartitionState
from streamdecomp.streams import FormatError, StreamedNodeRecord, \
    _expect_end, _header, _is_int, _nonempty, _split, _tokens


def chunk_records(start: int, degrees, ids: list[int], weights, node_weight
                  ) -> Iterator[StreamedNodeRecord]:
    """The records of one chunk of columns: node ``start`` on, each with
    the next ``degrees[i]`` of the flat ``ids`` and of the flat item
    ``weights`` (all 1 when None) and its ``node_weight`` (1 when None)."""
    return map(StreamedNodeRecord, count(start),
               repeat(1) if node_weight is None else node_weight,
               _split(ids, degrees),
               map(mul, repeat([1]), degrees) if weights is None
               else _split(weights, degrees))


def stream_records(stream) -> Iterator[StreamedNodeRecord]:
    """The records of ``stream``, one per node, from a ``stream.chunks()``
    taken now.  Closing the records closes the chunks at once, so an
    abandoned parse frees its spool then."""
    return _records_of(stream.chunks())


def _records_of(chunks) -> Iterator[StreamedNodeRecord]:
    try:
        for columns in chunks:
            yield from chunk_records(*columns)
    finally:
        if hasattr(chunks, "close"):   # a parse or a replay, not a list's
            chunks.close()


def fennel_gain(weighted_degree_to_block: float, node_weight: int,
                block_weight: float, params: FennelParams) -> float:
    """Generalized Fennel score of putting a node into one block.

    ``weighted_degree_to_block`` is the total edge weight from the node to
    nodes already in the block.  With unit weights this reduces to the
    classic |V_i n N(u)| - alpha*gamma*|V_i|^(gamma-1).  The oracle of the
    score the kernels compute from ``onepass.fennel_penalties``.
    """
    penalty = params.alpha * params.gamma * block_weight ** (params.gamma - 1.0)
    return weighted_degree_to_block - node_weight * penalty


def _neighbor_gains(record, assignment) -> dict[int, float]:
    """Summed edge weight per neighbor block, one row entry at a time: the
    oracle of the kernels' gain count, which counts every row of a file
    without edge weights in C."""
    gains: dict[int, float] = {}
    for v, w in zip(record.ids, record.weights):
        block = assignment[v]
        if block != UNASSIGNED:
            gains[block] = gains.get(block, 0.0) + w
    return gains


def _exhaustion_fallback(state: PartitionState) -> int:
    # No feasible block: place on the globally lightest one and flag it.
    state.violations += 1
    return least_block(state.block_weight)


def scan_fennel_assign(record, state: PartitionState,
                       params: FennelParams) -> int:
    """Fennel by scoring all k blocks: the oracle of ``fennel_assign``."""
    gains = _neighbor_gains(record, state.assignment)
    best = None
    best_key = None
    for i in range(state.k):
        bw = state.block_weight[i]
        if bw + record.weight > state.l_max:
            continue
        score = fennel_gain(gains.get(i, 0.0), record.weight, bw, params)
        key = (score, -bw, -i)
        if best_key is None or key > best_key:
            best, best_key = i, key
    if best is None:
        best = _exhaustion_fallback(state)
    state.assign(record.id, best, record.weight)
    return best


def scan_ldg_assign(record, state: PartitionState, counts: list) -> int:
    """LDG by scoring all k blocks, ties to the fewer ``counts`` (the
    pass's nodes per block, which the call updates): the oracle of
    ``ldg_assign``."""
    gains = _neighbor_gains(record, state.assignment)
    best = None
    best_key = None
    for i in range(state.k):
        bw = state.block_weight[i]
        if bw + record.weight > state.l_max:
            continue
        score = gains.get(i, 0.0) * (1.0 - bw / state.l_max)
        key = (score, -counts[i], -i)
        if best_key is None or key > best_key:
            best, best_key = i, key
    if best is None:
        best = _exhaustion_fallback(state)
    state.assign(record.id, best, record.weight)
    counts[best] += 1
    return best


def record_fennel_block(gains: dict[int, float], bw: list, load: list,
                        room: float, weight: float, params: FennelParams,
                        lightest: int) -> int:
    """Fennel's k-independent block selection with each scored block's
    penalty computed from ``params``: the oracle of ``onepass.fennel_block``,
    which reads a penalty table.  Same candidates, floats and ties."""
    if load[lightest] > room:
        gains = {i: gains.get(i, 0.0) for i in range(len(bw))}
    elif lightest not in gains:
        gains[lightest] = 0.0
    ag = params.alpha * params.gamma
    g1 = params.gamma - 1.0
    best = -1
    best_score = best_bw = 0
    for i, g in gains.items():
        if load[i] > room:
            continue
        b = bw[i]
        score = g - weight * (ag * b ** g1)
        if (best < 0 or score > best_score or score == best_score
                and (b < best_bw or b == best_bw and i < best)):
            best, best_score, best_bw = i, score, b
    return best


def least_block(keys: list) -> int:
    """The block of least key, lowest index first, by an O(k) scan: the
    oracle of ``MinBlockHeap.min_block``."""
    return min(range(len(keys)), key=lambda i: (keys[i], i))


def block_counts(state: PartitionState) -> list:
    """Nodes per block of ``state.assignment``: the LDG count table of a
    pass that placed exactly the assigned nodes."""
    counts = [0] * state.k
    for block in state.assignment:
        if block != UNASSIGNED:
            counts[block] += 1
    return counts


class ScanMinBlock:
    """``min_block()`` by :func:`least_block` over a live key list, so it
    needs no update when a key changes."""

    def __init__(self, keys: list):
        self.keys = keys

    def min_block(self) -> int:
        return least_block(self.keys)


def record_fennel_assign(record, state: PartitionState,
                         params: FennelParams) -> int:
    """Fennel one record per call, the lightest block by an O(k) scan and
    the writes through ``state.assign``: the oracle of the batch kernel
    ``onepass.fennel_assign``."""
    lightest = least_block(state.block_weight)
    weight = record.weight
    room = state.l_max - weight
    if state.block_weight[lightest] > room:
        state.violations += 1
        best = lightest
    else:
        best = record_fennel_block(_neighbor_gains(record, state.assignment),
                                   state.block_weight, state.block_weight,
                                   room, weight, params, lightest)
    state.assign(record.id, best, weight)
    return best


def record_ldg_assign(record, state: PartitionState, counts: list) -> int:
    """LDG one record per call, scoring the neighbor blocks by
    ``1 - c(V_i)/L_max`` computed per block, the fewest-nodes block of
    ``counts`` (the pass's nodes per block, which the call updates) by an
    O(k) scan and the writes through ``state.assign``: the oracle of the
    batch kernel ``onepass.ldg_assign``."""
    gains = _neighbor_gains(record, state.assignment)
    weight = record.weight
    l_max = state.l_max
    room = l_max - weight
    block_weight = state.block_weight
    best = -1
    best_score = best_count = 0
    for i, g in gains.items():
        bw = block_weight[i]
        if bw > room:
            continue
        score = g * (1.0 - bw / l_max)
        if (best < 0 or score > best_score or score == best_score
                and (counts[i] < best_count
                     or counts[i] == best_count and i < best)):
            best, best_score, best_count = i, score, counts[i]
    if best < 0:
        best = least_block(counts)
        if block_weight[best] > room:
            feasible = [i for i in range(state.k)
                        if block_weight[i] + weight <= l_max]
            best = min(feasible, key=lambda i: (counts[i], i)) \
                if feasible else _exhaustion_fallback(state)
    state.assign(record.id, best, weight)
    counts[best] += 1
    return best


def batch_fennel_assign(records, state: PartitionState, params: FennelParams,
                        pen: list, restream: bool = False) -> None:
    """Fennel on a list of records per call, with the penalty table ``pen``
    kept current and the state's writes made inline: the oracle of the
    chunk kernel ``onepass.fennel_assign``, as that kernel was before it
    walked a chunk's columns."""
    assignment = state.assignment
    block_weight = state.block_weight
    order = MinBlockHeap(block_weight)
    heap = order.heap
    limit = 4 * state.k
    l_max = state.l_max
    ag = params.alpha * params.gamma
    g1 = params.gamma - 1.0
    block_of = assignment.__getitem__
    for record in records:
        node = record.id
        weight = record.weight
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
            weights = record.weights
            gains: dict[int, float] = {}
            if weights.count(1) == len(weights):
                _count_elements(gains, map(block_of, record.ids))
                gains.pop(UNASSIGNED, None)
            else:
                for v, w in zip(record.ids, weights):
                    block = assignment[v]
                    if block != UNASSIGNED:
                        gains[block] = gains.get(block, 0.0) + w
            best = fennel_block(gains, block_weight, pen, block_weight, room,
                                weight, lightest)
        if assignment[node] != UNASSIGNED:
            raise AssertionError(f"node {node} already assigned")
        assignment[node] = best
        bw = block_weight[best] = block_weight[best] + weight
        pen[best] = ag * bw ** g1
        heappush(heap, (bw, best))
        if len(heap) > limit:
            order.rebuild()
            heap = order.heap


def batch_ldg_assign(records, state: PartitionState, free: list,
                     counts: list, restream: bool = False) -> None:
    """LDG on a list of records per call, with the free-capacity table
    ``free`` and the node counts ``counts`` kept current and the state's
    writes made inline: the oracle of the chunk kernel
    ``onepass.ldg_assign``, as that kernel was before it walked a chunk's
    columns."""
    assignment = state.assignment
    block_weight = state.block_weight
    order = MinBlockHeap(counts)
    heap = order.heap
    limit = 4 * state.k
    l_max = state.l_max
    block_of = assignment.__getitem__
    for record in records:
        node = record.id
        weight = record.weight
        if restream:
            assignment[node] = UNASSIGNED
        weights = record.weights
        gains: dict[int, float] = {}
        if weights.count(1) == len(weights):
            _count_elements(gains, map(block_of, record.ids))
            gains.pop(UNASSIGNED, None)
        else:
            for v, w in zip(record.ids, weights):
                block = assignment[v]
                if block != UNASSIGNED:
                    gains[block] = gains.get(block, 0.0) + w
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
                count, best = heap[0]
                if counts[best] == count:
                    break
                heappop(heap)
            if block_weight[best] > room:
                feasible = [i for i in range(state.k)
                            if block_weight[i] + weight <= l_max]
                best = min(feasible, key=lambda i: (counts[i], i)) \
                    if feasible else _exhaustion_fallback(state)
        if assignment[node] != UNASSIGNED:
            raise AssertionError(f"node {node} already assigned")
        assignment[node] = best
        bw = block_weight[best] = block_weight[best] + weight
        count = counts[best] = counts[best] + 1
        free[best] = 1.0 - bw / l_max
        heappush(heap, (count, best))
        if len(heap) > limit:
            order.rebuild()
            heap = order.heap


def record_edge_cut(records, assignment) -> int:
    """The edge cut by a loop over records, each row entry at a time: the
    oracle of ``metrics.edge_cut``, which walks a chunk's columns."""
    doubled = 0
    for record in records:
        bu = assignment[record.id]
        for v, w in zip(record.ids, record.weights):
            if assignment[v] != bu:
                doubled += w
    if doubled % 2 != 0:
        raise FormatError("asymmetric adjacency: doubled cut weight is odd")
    return doubled // 2


def record_comm_cost(records, assignment, hierarchy) -> tuple[int, int]:
    """(edge cut, comm cost) by a loop over records: the oracle of
    ``metrics.comm_cost``, which walks a chunk's columns."""
    codes = hierarchy.codes()
    by_bits = hierarchy.distance_by_bit_length
    total = 0
    for record in records:
        u = record.id
        code = codes[assignment[u]]
        for v, w in zip(record.ids, record.weights):
            if v > u and assignment[v] != assignment[u]:
                total += w * by_bits[(code ^ codes[assignment[v]]).bit_length()]
    return record_edge_cut(records, assignment), total


def record_cut_net_and_connectivity(records, assignment,
                                    item_weights: bool) -> tuple[int, int]:
    """(cut-net, connectivity) from per-net block sets, record by record:
    the oracle of ``metrics.cut_net_and_connectivity``, which walks a
    chunk's columns.  Net weights count only with ``item_weights``."""
    nets: dict[int, set] = {}
    weight: dict[int, int] = {}
    for record in records:
        for e, w in zip(record.ids, record.weights):
            nets.setdefault(e, set()).add(assignment[record.id])
            weight[e] = w if item_weights else 1
    return (sum(weight[e] for e, s in nets.items() if len(s) > 1),
            sum((len(s) - 1) * weight[e] for e, s in nets.items()))


def run_records(stream, config, state: PartitionState, params: FennelParams,
                fennel, ldg) -> PartitionState:
    """Fennel or LDG and their restreaming, one record per kernel call:
    ``config.passes`` passes, a later one unassigning each node before
    placing it (ReFennel, alpha times ``restream_alpha_growth`` per pass) or
    placing every node again into cleared blocks (ReLDG), each LDG pass
    counting its nodes per block afresh.  The oracle of
    ``onepass.run_onepass`` and ``run_restream``; ``fennel`` and ``ldg`` are
    per-record kernels."""
    growth = config.restream_alpha_growth
    for p in range(config.passes):
        if config.algorithm == "ldg":
            if p:
                state.block_weight[:] = [0] * state.k
            counts = [0] * state.k
            for record in stream_records(stream):
                if p:
                    state.assignment[record.id] = UNASSIGNED
                ldg(record, state, counts)
        else:
            pass_params = FennelParams(gamma=params.gamma,
                                       alpha=params.alpha * growth ** p)
            for record in stream_records(stream):
                if p:
                    state.unassign(record.id, record.weight)
                fennel(record, state, pass_params)
    return state


def shadow_reldg(stream, config, state: PartitionState,
                 params: FennelParams) -> PartitionState:
    """Oracle of ReLDG in ``onepass.run_restream``: each later pass scores
    on a second ``PartitionState`` of per-pass weights that shares the run's
    assignment, and on per-pass node counts, and every placement is written
    again into the run's state."""
    run_onepass(stream, config, state, params)
    for _ in range(1, config.passes):
        current = PartitionState(state.n, state.k, state.epsilon,
                                 state.total_weight)
        current.assignment = state.assignment
        counts = [0] * state.k
        for record in stream_records(stream):
            state.unassign(record.id, record.weight)
            new = record_ldg_assign(record, current, counts)
            # current shares the assignment array and already wrote it
            state.assignment[record.id] = UNASSIGNED
            state.assign(record.id, new, record.weight)
        state.violations += current.violations
    return state


def select_block(gains: dict[int, float], counts: dict[int, int],
                 node_weight: int, state: PartitionState, params: FennelParams,
                 blocks) -> int:
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
        if state.block_weight[i] + node_weight > state.l_max:
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


UNTOUCHED, SINGLE_BLOCK, CUT = 0, 1, 2


class NetTracker:
    """Per-net cut status (UNTOUCHED, SINGLE_BLOCK or CUT) and the block of
    the most recently streamed pin, updated by one method call per pin: the
    oracle of the kernel's per-net ``last_block`` list (see
    :meth:`kernel_last_block`)."""

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

    def kernel_last_block(self, cutnet: bool) -> list[int]:
        """What ``freight_assign``'s ``last_block`` must hold: under
        ``cutnet`` ``freight.CUT`` exactly where the status is CUT, and
        everywhere else the last block (-1 for an untouched net)."""
        if not cutnet:
            return list(self.last_block)
        return [freight.CUT if s == CUT else d
                for s, d in zip(self.status, self.last_block)]


class _Bucket:
    __slots__ = ("cardinality", "l", "r")

    def __init__(self, cardinality: int, l: int, r: int):
        self.cardinality = cardinality
        self.l = l
        self.r = r


class BucketSortedBlocks:
    """``freight.SortedBlocks`` with one bucket object per maximal run of
    equal cardinality, storing its [l, r] position range; an increment that
    opens a new cardinality allocates a bucket.  The oracle of the flat
    ``end`` list."""

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


def net_gains(record, tracker: NetTracker, cutnet: bool):
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


def commit(record, block: int, state: PartitionState, tracker: NetTracker,
           blocks, unit: bool) -> None:
    state.assign(record.id, block, record.weight)
    if unit:
        blocks.increment(block)
    for e in record.ids:
        tracker.observe(e, block)


def naive_freight_assign(record, state: PartitionState, tracker: NetTracker,
                         blocks, cutnet: bool, params: FennelParams,
                         unit: bool = True) -> int:
    """FREIGHT by a full scan: the oracle of ``freight_assign``."""
    gains, counts = net_gains(record, tracker, cutnet)
    best = select_block(gains, counts, record.weight, state, params, blocks)
    commit(record, best, state, tracker, blocks, unit)
    return best


def run_freight_reference(stream, state: PartitionState, params: FennelParams,
                          objective: str = "connectivity") -> PartitionState:
    """FREIGHT by full per-node scans over all k blocks (O(nk)).

    Unit node weights only: ties between empty-gain blocks resolve through
    :class:`SortedBlocks`, as in the unit-weight fast path.
    """
    tracker = NetTracker(stream.header.m)
    blocks = SortedBlocks(state.k)
    for record in stream_records(stream):
        naive_freight_assign(record, state, tracker, blocks,
                             objective == "cutnet", params)
    return state


def record_freight_assign(record, state: PartitionState,
                          tracker: NetTracker, blocks, cutnet: bool,
                          params: FennelParams, unit: bool = True) -> int:
    """FREIGHT one record per call, the min block from ``blocks`` (a
    :class:`SortedBlocks` told of each choice when ``unit``, else anything
    with ``min_block``), the state's writes through ``state.assign`` and the
    per-net state in the three-state :class:`NetTracker`: the oracle of the
    chunk kernel ``freight.freight_assign``."""
    gains, counts = net_gains(record, tracker, cutnet)
    lightest = blocks.min_block()
    if lightest not in counts:
        gains[lightest] = counts[lightest] = 0
    weight = record.weight
    block_weight = state.block_weight
    room = state.l_max - weight
    ag = params.alpha * params.gamma
    g1 = params.gamma - 1.0
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
        state.violations += 1
        best = lightest
    commit(record, best, state, tracker, blocks, unit)
    return best


def run_fennel_twin(graph_stream, state: PartitionState,
                    params: FennelParams) -> PartitionState:
    """Fennel over a graph stream with FREIGHT's canonical tie policy.

    Gains come from neighbor assignments directly (no net tracker); the shared
    block selector makes the tie handling identical, so on size-2-net inputs
    this is the graph-side half of the Fennel/FREIGHT equivalence.
    """
    blocks = SortedBlocks(state.k)
    for record in stream_records(graph_stream):
        gains: dict[int, float] = {}
        counts: dict[int, int] = {}
        for v, w in zip(record.ids, record.weights):
            b = state.assignment[v]
            if b != UNASSIGNED:
                gains[b] = gains.get(b, 0.0) + w
                counts[b] = counts.get(b, 0) + 1
        best = select_block(gains, counts, record.weight, state, params,
                            blocks)
        state.assign(record.id, best, record.weight)
        blocks.increment(best)
    return state


def _child_los(node) -> list[int]:
    """The first leaf of each child of ``node``."""
    return [child.lo for child in node.children]


def scan_score_child(record, node, state: PartitionState, neighbors, config,
                     params: FennelParams) -> int:
    """Score every child of ``node``: the oracle of one level of
    ``multisection.oms_assign``.

    The full scan OMS used before the candidate set, reading child weights
    from the parent's list and recomputing each child's capacity and
    penalty scale.
    """
    alpha, gamma = params.alpha, params.gamma
    gains = [0.0] * len(node.children)
    for leaf, w in neighbors:
        if node.lo <= leaf <= node.hi:
            gains[bisect_right(_child_los(node), leaf) - 1] += w
    best = None
    best_key = None
    for idx, child in enumerate(node.children):
        weight = node.child_weights[idx]
        capacity = child.t * state.l_max
        if weight + record.weight > capacity:
            continue
        if config.scorer == "fennel":
            a = heterogeneous_alpha(child, alpha)
            score = gains[idx] - record.weight * a * gamma * \
                weight ** (gamma - 1.0)
        else:
            score = gains[idx] * (1.0 - weight / capacity)
        key = (score, -weight, -idx)
        if best_key is None or key > best_key:
            best, best_key = idx, key
    if best is None:
        state.violations += 1
        best = min(range(len(node.children)),
                   key=lambda i: node.child_weights[i])
    return best


def scan_hash_child(record, node, state: PartitionState) -> int:
    """The hashed child if it fits, else the lightest feasible child."""
    weights = node.child_weights
    fits = [weights[i] + record.weight <= child.t * state.l_max
            for i, child in enumerate(node.children)]
    idx = record.id % len(node.children)
    if fits[idx]:
        return idx
    feasible = [i for i in range(len(fits)) if fits[i]]
    if not feasible:
        state.violations += 1
        feasible = range(len(fits))
    return min(feasible, key=lambda i: weights[i])


def scan_oms_assign(record, root, state: PartitionState, config,
                    params: FennelParams) -> int:
    """One OMS descent by full scans: every step scores every child."""
    assignment = state.assignment
    neighbors = [(assignment[v], w) for v, w in zip(record.ids, record.weights)
                 if assignment[v] != UNASSIGNED]
    node = root
    while node.children:
        if config.hash_bottom_layers and \
                node.height <= config.hash_bottom_layers:
            idx = scan_hash_child(record, node, state)
        else:
            idx = scan_score_child(record, node, state, neighbors, config,
                                   params)
        node.child_weights[idx] += record.weight
        node = node.children[idx]
    state.assign(record.id, node.lo, record.weight)
    return node.lo


def record_oms_assign(record, root, state: PartitionState, config,
                      params: FennelParams) -> int:
    """OMS one record per call, through ``state.assign``: the oracle of the
    chunk kernel ``multisection.oms_assign``.  A row whose edges all weigh 1
    counts its leaves in C, any other keeps ``(leaf, w)`` pairs."""
    assignment, edge_weights = state.assignment, record.weights
    if edge_weights.count(1) == len(edge_weights):
        counts: dict[int, int] = {}
        _count_elements(counts, map(assignment.__getitem__, record.ids))
        counts.pop(UNASSIGNED, None)
        leaves = counts.items()
    else:
        leaves = [(assignment[v], w) for v, w in zip(record.ids, edge_weights)
                  if assignment[v] != UNASSIGNED]
    weight = record.weight
    fennel = config.scorer == "fennel"
    gamma, g1 = params.gamma, params.gamma - 1.0
    node = root
    while node.children:
        weights = node.child_weights
        if node.height <= config.hash_bottom_layers:
            best = _hash_child(record.id, weight, node)
        else:
            lo, hi, child_of = node.lo, node.hi, node.child_of
            gains: dict[int, float] = {}
            for leaf, w in leaves:
                if lo <= leaf <= hi:
                    idx = child_of[leaf - lo]
                    gains[idx] = gains.get(idx, 0.0) + w
            for start, stop in node.classes:
                part = weights[start:stop]
                gains.setdefault(start + part.index(min(part)), 0.0)
            capacities, alphas = node.capacities, node.alphas
            best, best_score, best_cw = -1, 0.0, 0
            for idx, gain in gains.items():
                cw = weights[idx]
                capacity = capacities[idx]
                if cw + weight > capacity:
                    continue
                if fennel:
                    score = gain - weight * alphas[idx] * gamma * cw ** g1
                else:
                    score = gain * (1.0 - cw / capacity)
                if best < 0 or score > best_score or score == best_score and (
                        cw < best_cw or cw == best_cw and idx < best):
                    best, best_score, best_cw = idx, score, cw
        if best < 0:
            state.violations += 1
            best = weights.index(min(weights))
        weights[best] += weight
        node = node.children[best]
    state.assign(record.id, node.lo, weight)
    return node.lo


def candidate_oms_assign(record, root, state: PartitionState, config,
                         params: FennelParams) -> int:
    """The candidate descent ``multisection.oms_assign`` replaced: one
    ``(leaf, w)`` pair per assigned neighbor, a bisect over the children's
    first leaves per pair and level, and ``(score, -cw, -idx)`` keys over
    the children holding a neighbor plus each class's lightest child."""
    assignment = state.assignment
    leaves = [(assignment[v], w) for v, w in zip(record.ids, record.weights)
              if assignment[v] != UNASSIGNED]
    weight = record.weight
    fennel = config.scorer == "fennel"
    node = root
    while node.children:
        if node.height <= config.hash_bottom_layers:
            idx = _hash_child(record.id, weight, node)
        else:
            idx = _score_child(weight, node, leaves, fennel, params.gamma)
        weights = node.child_weights
        if idx < 0:
            state.violations += 1
            idx = weights.index(min(weights))
        weights[idx] += weight
        node = node.children[idx]
    state.assign(record.id, node.lo, weight)
    return node.lo


def _candidates(node, gains: dict[int, float]) -> list[int]:
    """The children holding a neighbor and the lightest child, lowest index
    first, of each class."""
    weights = node.child_weights
    out = list(gains)
    for start, stop in node.classes:
        part = weights[start:stop]
        idx = start + part.index(min(part))
        if idx not in gains:
            out.append(idx)
    return out


def _score_child(weight: int, node, leaves, fennel: bool,
                 gamma: float) -> int:
    """Index of the best-scoring feasible candidate child of ``node``; -1 if
    none is feasible."""
    lo, hi, starts = node.lo, node.hi, _child_los(node)
    gains: dict[int, float] = {}
    for leaf, w in leaves:
        if lo <= leaf <= hi:
            idx = bisect_right(starts, leaf) - 1
            gains[idx] = gains.get(idx, 0.0) + w
    weights, capacities = node.child_weights, node.capacities
    alphas = node.alphas
    best, best_key = -1, None
    for idx in _candidates(node, gains):
        cw = weights[idx]
        if cw + weight > capacities[idx]:
            continue
        if fennel:
            score = gains.get(idx, 0.0) - weight * alphas[idx] * gamma * \
                cw ** (gamma - 1.0)
        else:
            score = gains.get(idx, 0.0) * (1.0 - cw / capacities[idx])
        key = (score, -cw, -idx)
        if best_key is None or key > best_key:
            best, best_key = idx, key
    return best


def stacked_tree(k: int, fanout_at_depth, l_max: int,
                 alpha: float) -> TreeBlock:
    """The OMS tree built in three walks, the oracle of
    ``multisection._build``: a stack walk attaches each block's children,
    the larger first, and extends ``child_of`` by each child's index once
    per leaf it covers, a second walk sets the heights and a third the
    per-run capacities (t * l_max), penalty scales and the penalty table of
    an empty tree (0.0 per child)."""
    root = TreeBlock(0, k - 1)
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        if node.t == 1:
            continue
        parts = min(fanout_at_depth(depth), node.t)
        base, rem = divmod(node.t, parts)
        lo = node.lo
        for i, size in enumerate([base + 1] * rem + [base] * (parts - rem)):
            node.children.append(TreeBlock(lo, lo + size - 1))
            node.child_of.extend([i] * size)
            lo += size
        node.child_weights = [0] * parts
        node.classes = [(0, rem), (rem, parts)] if rem else [(0, parts)]
        stack.extend((child, depth + 1) for child in node.children)
    _set_heights(root)
    stack = [root]
    while stack:
        node = stack.pop()
        node.capacities = [c.t * l_max for c in node.children]
        node.alphas = [heterogeneous_alpha(c, alpha) for c in node.children]
        node.pens = [0.0] * len(node.children)
        stack.extend(node.children)
    return root


def _set_heights(node: TreeBlock) -> int:
    if not node.children:
        node.height = 0
    else:
        node.height = 1 + max(_set_heights(c) for c in node.children)
    return node.height


def tree_fields(root) -> list[tuple]:
    """Every field of every block, in preorder: equal lists mean equal
    trees."""
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        out.append((node.lo, node.hi, len(node.children),
                    node.child_of.tolist(),
                    node.child_weights, node.capacities, node.alphas,
                    node.pens, node.classes, node.height))
        stack.extend(reversed(node.children))
    return out


def run_multisection_multipass(graph_stream, root, l_max: int,
                               params: FennelParams,
                               scorer: str = "fennel") -> list[int]:
    """Layer-by-layer restreamed multi-section (one pass per tree layer).

    Pass j refines every node's block to one child of its layer-(j-1) block,
    keeping plain per-node weight tables rather than tree node state.
    """
    n = graph_stream.header.n
    # current tree node per graph node; start with everyone at the root
    position = [root] * n
    depth = 0
    while any(p.children for p in set(position)):
        new_weights: dict[int, float] = {}
        for record in stream_records(graph_stream):
            node = position[record.id]
            if not node.children:
                new_weights[id(node)] = new_weights.get(id(node), 0) + record.weight
                continue
            best = None
            best_key = None
            for idx, child in enumerate(node.children):
                cw = new_weights.get(id(child), 0)
                if cw + record.weight > child.t * l_max:
                    continue
                gain = 0.0
                for v, w in zip(record.ids, record.weights):
                    other = position[v]
                    # neighbor counts only when the neighbor has already been
                    # restreamed in this pass (deeper position inside child)
                    if other.lo >= child.lo and other.hi <= child.hi:
                        gain += w
                if scorer == "fennel":
                    a = params.alpha / math.sqrt(child.t)
                    score = gain - record.weight * a * params.gamma * \
                        cw ** (params.gamma - 1.0)
                else:
                    score = gain * (1.0 - cw / (child.t * l_max))
                key = (score, -cw, -idx)
                if best_key is None or key > best_key:
                    best, best_key = child, key
            if best is None:
                best = min(node.children, key=lambda c: new_weights.get(id(c), 0))
            position[record.id] = best
            new_weights[id(best)] = new_weights.get(id(best), 0) + record.weight
        depth += 1
        if depth > 64:
            raise AssertionError("multi-pass reference failed to converge")
    return [p.lo for p in position]


def record_load_batch(records: Iterator, delta: int):
    """Oracle of ``heistream.load_batch``: the next up-to-delta records of
    ``records``, or None when they are exhausted."""
    return list(islice(records, delta)) or None


def record_build_model(batch: list, state: PartitionState, config,
                       rng: random.Random, blocks=None) -> BatchModel:
    """Oracle of ``heistream.build_model`` on a batch of records: the same
    model, the same float sums and the same ``rng`` draws."""
    start = batch[0].id
    end = batch[-1].id + 1
    nb = len(batch)
    assignment = state.assignment
    # artificial nodes once any node is placed, read from the assignment
    placed = any(block != UNASSIGNED for block in assignment)
    num_art = state.k if placed else 0
    model = BatchModel(nb, num_art)
    model.blocks = blocks

    edges: list[dict[int, float]] = [dict() for _ in range(nb)]
    ghosts: dict[int, list[tuple[int, int]]] = {}
    extended = config.model == "extended"
    for local, record in enumerate(batch):
        model.weight[local] = record.weight
        model.true_weight[local] = record.weight
        row = edges[local]
        for v, w in zip(record.ids, record.weights):
            if start <= v < end:
                u = v - start
            elif (block := assignment[v]) != UNASSIGNED:
                u = nb + block
            elif blocks is not None:
                raise AssertionError("outside node unassigned on a later pass")
            else:
                if extended:
                    ghosts.setdefault(v, []).append((local, w))
                continue
            if u in row:
                row[u] += w
            else:
                row[u] = w

    for ghost_neighbors in ghosts.values():
        host = ghost_neighbors[rng.randrange(len(ghost_neighbors))][0]
        model.weight[host] += 1
        model.ghost_inflation += 1
        for local, w in ghost_neighbors:
            if local == host:
                continue
            half = w / 2
            edges[local][host] = edges[local].get(host, 0) + half
            edges[host][local] = edges[host].get(local, 0) + half

    model.adj = [sorted(d.items()) for d in edges]
    return model


def record_commit_batch(batch: list, blocks: list[int],
                        state: PartitionState) -> None:
    """Oracle of ``heistream.commit_batch`` on a batch of records."""
    for record, block in zip(batch, blocks):
        state.assign(record.id, block, record.weight)


def restream_model(batch: list,
                   state: PartitionState) -> tuple[BatchModel, list[int]]:
    """Oracle of ``heistream.build_model`` on a later pass, built the way
    HeiStream once built it: with the batch still assigned, every neighbor
    outside the batch becomes an artificial edge, and the artificial
    weights are the block weights minus the batch's own.  Returns the model
    and those weights, which the state must hold once the batch is
    unassigned.  No ghost forms, so neither the model kind nor ``rng``
    enters."""
    start = batch[0].id
    end = batch[-1].id + 1
    nb = len(batch)
    assignment = state.assignment

    outside = start > 0 or state.n > nb
    num_art = state.k if outside else 0
    model = BatchModel(nb, num_art)

    edges: list[dict[int, float]] = [dict() for _ in range(nb)]
    for local, record in enumerate(batch):
        model.weight[local] = record.weight
        model.true_weight[local] = record.weight
        for v, w in zip(record.ids, record.weights):
            if start <= v < end:
                edges[local][v - start] = edges[local].get(v - start, 0) + w
            else:
                block = assignment[v]
                if block == UNASSIGNED:
                    raise AssertionError("outside neighbor unassigned")
                art = nb + block
                edges[local][art] = edges[local].get(art, 0) + w

    # Artificial nodes represent every node outside this batch.
    art_weight = list(state.block_weight)
    for record in batch:
        art_weight[assignment[record.id]] -= record.weight
    model.blocks = [assignment[r.id] for r in batch]

    model.adj = [sorted(d.items()) for d in edges]
    return model, art_weight


def cluster_cap(state: PartitionState, model: BatchModel) -> int:
    """Oracle of the cap ``heistream.coarsen`` gives label propagation: W is
    the weight committed to the blocks plus the batch's own true weight,
    counted from the state and the batch nodes."""
    weight = sum(state.block_weight) + sum(model.true_weight[:model.num_batch])
    if state.k == 1:
        return max(1, state.l_max - weight)
    return max(1, math.floor(Fraction(state.k * state.l_max - weight,
                                      state.k - 1)))


def propagate_labels(model: BatchModel, cap: int, rounds: int,
                     rng: random.Random) -> list[int]:
    """Oracle of ``heistream._propagate_labels``: filters every row per visit."""
    restrict_blocks = model.blocks
    nb = model.num_batch
    cluster = list(range(nb))
    cluster_weight = [model.true_weight[v] for v in range(nb)]
    order = list(range(nb))
    for _ in range(rounds):
        rng.shuffle(order)
        moved = False
        for v in order:
            own = cluster[v]
            conn: dict[int, float] = {}
            for u, w in model.adj[v]:
                if u >= nb:
                    continue
                if restrict_blocks is not None and \
                        restrict_blocks[u] != restrict_blocks[v]:
                    continue
                conn[cluster[u]] = conn.get(cluster[u], 0.0) + w
            if not conn:
                continue
            wv = model.true_weight[v]
            own_conn = conn.get(own, 0.0)
            best_conn = own_conn
            candidates: list[int] = []
            for c, strength in conn.items():
                if c == own or cluster_weight[c] + wv > cap:
                    continue
                if strength > best_conn:
                    best_conn = strength
                    candidates = [c]
                elif strength == best_conn:
                    candidates.append(c)
            if not candidates:
                continue
            if best_conn == own_conn and rng.random() >= 0.5:
                continue  # zero-gain move declined
            target = candidates[0] if len(candidates) == 1 else rng.choice(candidates)
            cluster_weight[own] -= wv
            cluster_weight[target] += wv
            cluster[v] = target
            moved = True
        if not moved:
            break
    return cluster


def contract(model: BatchModel,
             cluster: list[int]) -> tuple[BatchModel, list[int]]:
    """Oracle of ``heistream._contract``."""
    nb = model.num_batch
    remap: dict[int, int] = {}
    for v in range(nb):   # ascending order keeps ids deterministic
        c = cluster[v]
        if c not in remap:
            remap[c] = len(remap)
    coarse_nb = len(remap)
    coarse = BatchModel(coarse_nb, model.num_art)
    coarse.ghost_inflation = model.ghost_inflation
    cluster_map = [remap[cluster[v]] for v in range(nb)]

    for v in range(nb):
        coarse.weight[cluster_map[v]] += model.weight[v]
        coarse.true_weight[cluster_map[v]] += model.true_weight[v]

    edges: list[dict[int, float]] = [dict() for _ in range(coarse_nb)]
    for v in range(nb):
        cv = cluster_map[v]
        for u, w in model.adj[v]:
            cu = cluster_map[u] if u < nb else coarse_nb + (u - nb)
            if cu == cv:
                continue
            edges[cv][cu] = edges[cv].get(cu, 0) + w
    coarse.adj = [sorted(d.items()) for d in edges]

    if model.blocks is not None:
        coarse.blocks = [0] * coarse_nb
        for v in range(nb):
            coarse.blocks[cluster_map[v]] = model.blocks[v]
    return coarse, cluster_map


def scan_initial_partition(model: BatchModel, state: PartitionState,
                           params: FennelParams) -> list[int]:
    """Oracle of ``heistream.initial_partition``: scores all k blocks per
    coarsest node through ``fennel_gain``, feasibility by ``true_bw``; both
    start from the state's committed block weights."""
    nb = model.num_batch
    bw = [0.0 + w for w in state.block_weight]
    true_bw = list(state.block_weight)
    blocks = [UNASSIGNED] * nb
    for v in range(nb):
        gains: dict[int, float] = {}
        for u, w in model.adj[v]:
            b = blocks[u] if u < nb else u - nb
            if b != UNASSIGNED:
                gains[b] = gains.get(b, 0.0) + w
        wv = model.weight[v]
        tv = model.true_weight[v]
        best = None
        best_key = None
        for i in range(state.k):
            if true_bw[i] + tv > state.l_max:
                continue
            key = (fennel_gain(gains.get(i, 0.0), wv, bw[i], params),
                   -bw[i], -i)
            if best_key is None or key > best_key:
                best, best_key = i, key
        if best is None:
            state.violations += 1
            best = min(range(state.k), key=lambda i: (true_bw[i], i))
        blocks[v] = best
        bw[best] += wv
        true_bw[best] += tv
    return blocks


def refine_level(model: BatchModel, blocks: list[int], bw: list[float],
                 true_bw: list[int], state: PartitionState,
                 params: FennelParams, rounds: int,
                 rng: random.Random, strict: bool = False) -> float:
    """Oracle of ``heistream._refine_level``: rebuilds each node's block
    gains on every visit and scores each block through ``fennel_gain``.
    A zero-gain move is a coin flip, or declined without one when
    ``strict``."""
    nb = model.num_batch
    order = list(range(nb))
    total_gain = 0.0
    for _ in range(rounds):
        rng.shuffle(order)
        moved = False
        for v in order:
            own = blocks[v]
            wv = model.weight[v]
            tv = model.true_weight[v]
            gains: dict[int, float] = {}
            for u, w in model.adj[v]:
                b = blocks[u] if u < nb else u - nb
                gains[b] = gains.get(b, 0.0) + w
            bw[own] -= wv
            true_bw[own] -= tv
            stay_score = fennel_gain(gains.get(own, 0.0), wv, bw[own], params)
            best_score = stay_score
            candidates: list[int] = []
            for b, g in gains.items():
                if b == own or true_bw[b] + tv > state.l_max:
                    continue
                score = fennel_gain(g, wv, bw[b], params)
                if score > best_score:
                    best_score = score
                    candidates = [b]
                elif score == best_score:
                    candidates.append(b)
            target = own
            if candidates and (best_score > stay_score
                               or not strict and rng.random() < 0.5):
                target = candidates[0] if len(candidates) == 1 \
                    else rng.choice(candidates)
            bw[target] += wv
            true_bw[target] += tv
            if target != own:
                blocks[v] = target
                total_gain += best_score - stay_score
                moved = True
        if not moved:
            break
    return total_gain


def distance_matrix(spec) -> np.ndarray:
    """Full k x k distance matrix from the binary codes (vectorized)."""
    codes = np.array(spec.codes(), dtype=np.int64)
    if codes.size and int(codes.max()) >= 1 << 52:
        raise ValueError("codes too wide for exact float log2")
    x = codes[:, None] ^ codes[None, :]
    out = np.zeros(x.shape, dtype=np.int64)
    nz = x > 0
    sections = (np.floor(np.log2(x, where=nz, out=np.zeros_like(x, dtype=float)))
                .astype(np.int64) // spec.section_bits)
    dist = np.array(spec.distances, dtype=np.int64)
    out[nz] = dist[sections[nz]]
    return out


def division_distance_matrix(spec) -> np.ndarray:
    """k x k matrix via the division method; independent of the codes."""
    pes = np.arange(spec.k, dtype=np.int64)
    out = np.zeros((spec.k, spec.k), dtype=np.int64)
    for i, h in enumerate(spec.division_vector()):
        q = pes // h
        out[q[:, None] != q[None, :]] = spec.distances[i]
    return out


def check_consistency(state: PartitionState, node_weights) -> None:
    """Recompute a state's block weights from scratch and compare."""
    recomputed = [0] * state.k
    for node, block in enumerate(state.assignment):
        if block == UNASSIGNED:
            continue
        recomputed[block] += node_weights[node]
    if recomputed != state.block_weight:
        raise AssertionError("block weights inconsistent with assignments")


def check_leaf_weights(root, state: PartitionState) -> None:
    """Every child weight a tree block keeps must equal the sum of the block
    weights of the child's leaves."""
    def walk(node) -> int:
        if not node.children:
            return state.block_weight[node.lo]
        weights = [walk(child) for child in node.children]
        if node.child_weights != weights:
            raise AssertionError("tree weights out of sync with partition")
        return sum(weights)
    walk(root)


def check_penalty_table(root, params: FennelParams, scorer: str) -> None:
    """Every tree block's ``pens`` must equal the Fennel penalty table
    recomputed from its child weights, ``alphas[i] * gamma *
    child_weights[i] ** (gamma - 1)``; an LDG run keeps no table, so its
    ``pens`` stay 0.0."""
    gamma = params.gamma
    stack = [root]
    while stack:
        node = stack.pop()
        if scorer == "fennel":
            expected = [a * gamma * cw ** (gamma - 1.0)
                        for a, cw in zip(node.alphas, node.child_weights)]
        else:
            expected = [0.0] * len(node.children)
        if node.pens != expected:
            raise AssertionError(f"penalty table of block [{node.lo}, "
                                 f"{node.hi}] out of sync with its weights")
        stack.extend(node.children)


def total_block_slots(root) -> int:
    """Number of tracked child weights (the 2k space bound)."""
    count = 0
    stack = [root]
    while stack:
        node = stack.pop()
        count += len(node.child_weights)
        stack.extend(node.children)
    return count


def bucket_ranges(blocks: SortedBlocks) -> list[tuple[int, int, int]]:
    """(cardinality, l, r) per nonempty run of equal cardinality of a
    SortedBlocks, sorted by l, read off its flat ``end`` list."""
    ranges = []
    l = 0
    for c, end in enumerate(blocks.end):
        if end > l:
            ranges.append((c, l, end - 1))
        l = end
    return ranges


def _parse_line(parts: Sequence[str], node: int, node_weights: bool,
                item_weights: bool, bound: int,
                graph: bool) -> tuple[int, list[int], list[int]]:
    """Weight, 0-based ids and id weights of one node line.

    This is the per-line rule the chunk conversion of
    ``streams._columns`` checks in bulk, and the oracle of the error
    ``streams._line_fault`` names for a line that conversion rejects.
    The id checks run over whole lists (min, max, membership) so the per-id
    work stays in C; a line that fails one goes to :func:`_line_fault`,
    which names its first bad id.
    """
    weight = 1
    try:
        if node_weights:
            if not parts:
                raise FormatError(f"node {node}: missing node weight")
            weight = int(parts[0])
            if weight < 1:
                raise FormatError(f"node {node}: node weight must be >= 1")
            parts = parts[1:]
        if item_weights:
            if len(parts) % 2:
                raise FormatError(f"node {node}: dangling "
                                  f"{'edge' if graph else 'net'} weight")
            weights = list(map(int, parts[1::2]))
            ids = [int(t) - 1 for t in parts[::2]]
        else:
            ids = [int(t) - 1 for t in parts]
            weights = [1] * len(ids)
    except FormatError:
        raise
    except ValueError:
        bad = next(t for t in parts if not _is_int(t))
        raise FormatError(f"node {node}: {bad!r} is not an integer") from None
    if ids and (min(ids) < 0 or max(ids) >= bound
                or (node in ids if graph else len(set(ids)) < len(ids))
                or (item_weights and min(weights) < 1)):
        _line_fault(node, ids, weights, bound, graph)
    return weight, ids, weights


def _line_fault(node: int, ids: list[int], weights: list[int], bound: int,
                graph: bool) -> None:
    """Raise for the first bad id of a node line, in line order."""
    seen = set()
    for v, w in zip(ids, weights):
        if not 0 <= v < bound:
            what, name = ("neighbor", "n") if graph else ("net id", "m")
            raise FormatError(f"node {node}: {what} out of range "
                              f"({v + 1} with {name}={bound})")
        if graph and v == node:
            raise FormatError(f"node {node}: self-loop not allowed")
        if not graph and v in seen:
            raise FormatError(f"node {node}: net {v + 1} listed twice")
        if w < 1:
            what = "edge" if graph else "net"
            raise FormatError(f"node {node}: {what} weight must be >= 1")
        seen.add(v)


def parse_node_lines(path: str, graph: bool):
    """The records of a node-per-line file (a METIS graph or a node-major
    hypergraph), parsed line by line with the errors of
    ``streams.NodeStream`` in the same order: each node line through
    ``_parse_line``, then a missing or surplus line, then the entry count."""
    with open(path) as fh:
        lines = _tokens(fh)
        head = _nonempty(lines)
        if head is None:
            raise FormatError(f"{path}: empty "
                              f"{'graph' if graph else 'hypergraph'} file")
        header = _header(head, graph)
        n = header.n
        bound = n if graph else header.m
        listed = 0
        for node in range(n):
            parts = next(lines, None)
            if parts is None:
                raise FormatError(f"{path}: expected {n} node lines, got "
                                  f"{node}")
            weight, ids, weights = _parse_line(
                parts, node, header.has_node_weights,
                header.has_item_weights, bound, graph)
            listed += len(ids)
            yield StreamedNodeRecord(node, weight, ids, weights)
        _expect_end(lines, f"{path}: more lines than the {n} node lines the "
                           f"header declares")
    if listed != header.pins:
        what = "edge" if graph else "pin"
        raise FormatError(f"{path}: {what}-count mismatch, the header gives "
                          f"{header.pins} entries but the node lines list "
                          f"{listed}")
