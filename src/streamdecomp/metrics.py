"""Exact quality metrics, computed by a dedicated verification pass.

None of the partitioners pay metric overhead while streaming; every number
reported here comes from an independent pass over the input.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from itertools import accumulate, chain, compress, count, repeat
from operator import ne
from typing import Sequence

from .partition import UNASSIGNED
from .streams import FormatError


def edge_cut(graph_stream, assignment: Sequence[int]) -> int:
    """Total weight of edges with endpoints in distinct blocks.

    Each undirected edge appears twice in the stream (once per endpoint), so
    the doubled sum is halved at the end.  The pass reads the flat columns
    of each chunk of ``graph_stream.chunks()``: each id's block is compared
    with its node's block in C, and the weights of the cut entries (or
    their number, without weights) are summed.
    """
    _require_complete(assignment)
    doubled = 0
    for start, degrees, ids, weights, _ in graph_stream.chunks():
        cut = map(ne, map(assignment.__getitem__, ids), chain.from_iterable(
            map(repeat, _owners(assignment, start, degrees), degrees)))
        doubled += sum(cut if weights is None else compress(weights, cut))
    return _halve(doubled)


def _require_complete(assignment: Sequence[int]) -> None:
    if UNASSIGNED in assignment:
        raise AssertionError(f"node {assignment.index(UNASSIGNED)} unassigned")


def _owners(assignment: Sequence[int], start: int,
            degrees: Sequence[int]) -> Sequence[int]:
    """The blocks of a chunk's nodes, ``start`` on."""
    owners = assignment[start:start + len(degrees)]
    if len(owners) < len(degrees):
        raise AssertionError(f"node {start + len(owners)} unassigned")
    return owners


def _halve(doubled: int) -> int:
    """The cut from its doubled sum (each edge seen from both endpoints)."""
    if doubled % 2 != 0:
        raise FormatError("asymmetric adjacency: doubled cut weight is odd")
    return doubled // 2


def cut_net_and_connectivity(hyper_stream,
                             assignment: Sequence[int]) -> tuple[int, int]:
    """(cut-net, lambda-1 connectivity) from exact per-net block sets.

    The block set of net e is the bitmask ``mask[e]`` (bit i for block i),
    so the pass keeps two flat lists of ``header.m`` ints: a net is cut when
    its mask has two bits set, and its lambda is the mask's bit count.  With
    ``header.has_item_weights`` a net must carry the same weight at every
    pin (``FormatError`` if not); without it every net weighs 1 and
    ``weights`` is not read, as in FREIGHT.

    The pass reads the flat columns of each chunk of
    ``hyper_stream.chunks()`` (a spool replay for a parsed file, the kept
    chunks of a ``MemoryStream``), each pin paired with its node's block bit, and
    builds no record.  A net id that is negative or not below m is a
    ``ValueError`` naming its node.
    """
    _require_complete(assignment)
    m = hyper_stream.header.m
    weighted = hyper_stream.header.has_item_weights
    mask = [0] * m
    net_weight = [0] * m if weighted else [1] * m
    for start, degrees, ids, weights, _ in hyper_stream.chunks():
        bits = chain.from_iterable(map(repeat, [
            1 << b for b in _owners(assignment, start, degrees)], degrees))
        # the pins before a bad net id count: the walk ends before a negative
        # one (an index of net m + id) and at one not below m (IndexError)
        pins = ids[:next(i for i, e in enumerate(ids) if e < 0)] \
            if ids and min(ids) < 0 else ids
        try:
            if weighted:
                for pin, e, bit, w in zip(count(), pins, bits, weights):
                    mask[e] |= bit
                    if net_weight[e] != w:
                        if net_weight[e]:
                            raise FormatError(
                                f"node {_node_at(start, degrees, pin)}: "
                                f"net {e + 1} weighs {w} here but "
                                f"{net_weight[e]} at an earlier pin")
                        net_weight[e] = w
            else:
                for e, bit in zip(pins, bits):
                    mask[e] |= bit
        except IndexError:
            pins = ()
        if len(pins) < len(ids):
            bad = next(i for i, e in enumerate(ids) if not 0 <= e < m)
            raise ValueError(
                f"node {_node_at(start, degrees, bad)}: a net id is "
                + ("negative" if ids[bad] < 0 else f"not below m={m}"))
    cut = 0
    connectivity = 0
    for bits, w in zip(mask, net_weight):
        if bits & (bits - 1):
            cut += w
            connectivity += (bits.bit_count() - 1) * w
    return cut, connectivity


def _node_at(start: int, degrees: Sequence[int], pin: int) -> int:
    """The node of a chunk's flat column position ``pin``."""
    return start + bisect_right(list(accumulate(degrees)), pin)


def comm_cost(graph_stream, assignment: Sequence[int],
              hierarchy) -> tuple[int, int]:
    """(edge cut, process-mapping objective) from one pass over the stream.

    The objective sums edge weight times PE distance, each undirected edge
    counted once.  ``hierarchy`` is a ``HierarchySpec`` whose k matches the
    partition; its distance is looked up inline from the PE codes.  The
    pass walks each chunk of ``graph_stream.chunks()`` node by node, one
    slice of its flat ids (and weights) per node.
    """
    _require_complete(assignment)
    codes = hierarchy.codes()
    by_bits = hierarchy.distance_by_bit_length
    doubled = 0
    total = 0
    for start, degrees, ids, weights, _ in graph_stream.chunks():
        pos = 0
        for u, bu, degree in zip(count(start),
                                 _owners(assignment, start, degrees),
                                 degrees):
            stop = pos + degree
            code = codes[bu]
            # two loops: zipping unit rows with repeat(1) made wide-k's map
            # ops 3.6% slower end to end
            if weights is None:
                for v in ids[pos:stop]:
                    bv = assignment[v]
                    if bv != bu:
                        doubled += 1
                        if v > u:   # count each edge at its lower endpoint
                            total += by_bits[(code ^ codes[bv]).bit_length()]
            else:
                for v, w in zip(ids[pos:stop], weights[pos:stop]):
                    bv = assignment[v]
                    if bv != bu:
                        doubled += w
                        if v > u:
                            total += w * by_bits[
                                (code ^ codes[bv]).bit_length()]
            pos = stop
    return _halve(doubled), total


def block_weights(stream, assignment: Sequence[int], k: int) -> list[int]:
    """c(V_i) of each block i < k, recounted rather than read from a run's
    bookkeeping: on unit node weights a C-level count of ``assignment``,
    else a walk over the ``node_weight`` column of ``stream.chunks()``."""
    if not stream.header.has_node_weights:
        return list(map(Counter(assignment).__getitem__, range(k)))
    weights = [0] * k
    for start, _, _, _, column in stream.chunks():
        for b, w in zip(assignment[start:start + len(column)], column):
            weights[b] += w
    return weights


def imbalance(block_weights: Sequence[int]) -> float:
    """max_i c(V_i) * k / c(V) - 1, with k = ``len(block_weights)``."""
    total = sum(block_weights)
    if total == 0:
        return 0.0
    return max(block_weights) * len(block_weights) / total - 1.0
