"""Seeded instance builders shared by the test suite."""

from __future__ import annotations

import random

from streamdecomp.onepass import FennelParams
from streamdecomp.partition import PartitionState
from streamdecomp.streams import MemoryStream, StreamedNodeRecord, \
    StreamHeader

from reference import stream_records


def run_setup(stream, k: int, epsilon: float = 0.03, gamma: float = 1.5,
              alpha=None) -> tuple[PartitionState, FennelParams]:
    """The state and params ``cli.execute`` builds for a run over ``stream``:
    c(V) is the sum of the streamed node weights, alpha defaults from the
    header."""
    header = stream.header
    total_weight = sum(r.weight for r in stream_records(stream))
    state = PartitionState(header.n, k, epsilon, total_weight)
    return state, FennelParams.for_stream(header.n, header.m, k, gamma, alpha,
                                          total_weight)


def graph_stream_from_edges(n, edges, node_weights=None) -> MemoryStream:
    """Build an in-memory stream from undirected (u, v, w) triples."""
    weights = node_weights or [1] * n
    records = [StreamedNodeRecord(i, weights[i]) for i in range(n)]
    for u, v, w in edges:
        records[u].ids.append(v)
        records[u].weights.append(w)
        records[v].ids.append(u)
        records[v].weights.append(w)
    header = StreamHeader(n, len(edges), 2 * len(edges),
                          has_node_weights=node_weights is not None,
                          has_item_weights=any(w != 1 for *_, w in edges))
    return MemoryStream.from_records(header, records)


def random_graph(rng: random.Random, n: int, m: int,
                 max_edge_weight: int = 1, max_node_weight: int = 1):
    """Simple random graph with exactly m distinct edges."""
    edges = set()
    while len(edges) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    triples = [(u, v, rng.randint(1, max_edge_weight)) for u, v in sorted(edges)]
    weights = None
    if max_node_weight > 1:
        weights = [rng.randint(1, max_node_weight) for _ in range(n)]
    return graph_stream_from_edges(n, triples, weights)


def stream_local_edges(rng: random.Random, n: int, m: int,
                       local_share: float = 0.9,
                       span: int = 200) -> list[tuple[int, int, int]]:
    """m distinct unit edges, ``local_share`` of them joining ids at most
    ``span`` apart and the rest uniformly random ids: the locality of a
    stream in a good order."""
    edges = set()
    while len(edges) < m:
        u = rng.randrange(n)
        if rng.random() < local_share:
            v = u + rng.randint(1, span)
            if v >= n:
                v = u - rng.randint(1, span)
        else:
            v = rng.randrange(n)
        if 0 <= v != u:
            edges.add((min(u, v), max(u, v)))
    return [(u, v, 1) for u, v in sorted(edges)]


def gnp_graph(rng: random.Random, n: int, p: float):
    edges = [(u, v, 1) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return graph_stream_from_edges(n, edges)


def geometric_graph(rng: random.Random, n: int, radius: float):
    """Random geometric graph on the unit square, streamed in x-sorted order
    so the natural order carries locality (as real stream orders do)."""
    points = sorted((rng.random(), rng.random()) for _ in range(n))
    edges = []
    r2 = radius * radius
    for i in range(n):
        xi, yi = points[i]
        j = i + 1
        while j < n and (points[j][0] - xi) ** 2 <= r2:
            dx = points[j][0] - xi
            dy = points[j][1] - yi
            if dx * dx + dy * dy <= r2:
                edges.append((i, j, 1))
            j += 1
    return graph_stream_from_edges(n, edges)


def planted_partition_graph(rng: random.Random, n: int, groups: int,
                            p_in: float, p_out_edges: int):
    """Community-structured graph: dense inside groups, sparse across."""
    size = n // groups
    edges = []
    for g in range(groups):
        lo = g * size
        hi = n if g == groups - 1 else lo + size
        for u in range(lo, hi):
            for v in range(u + 1, hi):
                if rng.random() < p_in:
                    edges.append((u, v, 1))
    for _ in range(p_out_edges):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.append((min(u, v), max(u, v), 1))
    edges = sorted(set(edges))
    return graph_stream_from_edges(n, edges)


def hypergraph_stream_from_nets(n, nets, node_weights=None) -> MemoryStream:
    """Build an in-memory node-major stream from net pin lists.

    ``nets`` is a list of (pins, weight); empty nets are allowed and simply
    never appear in any record.
    """
    weights = node_weights or [1] * n
    records = [StreamedNodeRecord(i, weights[i]) for i in range(n)]
    for e, (pins, w) in enumerate(nets):
        for v in pins:
            records[v].ids.append(e)
            records[v].weights.append(w)
    pins_total = sum(len(r.ids) for r in records)
    header = StreamHeader(
        n, len(nets), pins_total,
        has_node_weights=node_weights is not None,
        has_item_weights=any(w != 1 for _, w in nets))
    return MemoryStream.from_records(header, records)


def random_hypergraph(rng: random.Random, n: int, m: int, max_pins: int = 8,
                      max_net_weight: int = 1, max_node_weight: int = 1):
    nets = []
    for _ in range(m):
        size = rng.randint(2, max_pins)
        pins = rng.sample(range(n), min(size, n))
        nets.append((sorted(pins), rng.randint(1, max_net_weight)))
    weights = None
    if max_node_weight > 1:
        weights = [rng.randint(1, max_node_weight) for _ in range(n)]
    return hypergraph_stream_from_nets(n, nets, weights)


def graph_as_hypergraph(graph_stream) -> MemoryStream:
    """Encode every edge of a graph as a net of size two (same weights)."""
    nets = []
    seen = {}
    for record in stream_records(graph_stream):
        for v, w in zip(record.ids, record.weights):
            key = (min(record.id, v), max(record.id, v))
            if key not in seen:
                seen[key] = len(nets)
                nets.append((list(key), w))
    return hypergraph_stream_from_nets(graph_stream.header.n, nets)


def banded_matrix_hypergraph(rng: random.Random, rows: int, cols: int,
                             band: int, extra: int):
    """Row-net hypergraph of a banded sparse matrix with random fill-in.

    Columns are the nodes, each row is a net containing the columns of its
    nonzeros; locality in the band makes structure that partitioners can use.
    """
    nets = []
    for r in range(rows):
        center = int(r * cols / rows)
        pins = set()
        for _ in range(band):
            off = rng.randint(-3, 3)
            c = min(max(center + off, 0), cols - 1)
            pins.add(c)
        for _ in range(extra):
            if rng.random() < 0.15:
                pins.add(rng.randrange(cols))
        if len(pins) >= 2:
            nets.append((sorted(pins), 1))
    return hypergraph_stream_from_nets(cols, nets)


def chunk_of(records, header=None) -> tuple:
    """The spool columns of consecutive ``records`` as one chunk, ``(start,
    degrees, ids, weights, node_weight)`` as ``NodeStream.chunks()`` gives
    them: item and node weights only where ``header``'s flags say (none
    without a header)."""
    return (records[0].id, [len(r.ids) for r in records],
            [v for r in records for v in r.ids],
            [w for r in records for w in r.weights]
            if header and header.has_item_weights else None,
            [r.weight for r in records]
            if header and header.has_node_weights else None)


def node_chunks(chunk):
    """The one-node chunks of ``chunk``, in order."""
    start, degrees, ids, weights, node_weight = chunk
    pos = 0
    for i, degree in enumerate(degrees):
        stop = pos + degree
        yield (start + i, [degree], ids[pos:stop],
               None if weights is None else weights[pos:stop],
               None if node_weight is None else [node_weight[i]])
        pos = stop
