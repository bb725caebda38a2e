"""Streaming readers and writers for graph and hypergraph files.

Graphs travel in METIS adjacency format: a header line ``n m [fmt [ncon]]``
followed by one line per node listing its (1-based) neighbors.  The ``fmt``
field is a bit string: ``1`` means edge weights, ``10`` node weights, ``11``
both.  Lines starting with ``%`` are comments.

Hypergraphs come in two shapes.  The hMetis net-major format has a header
``m n [fmt]`` and one line per net listing its pins; it cannot be streamed
node by node, so :func:`transpose_hmetis` converts it offline into our
node-major format with header ``n m pins [fmt]`` and one line per node
listing the (1-based) ids of its incident nets.  ``fmt`` follows the METIS
convention: ``10`` prefixes each line with the node weight, ``1`` makes every
net id be followed by the net weight (repeated at each pin so a single pass
suffices), ``11`` both.

All ids are 1-based on disk and 0-based in memory.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence


class FormatError(ValueError):
    """Raised when an input file violates its declared format."""


@dataclass
class GraphStreamHeader:
    n: int
    m: int
    has_node_weights: bool = False
    has_edge_weights: bool = False


@dataclass
class HypergraphStreamHeader:
    n: int          # number of nodes
    m: int          # number of nets
    pins: int       # total pin count
    has_node_weights: bool = False
    has_net_weights: bool = False


@dataclass
class StreamedNodeRecord:
    """One node of a graph stream: its weight and weighted neighborhood."""

    id: int
    weight: int = 1
    neighbors: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class StreamedHyperNodeRecord:
    """One node of a hypergraph stream with its weighted incident nets."""

    id: int
    weight: int = 1
    incident_nets: list[tuple[int, int]] = field(default_factory=list)


def _tokens(fh) -> Iterator[list[str]]:
    """Yield whitespace-split tokens of every non-comment line.

    Blank lines are kept (as empty lists): a node with no neighbors or no
    incident nets is legal and its line is simply empty.
    """
    for line in fh:
        if line.startswith("%"):
            continue
        yield line.split()


def _nonempty(lines: Iterator[list[str]]) -> Optional[list[str]]:
    for parts in lines:
        if parts:
            return parts
    return None


def _parse_fmt(token: str) -> tuple[bool, bool]:
    """Decode a METIS fmt field into (node_weights, edge_weights)."""
    if not token.isdigit():
        raise FormatError(f"malformed fmt field {token!r}")
    value = int(token)
    edge_w = value % 10 == 1
    node_w = (value // 10) % 10 == 1
    if value >= 100 and (value // 100) % 10 == 1:
        raise FormatError("vertex sizes (fmt=1xx) are not supported")
    return node_w, edge_w


def read_graph_header(path: str) -> GraphStreamHeader:
    with open(path) as fh:
        head = _nonempty(_tokens(fh))
    if head is None:
        raise FormatError(f"{path}: empty graph file")
    return _graph_header(head)


def _graph_header(parts: Sequence[str]) -> GraphStreamHeader:
    if len(parts) < 2:
        raise FormatError("graph header needs at least 'n m'")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise FormatError(f"malformed graph header: {parts}") from exc
    node_w = edge_w = False
    if len(parts) >= 3:
        node_w, edge_w = _parse_fmt(parts[2])
    if len(parts) >= 4 and int(parts[3]) > 1:
        raise FormatError("multiple node weight constraints (ncon>1) unsupported")
    if n < 1 or m < 0:
        raise FormatError(f"invalid graph header n={n} m={m}")
    return GraphStreamHeader(n, m, node_w, edge_w)


class GraphStream:
    """Iterator over a METIS graph file, one record at a time.

    The header is read when the stream is created, so ``n``, ``m`` and the
    weight flags are available before the first record; the file is opened
    again for each iteration and closed when it ends.  On exhaustion the
    degree sum is checked against ``2m``.
    """

    def __init__(self, path: str):
        self.path = path
        self.header = read_graph_header(path)

    def __iter__(self) -> Iterator[StreamedNodeRecord]:
        header = self.header
        degree_sum = 0
        with open(self.path) as fh:
            lines = _tokens(fh)
            _nonempty(lines)
            for node in range(header.n):
                try:
                    parts = next(lines)
                except StopIteration:
                    raise FormatError(
                        f"{self.path}: expected {header.n} node lines, got {node}")
                record = _parse_node_line(parts, node, header)
                degree_sum += len(record.neighbors)
                yield record
        if degree_sum != 2 * header.m:
            raise FormatError(
                f"{self.path}: edge-count mismatch, header says m={header.m} "
                f"but degree sum is {degree_sum}")


def _parse_node_line(parts: Sequence[str], node: int,
                     header: GraphStreamHeader) -> StreamedNodeRecord:
    idx = 0
    weight = 1
    if header.has_node_weights:
        if not parts:
            raise FormatError(f"node {node}: missing node weight")
        weight = int(parts[0])
        if weight < 1:
            raise FormatError(f"node {node}: node weight must be >= 1")
        idx = 1
    neighbors = []
    if header.has_edge_weights:
        if (len(parts) - idx) % 2 != 0:
            raise FormatError(f"node {node}: dangling edge weight")
        for j in range(idx, len(parts), 2):
            v = int(parts[j]) - 1
            w = int(parts[j + 1])
            _check_neighbor(v, w, node, header.n)
            neighbors.append((v, w))
    else:
        for j in range(idx, len(parts)):
            v = int(parts[j]) - 1
            _check_neighbor(v, 1, node, header.n)
            neighbors.append((v, 1))
    return StreamedNodeRecord(node, weight, neighbors)


def _check_neighbor(v: int, w: int, node: int, n: int) -> None:
    if v < 0 or v >= n:
        raise FormatError(f"node {node}: neighbor out of range ({v + 1} with n={n})")
    if v == node:
        raise FormatError(f"node {node}: self-loop not allowed")
    if w < 1:
        raise FormatError(f"node {node}: edge weight must be >= 1")


def open_graph_stream(path: str, fmt: str = "metis") -> GraphStream:
    """Open a graph file for one streaming pass in ascending node order."""
    if fmt != "metis":
        raise ValueError(f"unknown graph format {fmt!r}")
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    return GraphStream(path)


def read_hypergraph_header(path: str) -> HypergraphStreamHeader:
    with open(path) as fh:
        head = _nonempty(_tokens(fh))
    if head is None:
        raise FormatError(f"{path}: empty hypergraph file")
    return _hypergraph_header(head)


def _hypergraph_header(parts: Sequence[str]) -> HypergraphStreamHeader:
    if len(parts) < 3:
        raise FormatError("node-major hypergraph header needs 'n m pins'")
    n, m, pins = int(parts[0]), int(parts[1]), int(parts[2])
    node_w = net_w = False
    if len(parts) >= 4:
        node_w, net_w = _parse_fmt(parts[3])
    if n < 1 or m < 0 or pins < 0:
        raise FormatError(f"invalid hypergraph header n={n} m={m} pins={pins}")
    return HypergraphStreamHeader(n, m, pins, node_w, net_w)


class HypergraphStream:
    """Iterator over a node-major hypergraph file, opened per iteration."""

    def __init__(self, path: str):
        self.path = path
        self.header = read_hypergraph_header(path)

    def __iter__(self) -> Iterator[StreamedHyperNodeRecord]:
        header = self.header
        pin_count = 0
        with open(self.path) as fh:
            lines = _tokens(fh)
            _nonempty(lines)
            for node in range(header.n):
                try:
                    parts = next(lines)
                except StopIteration:
                    raise FormatError(
                        f"{self.path}: expected {header.n} node lines, got {node}")
                record = _parse_hypernode_line(parts, node, header)
                pin_count += len(record.incident_nets)
                yield record
        if pin_count != header.pins:
            raise FormatError(
                f"{self.path}: pin-count mismatch, header says {header.pins} "
                f"but found {pin_count}")


def _parse_hypernode_line(parts: Sequence[str], node: int,
                          header: HypergraphStreamHeader) -> StreamedHyperNodeRecord:
    idx = 0
    weight = 1
    if header.has_node_weights:
        if not parts:
            raise FormatError(f"node {node}: missing node weight")
        weight = int(parts[0])
        if weight < 1:
            raise FormatError(f"node {node}: node weight must be >= 1")
        idx = 1
    nets = []
    seen = set()
    if header.has_net_weights:
        if (len(parts) - idx) % 2 != 0:
            raise FormatError(f"node {node}: dangling net weight")
        for j in range(idx, len(parts), 2):
            e = int(parts[j]) - 1
            w = int(parts[j + 1])
            _check_net(e, w, node, header.m, seen)
            nets.append((e, w))
    else:
        for j in range(idx, len(parts)):
            e = int(parts[j]) - 1
            _check_net(e, 1, node, header.m, seen)
            nets.append((e, 1))
    return StreamedHyperNodeRecord(node, weight, nets)


def _check_net(e: int, w: int, node: int, m: int, seen: set) -> None:
    if e < 0 or e >= m:
        raise FormatError(f"node {node}: net id out of range ({e + 1} with m={m})")
    if e in seen:
        raise FormatError(f"node {node}: net {e + 1} listed twice")
    if w < 1:
        raise FormatError(f"node {node}: net weight must be >= 1")
    seen.add(e)


def open_hypergraph_node_stream(path: str) -> HypergraphStream:
    """Open a node-major hypergraph file for one streaming pass."""
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    return HypergraphStream(path)


def total_node_weight(path: str) -> int:
    """c(V) of a node-weighted graph or node-major hypergraph file.

    Both formats put ``n`` first in the header and the node weight first on
    each node line, so this sums one token per line without parsing the
    rest; the stream still validates every line when it reads it.
    """
    with open(path) as fh:
        lines = _tokens(fh)
        head = _nonempty(lines)
        if head is None:
            raise FormatError(f"{path}: empty file")
        total = 0
        for node, parts in zip(range(int(head[0])), lines):
            if not parts:
                raise FormatError(f"node {node}: missing node weight")
            total += int(parts[0])
    return total


def transpose_hmetis(src: str, dst: str) -> HypergraphStreamHeader:
    """Convert an hMetis net-major file into the node-major streaming format.

    This is an offline, in-memory step: the streaming passes themselves stay
    single-pass.  Returns the header of the written file.
    """
    with open(src) as fh:
        lines = _tokens(fh)
        head = _nonempty(lines)
        if head is None:
            raise FormatError(f"{src}: empty hMetis file")
        if len(head) < 2:
            raise FormatError("hMetis header needs 'm n'")
        m, n = int(head[0]), int(head[1])
        net_w = node_w = False
        if len(head) >= 3:
            node_w, net_w = _parse_fmt(head[2])
        incident: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        net_weights = [1] * m
        for e in range(m):
            parts = _nonempty(lines)   # a net must have at least one pin
            if parts is None:
                raise FormatError(f"{src}: expected {m} net lines, got {e}")
            j = 0
            if net_w:
                net_weights[e] = int(parts[0])
                j = 1
            for tok in parts[j:]:
                v = int(tok) - 1
                if v < 0 or v >= n:
                    raise FormatError(f"net {e}: pin out of range ({tok} with n={n})")
                incident[v].append((e, net_weights[e]))
        node_weights = [1] * n
        if node_w:
            for v in range(n):
                parts = _nonempty(lines)
                if parts is None:
                    raise FormatError(f"{src}: missing node weight line {v}")
                node_weights[v] = int(parts[0])

    pins = sum(len(nets) for nets in incident)
    fmt_bits = (10 if node_w else 0) + (1 if net_w else 0)
    with open(dst, "w") as out:
        header = f"{n} {m} {pins}"
        if fmt_bits:
            header += f" {fmt_bits}"
        out.write(header + "\n")
        for v in range(n):
            fields: list[str] = []
            if node_w:
                fields.append(str(node_weights[v]))
            for e, w in incident[v]:
                fields.append(str(e + 1))
                if net_w:
                    fields.append(str(w))
            out.write(" ".join(fields) + "\n")
    return HypergraphStreamHeader(n, m, pins, node_w, net_w)


def write_partition(path: str, assignment: Iterable[int]) -> None:
    """Write one 0-based block id per line, line i = node i."""
    with open(path, "w") as out:
        for block in assignment:
            out.write(f"{block}\n")


def read_partition(path: str) -> list[int]:
    with open(path) as fh:
        return [int(line) for line in fh if line.strip()]


def write_graph(path: str, n: int, edges: Iterable[tuple[int, int, int]],
                node_weights: Sequence[int] | None = None) -> None:
    """Write an undirected edge list as a METIS file (0-based input ids)."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    m = 0
    has_edge_w = False
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
        has_edge_w = has_edge_w or w != 1
        m += 1
    has_node_w = node_weights is not None and any(w != 1 for w in node_weights)
    fmt_bits = (10 if has_node_w else 0) + (1 if has_edge_w else 0)
    with open(path, "w") as out:
        header = f"{n} {m}"
        if fmt_bits:
            header += f" {fmt_bits}"
        out.write(header + "\n")
        for u in range(n):
            fields = []
            if has_node_w:
                fields.append(str(node_weights[u]))
            for v, w in adj[u]:
                fields.append(str(v + 1))
                if has_edge_w:
                    fields.append(str(w))
            out.write(" ".join(fields) + "\n")


class MemoryGraphStream:
    """Replayable in-memory graph stream (used when timing excludes parsing)."""

    def __init__(self, header: GraphStreamHeader, records: list[StreamedNodeRecord]):
        self.header = header
        self.records = records

    @classmethod
    def load(cls, path: str) -> "MemoryGraphStream":
        stream = open_graph_stream(path)
        return cls(stream.header, list(stream))

    def __iter__(self) -> Iterator[StreamedNodeRecord]:
        return iter(self.records)


class MemoryHypergraphStream:
    """Replayable in-memory hypergraph stream."""

    def __init__(self, header: HypergraphStreamHeader,
                 records: list[StreamedHyperNodeRecord]):
        self.header = header
        self.records = records

    @classmethod
    def load(cls, path: str) -> "MemoryHypergraphStream":
        stream = open_hypergraph_node_stream(path)
        return cls(stream.header, list(stream))

    def __iter__(self) -> Iterator[StreamedHyperNodeRecord]:
        return iter(self.records)
