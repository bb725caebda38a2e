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

Both streamed formats put one node on each line: an optional node weight,
then ids, each followed by its weight when ``fmt`` has the ``1`` bit.  One
reader (:class:`NodeStream`) and one writer serve both.  Every reader reads
a stream's ``chunks()`` of columns; records are only input to
:meth:`MemoryStream.from_records`.  All ids are 1-based on disk and 0-based
in memory.
"""

from __future__ import annotations

import os
import tempfile
import weakref
from array import array
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import chain, count, filterfalse, islice, repeat
from operator import attrgetter, contains, methodcaller
from typing import Iterable, Iterator, Optional, Sequence


class FormatError(ValueError):
    """Raised when an input file violates its declared format."""


@dataclass
class StreamHeader:
    """Header of a node-per-line file: ``n`` nodes, ``m`` edges (graph) or
    nets (hypergraph), and ``pins`` entries over all node lines, which is
    ``2m`` for a graph (each edge is listed at both ends)."""

    n: int
    m: int
    pins: int
    has_node_weights: bool = False
    has_item_weights: bool = False   # edge or net weights


@dataclass(slots=True)
class StreamedNodeRecord:
    """One node for :meth:`MemoryStream.from_records`: its weight, the
    0-based ids of its neighbors (graph) or incident nets (hypergraph), and
    their weights, one per id (all 1 on unit-weight input)."""

    id: int
    weight: int = 1
    ids: list[int] = field(default_factory=list)
    weights: list[int] = field(default_factory=list)


def _lines(fh) -> Iterator[str]:
    """Every line of ``fh`` that is not a ``%`` comment.

    Blank lines are kept: a node with no neighbors or no incident nets is
    legal and its line is simply empty.
    """
    return filterfalse(methodcaller("startswith", "%"), fh)


def _tokens(fh) -> Iterator[list[str]]:
    """The whitespace-split tokens of every non-comment line."""
    return map(str.split, _lines(fh))


def _nonempty(lines: Iterator[list[str]]) -> Optional[list[str]]:
    for parts in lines:
        if parts:
            return parts
    return None


def _parse_fmt(token: str) -> tuple[bool, bool]:
    """Decode a METIS fmt field into (node_weights, edge_weights)."""
    if not token or set(token) - {"0", "1"}:
        raise FormatError(f"malformed fmt field {token!r}: "
                          f"fmt digits must be 0 or 1")
    value = int(token)
    if value >= 100:
        raise FormatError("vertex sizes (fmt=1xx) are not supported")
    return value >= 10, value % 10 == 1


def _ints(parts: Sequence[str], what: str) -> list[int]:
    try:
        return [int(t) for t in parts]
    except ValueError as exc:
        raise FormatError(f"malformed {what}: {list(parts)}") from exc


def _header(parts: Sequence[str], graph: bool) -> StreamHeader:
    """Header of a graph, ``n m [fmt [ncon]]``, or of a node-major
    hypergraph, ``n m pins [fmt]``."""
    kind, fields, width = ("graph", "n m", 2) if graph else \
        ("hypergraph", "n m pins", 3)
    if len(parts) < width:
        raise FormatError(f"{kind} header needs '{fields}'")
    n, m, *rest = _ints(parts[:width], f"{kind} header")
    pins = rest[0] if rest else 2 * m
    node_w = item_w = False
    if len(parts) > width:
        node_w, item_w = _parse_fmt(parts[width])
    if graph and len(parts) > 3 and _ints(parts[3:4], "graph header")[0] > 1:
        raise FormatError("multiple node weight constraints (ncon>1) unsupported")
    if n < 1 or m < 0 or pins < 0:
        raise FormatError(f"invalid {kind} header: {' '.join(parts[:width])}")
    return StreamHeader(n, m, pins, node_w, item_w)


class NodeStream:
    """Re-readable stream over a node-per-line file: a METIS graph
    (``graph``) or a node-major hypergraph, one chunk of spool columns at
    a time (:meth:`chunks`).

    The header is read when the stream is created, so ``n``, ``m`` and the
    weight flags are available before the first chunk.  A pass parses
    the text and, on exhaustion, checks the number of listed ids against the
    header's ``pins``.  It parses ``SPOOL_CHUNK`` node lines at a time:
    :func:`_columns` converts and checks the whole chunk with a few C-level
    calls (``map`` over the split lines, ``min``/``max`` for ranges and
    weights, ``operator.contains`` per line for self-loops, ``set`` sizes
    for repeated nets) into the chunk's spool columns.  A chunk that fails
    a check, or is short, is converted again one line at a time by the same
    :func:`_columns`: the columns of the lines before the first line it
    rejects are yielded, then :func:`_line_fault` names that line's fault.

    With ``spool`` (the default) the parse also writes each chunk's columns
    to a binary spool, an anonymous temporary file of flat ``array('i')``
    chunks; once a parse reaches the end of the file and passes every
    check, later passes replay the spool instead of parsing again.  A parse that fails or is
    abandoned closes its spool, so the next pass parses the text.  The
    OS frees a spool when its last handle closes: on :meth:`close`, the
    stream's collection or any exit.
    """

    def __init__(self, path: str, graph: bool, spool: bool = True):
        self.path = path
        self.graph = graph
        self.spool = spool
        with open(path) as fh:
            head = _nonempty(_tokens(fh))
        if head is None:
            kind = "graph" if graph else "hypergraph"
            raise FormatError(f"{path}: empty {kind} file")
        self.header = _header(head, graph)
        self._kept = None   # (spool, its finalizer): later passes replay it
        self._closes = 0   # a parse that saw close() run keeps nothing

    def close(self) -> None:
        """Close the spool; a later pass parses the text again.  A replay
        made before still finishes."""
        self._closes += 1
        if self._kept is not None:
            self._kept[1]()
        self._kept = None

    def chunks(self) -> Iterator[tuple]:
        """The checked spool columns of each chunk of ``SPOOL_CHUNK`` nodes,
        ``(start, degrees, ids, weights, node_weight)``: the first node's
        id, each node's id count, the flat 0-based ids, the flat item
        weights and the node weights, the last two None when the file has
        none.  They come from a parse or, once one is complete, a replay.
        A chunk with a bad line yields the columns of the lines before it,
        then raises that line's ``FormatError``."""
        if self._kept is None:
            return self._parse()
        fh = open(os.dup(self._kept[0].fileno()), "rb", buffering=0)
        replay = _replay(fh, self.header)
        weakref.finalize(replay, fh.close)   # for a replay never started
        return replay

    def _parse(self) -> Iterator[tuple]:
        header, graph = self.header, self.graph
        n = header.n
        # Neighbors are node ids (bound n), incident nets net ids (bound m).
        layout = (header.has_node_weights, header.has_item_weights,
                  n if graph else header.m, graph)
        closes, spool = self._closes, None
        if self.spool:
            try:
                spool = tempfile.TemporaryFile(prefix="streamdecomp-")
            except OSError:   # no temporary file: later passes parse again
                pass
        listed = 0
        try:
            with open(self.path) as fh:
                lines = _lines(fh)
                _nonempty(map(str.split, lines))
                for start in range(0, n, SPOOL_CHUNK):
                    size = min(SPOOL_CHUNK, n - start)
                    chunk = list(islice(lines, size))
                    columns = _columns(chunk, start, *layout)
                    if columns is None or len(chunk) < size:
                        good = next((i for i, line in enumerate(chunk)
                                     if _columns([line], start + i, *layout)
                                     is None), len(chunk))
                        if columns is None and good == len(chunk):
                            raise AssertionError(
                                f"the chunk from node {start} is rejected, "
                                f"but none of its lines on its own")
                        yield (start,
                               *_columns(chunk[:good], start, *layout))
                        if good < len(chunk):
                            raise _line_fault(chunk[good], start + good,
                                              *layout)
                        raise FormatError(
                            f"{self.path}: expected {n} node lines, got "
                            f"{start + good}")
                    del chunk   # only a failing chunk needs its text
                    listed += len(columns[1])
                    if spool is not None:
                        try:
                            for column in columns:
                                if column is not None:
                                    spool.write(array("i", column))
                            spool.flush()   # for the replays' own handles
                        except (OSError, OverflowError):   # later passes parse
                            with suppress(OSError):   # close() flushes again
                                spool.close()
                            spool = None
                    yield (start, *columns)
                    del columns   # before the next chunk is converted
                _expect_end(map(str.split, lines),
                            f"{self.path}: more lines than the {n} node "
                            f"lines the header declares")
            if listed != header.pins:
                what = "edge" if graph else "pin"
                raise FormatError(
                    f"{self.path}: {what}-count mismatch, the header gives "
                    f"{header.pins} entries but the node lines list {listed}")
            if spool is not None and closes == self._closes:
                if self._kept is not None:   # a parse that ran alongside
                    self._kept[1]()
                self._kept = spool, weakref.finalize(self, spool.close)
                spool = None
        finally:
            if spool is not None:
                spool.close()


SPOOL_CHUNK = 1024   # nodes per spool chunk


def _replay(fh, header: StreamHeader) -> Iterator[tuple]:
    """The columns of a complete spool, equal to the ones parsed.  ``fh``
    is an unbuffered handle of the replay's own, taken when the replay is
    made, so the replay finishes after ``close()``; descriptors share one
    file offset, so it reads from its own offset at each chunk, and
    replays may interleave."""
    n = header.n
    item_weights = header.has_item_weights
    node_weights = header.has_node_weights
    offset = 0
    with fh:
        for start in range(0, n, SPOOL_CHUNK):
            fh.seek(offset)
            size = min(SPOOL_CHUNK, n - start)
            degrees = _read(fh, size)
            total = sum(degrees)
            ids = _read(fh, total).tolist()
            weights = _read(fh, total).tolist() if item_weights else None
            node_weight = _read(fh, size).tolist() if node_weights else None
            offset = fh.tell()
            yield start, degrees, ids, weights, node_weight


def _split(flat: list[int], degrees: Iterable[int]) -> Iterator[list[int]]:
    """The per-node slices of a chunk's flat column."""
    pos = 0
    for degree in degrees:
        end = pos + degree
        yield flat[pos:end]
        pos = end


def _columns(lines: list[str], start: int, node_weights: bool,
             item_weights: bool, bound: int, graph: bool) -> Optional[tuple]:
    """The spool columns of a chunk of node lines, node ``start`` on:
    degrees, flat 0-based ids, flat item weights and node weights (the last
    two None when ``fmt`` has none); None when a line breaks a rule.  It is
    the one rule set for node lines: a rejected chunk's bad line is the
    first line it rejects on its own.

    Lines are split one at a time, so that no more than one line's tokens
    are alive at once.  Without weights the ids are one ``map(int, ...)``
    over the chunk's tokens; with weights each line's tokens are converted
    at once and its columns sliced from the ints
    (:func:`_weighted_columns`).
    Ids are made 0-based by one comprehension (it subtracts faster than
    ``map(operator.sub, ...)``).  The checks are ``min``/``max`` and one
    C-level call per line.
    """
    degrees, weighed = [], []
    try:
        if node_weights or item_weights:
            ints, weights, node_weight = _weighted_columns(
                lines, node_weights, item_weights, degrees, weighed)
        else:
            ints = map(int, chain.from_iterable(_rows(lines, degrees)))
            weights = node_weight = None
        ids = [v - 1 for v in ints]
    except (ValueError, IndexError):   # a bad token, a line without weight
        return None
    if ids and (min(ids) < 0 or max(ids) >= bound):
        return None
    if node_weight and min(node_weight) < 1:
        return None
    # A line of odd length (a dangling weight) lists one more id than weights.
    if weights is not None and (weighed != degrees
                                or weights and min(weights) < 1):
        return None
    rows = _split(ids, degrees)
    if graph:
        if any(map(contains, rows, count(start))):   # a self-loop
            return None
    elif sum(map(len, map(set, rows))) < len(ids):   # a net listed twice
        return None
    return degrees, ids, weights, node_weight


def _rows(lines: list[str], lengths: list[int]) -> Iterator[list[str]]:
    """The tokens of each line, split one line at a time, with each line's
    length appended to ``lengths``."""
    for line in lines:
        row = line.split()
        lengths.append(len(row))
        yield row


def _weighted_columns(lines: list[str], node_weights: bool,
                      item_weights: bool, degrees: list[int],
                      weighed: list[int]) -> tuple:
    """The 1-based ids, item weights (None without) and node weights (None
    without) of weighted lines, each line split and converted once; each
    line's id count goes to ``degrees`` and its weight count to
    ``weighed``."""
    skip = 1 if node_weights else 0
    ids_part = slice(skip, None, 2) if item_weights else slice(skip, None)
    weights_part = slice(skip + 1, None, 2)
    ids: list[int] = []
    weights: Optional[list[int]] = [] if item_weights else None
    node_weight: Optional[list[int]] = [] if node_weights else None
    for line in lines:
        row = list(map(int, line.split()))
        if node_weights:
            node_weight.append(row[0])
        part = row[ids_part]
        degrees.append(len(part))
        ids += part
        if item_weights:
            part = row[weights_part]
            weighed.append(len(part))
            weights += part
    return ids, weights, node_weight


def _read(fh, count: int) -> array:
    values = array("i")
    values.fromfile(fh, count)
    return values


def _expect_end(lines: Iterator[list[str]], message: str) -> None:
    """Raise ``message`` unless only blank or comment lines are left."""
    if _nonempty(lines) is not None:
        raise FormatError(message)


def _is_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


def _line_fault(line: str, node: int, node_weights: bool,
                item_weights: bool, bound: int, graph: bool) -> FormatError:
    """The error of a node line that :func:`_columns` rejects on its own:
    a missing node weight, a node weight below 1, a dangling weight, the
    first token that is not an integer (a node weight's before the rest),
    then the first bad id or weight in line order.  A rejected line that
    breaks none of these rules is a fault of the program."""
    parts = line.split()
    bad = next(filterfalse(_is_int, parts), None)   # the first non-integer
    if node_weights:
        if not parts:
            return FormatError(f"node {node}: missing node weight")
        if parts[0] == bad:
            return FormatError(f"node {node}: {bad!r} is not an integer")
        if int(parts.pop(0)) < 1:
            return FormatError(f"node {node}: node weight must be >= 1")
    what = "edge" if graph else "net"
    if item_weights and len(parts) % 2:
        return FormatError(f"node {node}: dangling {what} weight")
    if bad is not None:
        return FormatError(f"node {node}: {bad!r} is not an integer")
    ints = list(map(int, parts))
    seen = set()
    for v, w in zip(ints[::1 + item_weights],
                    ints[1::2] if item_weights else repeat(1)):
        if not 1 <= v <= bound:
            item, name = ("neighbor", "n") if graph else ("net id", "m")
            return FormatError(f"node {node}: {item} out of range "
                               f"({v} with {name}={bound})")
        if graph and v == node + 1:
            return FormatError(f"node {node}: self-loop not allowed")
        if not graph and v in seen:
            return FormatError(f"node {node}: net {v} listed twice")
        if w < 1:
            return FormatError(f"node {node}: {what} weight must be >= 1")
        seen.add(v)
    raise AssertionError(f"node {node}: a line is rejected, but no rule "
                         f"names its fault")


def open_graph_stream(path: str, spool: bool = True) -> NodeStream:
    """Open a METIS graph file for streaming passes in ascending node order."""
    return NodeStream(path, graph=True, spool=spool)


def open_hypergraph_node_stream(path: str, spool: bool = True) -> NodeStream:
    """Open a node-major hypergraph file for streaming passes."""
    return NodeStream(path, graph=False, spool=spool)


def transpose_hmetis(src: str, dst: str) -> StreamHeader:
    """Convert an hMetis net-major file into the node-major streaming format.

    This is an offline, in-memory step: the streaming passes themselves stay
    single-pass.  It rejects what the node-major reader would: a token that
    is not an integer, a pin out of range or listed twice in one net, a net
    or node weight below 1, and a line past the ones the header declares.
    It also rejects a net with no pins.  Returns the header of the written
    file.
    """
    with open(src) as fh:
        lines = _tokens(fh)
        head = _nonempty(lines)
        if head is None:
            raise FormatError(f"{src}: empty hMetis file")
        if len(head) < 2:
            raise FormatError("hMetis header needs 'm n'")
        m, n = _ints(head[:2], "hMetis header")
        if n < 1 or m < 0:
            raise FormatError(f"invalid hMetis header m={m} n={n}")
        net_w = node_w = False
        if len(head) >= 3:
            node_w, net_w = _parse_fmt(head[2])
        ids: list[list[int]] = [[] for _ in range(n)]
        weights: list[list[int]] = [[] for _ in range(n)]
        for e in range(m):
            parts = _nonempty(lines)   # a net must have at least one pin
            if parts is None:
                raise FormatError(f"{src}: expected {m} net lines, got {e}")
            net_pins = _ints(parts, f"net {e}")
            w = 1
            if net_w:
                w = net_pins.pop(0)
                if w < 1:
                    raise FormatError(f"net {e}: net weight must be >= 1")
            if not net_pins:
                raise FormatError(f"net {e}: no pins")
            for v in net_pins:
                if not 1 <= v <= n:
                    raise FormatError(f"net {e}: pin out of range "
                                      f"({v} with n={n})")
                ids[v - 1].append(e)
                weights[v - 1].append(w)
            if len(set(net_pins)) < len(net_pins):
                twice = next(v for i, v in enumerate(net_pins)
                             if v in net_pins[:i])
                raise FormatError(f"net {e}: pin {twice} listed twice")
        node_weights = [1] * n
        if node_w:
            for v in range(n):
                parts = _nonempty(lines)
                if parts is None:
                    raise FormatError(f"{src}: missing node weight line {v}")
                node_weights[v] = _ints(parts[:1], f"node {v} weight")[0]
                if node_weights[v] < 1:
                    raise FormatError(f"node {v}: node weight must be >= 1")
        _expect_end(lines, f"{src}: more lines than the {m} net lines"
                           + (f" and {n} node weight lines" if node_w else "")
                           + " the header declares")

    pins = sum(map(len, ids))
    _write_node_lines(dst, [n, m, pins], node_weights if node_w else None,
                      ids, weights, net_w)
    return StreamHeader(n, m, pins, node_w, net_w)


def write_partition(path: str, assignment: Iterable[int]) -> None:
    """Write one 0-based block id per line, line i = node i."""
    text = "\n".join(map(str, assignment))
    with open(path, "w") as out:
        out.write(text + "\n" if text else text)


def read_partition(path: str, n: int, k: Optional[int] = None) -> list[int]:
    """Block ids of nodes 0..n-1, each in [0, k) (only >= 0 without k)."""
    with open(path) as fh:
        lines = fh.readlines()
    try:
        blocks = [int(line) for line in lines if line.strip()]
    except ValueError:
        line, token = next((i, t.strip()) for i, t in enumerate(lines, 1)
                           if t.strip() and not _is_int(t))
        raise FormatError(f"{path}: line {line}: {token!r} is not an "
                          f"integer") from None
    if len(blocks) != n:
        raise FormatError(f"{path}: expected {n} block ids, got {len(blocks)}")
    for node, block in enumerate(blocks):
        if block < 0 or (k is not None and block >= k):
            why = "is negative" if block < 0 else f"out of range for k={k}"
            raise FormatError(f"{path}: node {node}: block id {block} {why}")
    return blocks


def write_graph(path: str, n: int, edges: Iterable[tuple[int, int, int]],
                node_weights: Sequence[int] | None = None) -> None:
    """Write an undirected edge list as a METIS file (0-based input ids)."""
    ids: list[list[int]] = [[] for _ in range(n)]
    weights: list[list[int]] = [[] for _ in range(n)]
    m = 0
    has_edge_w = False
    for u, v, w in edges:
        ids[u].append(v)
        weights[u].append(w)
        ids[v].append(u)
        weights[v].append(w)
        has_edge_w = has_edge_w or w != 1
        m += 1
    has_node_w = node_weights is not None and any(w != 1 for w in node_weights)
    _write_node_lines(path, [n, m], node_weights if has_node_w else None, ids,
                      weights, has_edge_w)


def _write_node_lines(path: str, header: list[int],
                      node_weights: Sequence[int] | None,
                      ids: Sequence[Sequence[int]],
                      weights: Sequence[Sequence[int]],
                      item_weights: bool) -> None:
    """Write a node-per-line file: the header fields plus the fmt bits, then
    per node its weight (if ``node_weights``) and its 1-based ids, each
    followed by its weight when ``item_weights``."""
    fmt_bits = (10 if node_weights is not None else 0) + \
        (1 if item_weights else 0)
    if fmt_bits:
        header = header + [fmt_bits]
    with open(path, "w") as out:
        out.write(" ".join(map(str, header)) + "\n")
        for v, node_ids in enumerate(ids):
            fields = [] if node_weights is None else [str(node_weights[v])]
            for e, w in zip(node_ids, weights[v]):
                fields.append(str(e + 1))
                if item_weights:
                    fields.append(str(w))
            out.write(" ".join(fields) + "\n")


class MemoryStream:
    """Replayable in-memory stream, graph or hypergraph (used when timing
    excludes parsing), nodes 0..n-1 in order: a list of chunks of columns
    as :meth:`NodeStream.chunks` gives them, kept as they are and shared,
    so a reader must not change them."""

    def __init__(self, header: StreamHeader, chunks: list):
        self.header = header
        self._chunks = chunks

    @classmethod
    def from_records(cls, header: StreamHeader, records: list
                     ) -> MemoryStream:
        """A stream of ``records`` as one chunk: item and node weights only
        where the header's flags say now (None otherwise); no chunk for no
        records.  ``ValueError`` names the first record whose id is not its
        position, or that lists a negative id; an id too large is left to
        the reader that uses it, since the header cannot tell n from m as
        its bound."""
        ids = list(map(attrgetter("id"), records))
        if ids != list(range(len(ids))):
            bad = next(i for i, v in enumerate(ids) if v != i)
            raise ValueError(f"record {bad} has id {ids[bad]}, not {bad}")
        if not records:
            return cls(header, [])
        rows = list(map(attrgetter("ids"), records))
        lowest = [min(row, default=0) for row in rows]
        if min(lowest) < 0:
            bad = next(i for i, v in enumerate(lowest) if v < 0)
            raise ValueError(f"record {bad} lists negative id {lowest[bad]}")
        return cls(header, [(
            0, list(map(len, rows)), list(chain.from_iterable(rows)),
            list(chain.from_iterable(map(attrgetter("weights"), records)))
            if header.has_item_weights else None,
            list(map(attrgetter("weight"), records))
            if header.has_node_weights else None)])

    def chunks(self) -> Iterator[tuple]:
        return iter(self._chunks)
