import random
import re

import pytest

from streamdecomp import cli, streams
from streamdecomp.streams import (FormatError, StreamedNodeRecord,
                                  open_graph_stream,
                                  open_hypergraph_node_stream, read_partition,
                                  transpose_hmetis, write_graph,
                                  write_partition)

import reference
from reference import parse_node_lines, stream_records


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_plain_metis_file(tmp_path):
    # 1-based file: node 1 <-> node 2, node 2 <-> node 3
    path = write(tmp_path, "g.graph", "3 2\n2\n1 3\n2\n")
    stream = open_graph_stream(path)
    assert stream.header.n == 3 and stream.header.m == 2
    records = list(stream_records(stream))
    assert [r.id for r in records] == [0, 1, 2]
    assert (records[0].ids, records[0].weights) == ([1], [1])
    assert (records[1].ids, records[1].weights) == ([0, 2], [1, 1])
    assert (records[2].ids, records[2].weights) == ([1], [1])
    assert all(r.weight == 1 for r in records)


def test_metis_weight_flags(tmp_path):
    # fmt=11: node weight first, then (neighbor, edge weight) pairs
    path = write(tmp_path, "g.graph", "2 1 11\n5 2 7\n3 1 7\n")
    records = list(stream_records(open_graph_stream(path)))
    assert records[0].weight == 5 and records[1].weight == 3
    assert (records[0].ids, records[0].weights) == ([1], [7])
    assert (records[1].ids, records[1].weights) == ([0], [7])

    # fmt=1: edge weights only
    path = write(tmp_path, "g2.graph", "2 1 1\n2 4\n1 4\n")
    records = list(stream_records(open_graph_stream(path)))
    assert records[0].weight == 1
    assert (records[0].ids, records[0].weights) == ([1], [4])

    # fmt=10: node weights only
    path = write(tmp_path, "g3.graph", "2 1 10\n9 2\n4 1\n")
    records = list(stream_records(open_graph_stream(path)))
    assert records[0].weight == 9
    assert (records[0].ids, records[0].weights) == ([1], [1])


def test_comment_lines_skipped(tmp_path):
    path = write(tmp_path, "g.graph", "% a comment\n3 2\n% another\n2\n1 3\n2\n")
    assert len(list(stream_records(open_graph_stream(path)))) == 3


def test_trailing_blank_and_comment_lines_accepted(tmp_path):
    graph = write(tmp_path, "g.graph", "3 2\n2\n1 3\n2\n\n% end\n\n")
    assert len(list(stream_records(open_graph_stream(graph)))) == 3
    hyper = write(tmp_path, "h.hgr", "2 1 2\n1\n1\n% end\n\n")
    assert len(list(stream_records(open_hypergraph_node_stream(hyper)))) == 2
    hmetis = write(tmp_path, "nets.hgr", "1 3 10\n1 2\n5\n5\n5\n\n% end\n")
    assert transpose_hmetis(hmetis, str(tmp_path / "nodes.hgr")).n == 3


def test_neighbor_out_of_range(tmp_path):
    path = write(tmp_path, "g.graph", "3 2\n2\n1 9\n2\n")
    with pytest.raises(FormatError, match="neighbor out of range"):
        list(stream_records(open_graph_stream(path)))


def test_edge_count_mismatch(tmp_path):
    path = write(tmp_path, "g.graph", "3 5\n2\n1 3\n2\n")
    with pytest.raises(FormatError, match="edge-count mismatch"):
        list(stream_records(open_graph_stream(path)))


def test_self_loop_rejected(tmp_path):
    path = write(tmp_path, "g.graph", "2 1\n1\n1\n")
    with pytest.raises(FormatError, match="self-loop"):
        list(stream_records(open_graph_stream(path)))


def test_header_available_before_records(tmp_path):
    path = write(tmp_path, "g.graph", "3 2\n2\n1 3\n2\n")
    stream = open_graph_stream(path)
    assert stream.header.n == 3  # before consuming any record


def test_node_major_hypergraph(tmp_path):
    # n=3 nodes, m=2 nets; node 0 in net 1, node 1 in nets 1,2, node 2 in net 2
    path = write(tmp_path, "h.hgr", "3 2 4\n1\n1 2\n2\n")
    stream = open_hypergraph_node_stream(path)
    assert (stream.header.n, stream.header.m, stream.header.pins) == (3, 2, 4)
    records = list(stream_records(stream))
    assert (records[0].ids, records[0].weights) == ([0], [1])
    assert (records[1].ids, records[1].weights) == ([0, 1], [1, 1])
    assert (records[2].ids, records[2].weights) == ([1], [1])


def test_isolated_hypergraph_node(tmp_path):
    # the blank middle line is node 1 with an empty incident list
    path = write(tmp_path, "h.hgr", "3 1 2\n1\n\n1\n")
    records = list(stream_records(open_hypergraph_node_stream(path)))
    assert len(records) == 3
    assert (records[1].ids, records[1].weights) == ([], [])
    assert (records[0].ids, records[0].weights) == ([0], [1])


def test_isolated_graph_node(tmp_path):
    path = write(tmp_path, "g.graph", "3 1\n2\n1\n\n")
    records = list(stream_records(open_graph_stream(path)))
    assert (records[2].ids, records[2].weights) == ([], [])


def test_net_id_out_of_range(tmp_path):
    path = write(tmp_path, "h.hgr", "2 1 2\n1\n2\n")
    with pytest.raises(FormatError, match="net id out of range"):
        list(stream_records(open_hypergraph_node_stream(path)))


def test_pin_count_mismatch(tmp_path):
    path = write(tmp_path, "h.hgr", "2 1 5\n1\n1\n")
    with pytest.raises(FormatError, match="pin-count mismatch"):
        list(stream_records(open_hypergraph_node_stream(path)))


# Every malformed input a node-per-line reader must reject, both formats.
MALFORMED = [
    pytest.param("graph", "", "empty graph file",
                 id="graph-empty"),
    pytest.param("hyper", "", "empty hypergraph file",
                 id="hyper-empty"),
    pytest.param("graph", "3\n", "header needs",
                 id="graph-short-header"),
    pytest.param("hyper", "3 2\n", "header needs",
                 id="hyper-short-header"),
    pytest.param("graph", "2 1 100\n2\n1\n", "fmt=1xx",
                 id="graph-fmt-1xx"),
    pytest.param("hyper", "2 1 2 100\n1\n1\n", "fmt=1xx",
                 id="hyper-fmt-1xx"),
    pytest.param("graph", "2 1 10 2\n1 2\n1 1\n", "ncon>1",
                 id="graph-ncon"),
    pytest.param("graph", "0 0\n", "invalid graph header",
                 id="graph-n-below-1"),
    pytest.param("hyper", "0 0 0\n", "invalid hypergraph header",
                 id="hyper-n-below-1"),
    pytest.param("graph", "3 2\n2\n1 3\n", "expected 3 node lines, got 2",
                 id="graph-missing-line"),
    pytest.param("hyper", "3 2 4\n1\n1 2\n", "expected 3 node lines, got 2",
                 id="hyper-missing-line"),
    pytest.param("graph", "2 1 10\n3 2\n\n", "missing node weight",
                 id="graph-missing-node-weight"),
    pytest.param("hyper", "2 1 2 10\n3 1\n\n", "missing node weight",
                 id="hyper-missing-node-weight"),
    pytest.param("graph", "2 1 10\n0 2\n1 1\n", "node weight must be >= 1",
                 id="graph-node-weight-0"),
    pytest.param("hyper", "2 1 2 10\n0 1\n1 1\n", "node weight must be >= 1",
                 id="hyper-node-weight-0"),
    pytest.param("graph", "2 1 1\n2 4\n1\n", "dangling edge weight",
                 id="graph-dangling-weight"),
    pytest.param("hyper", "2 1 2 1\n1 4\n1\n", "dangling net weight",
                 id="hyper-dangling-weight"),
    pytest.param("graph", "2 1 1\n2 0\n1 0\n", "edge weight must be >= 1",
                 id="graph-weight-0"),
    pytest.param("hyper", "2 1 2 1\n1 0\n1 0\n", "net weight must be >= 1",
                 id="hyper-weight-0"),
    pytest.param("graph", "2 1\n0\n1\n", "neighbor out of range",
                 id="graph-id-0"),
    pytest.param("hyper", "2 1 2\n0\n1\n", "net id out of range",
                 id="hyper-id-0"),
    pytest.param("graph", "3 2\n2\n1 9\n2\n", "neighbor out of range",
                 id="graph-id-above-bound"),
    pytest.param("hyper", "2 1 2\n1\n2\n", "net id out of range",
                 id="hyper-id-above-bound"),
    pytest.param("graph", "2 1\n1\n1\n", "self-loop",
                 id="graph-self-loop"),
    pytest.param("hyper", "2 1 3\n1 1\n1\n", "net 1 listed twice",
                 id="hyper-net-twice"),
    pytest.param("graph", "3 5\n2\n1 3\n2\n", "edge-count mismatch",
                 id="graph-total-mismatch"),
    pytest.param("hyper", "2 1 5\n1\n1\n", "pin-count mismatch",
                 id="hyper-total-mismatch"),
    pytest.param("graph", "3 x\n2\n1 3\n2\n", "malformed graph header",
                 id="graph-non-int-header"),
    pytest.param("hyper", "2 x 2\n1\n1\n", "malformed hypergraph header",
                 id="hyper-non-int-header"),
    pytest.param("graph", "2 1 10 x\n1 2\n1 1\n", "malformed graph header",
                 id="graph-non-int-ncon"),
    pytest.param("graph", "4 4 2\n2 4\n1 3\n2 4\n1 3\n",
                 "fmt digits must be 0 or 1", id="graph-fmt-2"),
    pytest.param("graph", "2 1 20\n5 2\n3 1\n",
                 "fmt digits must be 0 or 1", id="graph-fmt-20"),
    pytest.param("graph", "2 1 12\n5 2 1\n3 1 1\n",
                 "fmt digits must be 0 or 1", id="graph-fmt-12"),
    pytest.param("hyper", "2 1 2 2\n1\n1\n",
                 "fmt digits must be 0 or 1", id="hyper-fmt-2"),
    pytest.param("hyper", "2 1 2 20\n5 1\n3 1\n",
                 "fmt digits must be 0 or 1", id="hyper-fmt-20"),
    pytest.param("hyper", "2 1 2 12\n5 1 1\n3 1 1\n",
                 "fmt digits must be 0 or 1", id="hyper-fmt-12"),
    pytest.param("graph", "3 2\n2\n1 3\n2\n4\n",
                 "more lines than the 3 node lines", id="graph-trailing-line"),
    pytest.param("hyper", "2 1 2\n1\n1\n\n1\n",
                 "more lines than the 2 node lines", id="hyper-trailing-line"),
    pytest.param("graph", "2 1\n2\nx\n", "node 1: 'x' is not an integer",
                 id="graph-non-int-id"),
    pytest.param("hyper", "2 1 2\n1\n1 y\n", "node 1: 'y' is not an integer",
                 id="hyper-non-int-id"),
    pytest.param("graph", "2 1 11\nw 2 1\n1 1 1\n",
                 "node 0: 'w' is not an integer", id="graph-non-int-node-weight"),
    pytest.param("hyper", "2 1 2 1\n1 1\n1 1.5\n",
                 "node 1: '1.5' is not an integer", id="hyper-non-int-net-weight"),
]


def opener(kind):
    return open_graph_stream if kind == "graph" \
        else open_hypergraph_node_stream


@pytest.mark.parametrize("kind, text, message", MALFORMED)
def test_malformed_node_file(tmp_path, kind, text, message):
    path = write(tmp_path, "in.txt", text)
    with pytest.raises(FormatError, match=re.escape(message)):
        list(stream_records(opener(kind)(path)))


def noisy_file(rng: random.Random, kind: str, fmt: int, n: int,
               newline: str) -> tuple[str, list[StreamedNodeRecord]]:
    """A random node-per-line file and its records, with ``%`` lines
    between node lines, blank node lines, tab and multi-space separators,
    leading and trailing blanks and ``newline`` line ends."""
    graph = kind == "graph"
    node_w, item_w = fmt >= 10, fmt % 10 == 1
    ids = [[] for _ in range(n)]
    weights = [[] for _ in range(n)]
    if graph:   # every fifth node isolated
        linked = [v for v in range(n) if v % 5 != 4]
        edges = {tuple(sorted(rng.sample(linked, 2))) for _ in range(2 * n)}
        for u, v in edges:
            w = rng.randint(1, 9)
            for a, b in ((u, v), (v, u)):
                ids[a].append(b)
                weights[a].append(w)
        m = len(edges)
    else:
        m = max(2, n // 2)
        net_weight = [rng.randint(1, 9) for _ in range(m)]
        for v in range(n):
            if v % 5 != 4:
                ids[v] = rng.sample(range(m), rng.randint(1, min(5, m)))
                weights[v] = [net_weight[e] for e in ids[v]]
    node_weight = [rng.randint(1, 9) for _ in range(n)]
    records = []
    for v in range(n):
        order = rng.sample(range(len(ids[v])), len(ids[v]))
        records.append(StreamedNodeRecord(
            v, node_weight[v] if node_w else 1, [ids[v][i] for i in order],
            [weights[v][i] if item_w else 1 for i in order]))
    pins = sum(len(r.ids) for r in records)
    head = [n, m] if graph else [n, m, pins]
    lines = [" ".join(map(str, head + ([fmt] if fmt else [])))]
    for record in records:
        if rng.random() < 0.2:
            lines.append("% a comment\tline")
        tokens = [str(record.weight)] if node_w else []
        for v, w in zip(record.ids, record.weights):
            tokens += [str(v + 1), str(w)] if item_w else [str(v + 1)]
        gaps = [rng.choice([" ", "\t", "   ", " \t "]) for _ in tokens]
        lines.append(rng.choice(["", " ", "\t"])
                     + "".join(g + t for g, t in zip(gaps, tokens)).lstrip()
                     + rng.choice(["", " ", "\t "]))
    return newline.join(lines + ["% the end", ""]), records


@pytest.mark.parametrize("chunk", [2, 3, 1024])
@pytest.mark.parametrize("fmt", [0, 1, 10, 11])
@pytest.mark.parametrize("kind", ["graph", "hyper"])
def test_chunk_parse_equals_line_parse(tmp_path, monkeypatch, kind, fmt,
                                       chunk):
    monkeypatch.setattr(streams, "SPOOL_CHUNK", chunk)
    rng = random.Random(f"{kind} {fmt} {chunk}")
    # several chunks, the last one short
    for n, newline in ((chunk * 3 + 1, "\n"), (chunk * 2 + 1, "\r\n")):
        text, records = noisy_file(rng, kind, fmt, n, newline)
        path = tmp_path / "in.txt"
        path.write_bytes(text.encode())
        assert list(parse_node_lines(str(path), kind == "graph")) == records
        stream = opener(kind)(str(path))
        assert list(stream_records(stream)) == records     # the parse
        assert list(stream_records(stream)) == records     # the replay
        stream.close()
        assert list(stream_records(opener(kind)(str(path), spool=False))) \
            == records


def _header_parses(kind: str, text: str) -> bool:
    head = streams._nonempty(streams._tokens(text.splitlines()))
    try:
        streams._header(head or [], kind == "graph")
    except FormatError:
        return False
    return True


def shifted(kind: str, text: str, p: int) -> str:
    """``text`` with ``p`` isolated nodes before its node lines.  A graph's
    ids of 1 and more move up by ``p``, so each line names the same
    neighbors and stays as right or as wrong as it was."""
    graph = kind == "graph"
    header, *lines = text.split("\n")
    fields = header.split()
    width = 2 if graph else 3
    node_w, item_w = streams._parse_fmt(fields[width]) \
        if len(fields) > width else (False, False)
    fields[0] = str(int(fields[0]) + p)

    def shift(line: str) -> str:
        tokens = line.split()
        if graph and not line.startswith("%"):
            for i in range(int(node_w), len(tokens), 1 + item_w):
                if tokens[i].isdigit() and int(tokens[i]) >= 1:
                    tokens[i] = str(int(tokens[i]) + p)
        return " ".join(tokens)
    return "\n".join([" ".join(fields), *["1" if node_w else ""] * p,
                      *map(shift, lines)])


# Two bad lines in one chunk: the earlier one breaks a check the chunk
# conversion makes after the later one's (a range check after the integer
# conversion), and is still the one named.
TWO_BAD_LINES = [
    pytest.param("graph", "6 3\n2\n1 3\n2 9\n5\n4 6\n5 x\n",
                 "node 2: neighbor out of range", id="graph-range-then-token"),
    pytest.param("hyper", "6 2 6\n1\n1\n3\n2\n2\n2 y\n",
                 "node 2: net id out of range", id="hyper-range-then-token"),
]


@pytest.mark.parametrize(
    "kind, text, message",
    [p for p in MALFORMED if _header_parses(*p.values[:2])] + TWO_BAD_LINES)
def test_chunk_fault_is_the_first_bad_line(tmp_path, monkeypatch, capsys,
                                           kind, text, message):
    monkeypatch.setattr(streams, "SPOOL_CHUNK", 4)
    graph = kind == "graph"
    places = set()
    for p in range(8):   # first, middle and last in the first two chunks
        path = str(tmp_path / f"in-{p}.txt")
        with open(path, "w") as fh:
            fh.write(shifted(kind, text, p))
        expected, before = None, []
        try:
            before.extend(parse_node_lines(path, graph))
        except FormatError as exc:
            expected = exc
        assert expected is not None and (p or message in str(expected))
        places.add(len(before))
        parsed = []
        with pytest.raises(FormatError) as raised:
            parsed.extend(stream_records(opener(kind)(path)))
        assert str(raised.value) == str(expected)
        assert parsed == before            # the good lines before it
        command = "partition" if graph else "hpartition"
        assert cli.main([command, "--input", path, "--k", "2"]) == 2
        assert f"input error: {expected}" in capsys.readouterr().err
    assert {place % 4 for place in places} == {0, 1, 2, 3}
    assert {0, 1} <= {place // 4 for place in places}


@pytest.mark.parametrize("alone", [True, False])
def test_rule_mismatch_is_an_internal_fault(tmp_path, monkeypatch, capsys,
                                            alone):
    """A good line that the chunk conversion rejects is a fault of the
    program, not of the input: exit 3.  With ``alone`` the line is rejected
    on its own too, and ``_line_fault`` finds no rule it breaks; without,
    only its chunk is rejected."""
    columns = streams._columns

    def reject_node_5(lines, start, *layout):
        if start <= 5 < start + len(lines) and (alone or len(lines) > 1):
            return None
        return columns(lines, start, *layout)
    monkeypatch.setattr(streams, "_columns", reject_node_5)
    monkeypatch.setattr(streams, "SPOOL_CHUNK", 4)
    path = write(tmp_path, "ring.graph", "8 8\n" + "".join(
        f"{(v - 1) % 8 + 1} {(v + 1) % 8 + 1}\n" for v in range(8)))
    assert cli.main(["partition", "--input", path, "--k", "2"]) == 3
    assert "internal invariant failure: AssertionError" \
        in capsys.readouterr().err


# Tokens of the differential test: good and bad ids and weights, and
# strings ``int`` accepts or rejects in ways a digit test would not.
TOKENS = ["0", "1", "2", "3", "4", "5", "6", "-1", "+2", "007", "1_0",
          "2.5", "x", "\u0663", "1e3", "--1"]


def test_line_fault_matches_the_line_parser():
    """On random lines of all four fmts and both kinds, many with two or
    more faults, ``_columns`` rejects exactly the lines the line-by-line
    parser rejects, ``_line_fault`` names the same fault, and an accepted
    line converts to the same values."""
    rng = random.Random(31)
    named = set()
    for _ in range(20000):
        graph = rng.random() < 0.5
        fmt = rng.choice([0, 1, 10, 11])
        bound = rng.randint(1, 5)
        node = rng.randrange(bound) if graph else rng.randrange(6)
        layout = (fmt >= 10, fmt % 2 == 1, bound, graph)
        tokens = rng.choices(TOKENS, k=rng.randint(0, 6))
        line = "".join(rng.choice([" ", "\t", "  "]) + t for t in tokens)
        columns = streams._columns([line], node, *layout)
        try:
            weight, ids, weights = reference._parse_line(line.split(), node,
                                                         *layout)
        except FormatError as exc:
            assert columns is None, line
            assert str(streams._line_fault(line, node, *layout)) \
                == str(exc), line
            named.add(re.sub(r"node \d+: |\(.*\)|'.*'|\d+", "", str(exc)))
            continue
        assert columns == ([len(ids)], ids, weights if layout[1] else None,
                           [weight] if layout[0] else None), line
    assert len(named) == 11, named   # every message of either kind


@pytest.mark.parametrize("k", [1, 256])
def test_write_partition_writes_one_line_per_node(tmp_path, k):
    rng = random.Random(k)
    assignment = [rng.randrange(k) for _ in range(3000)]
    path = tmp_path / "p.part"
    expected = "".join(f"{block}\n" for block in assignment).encode()
    write_partition(str(path), assignment)
    assert path.read_bytes() == expected
    write_partition(str(path), iter(assignment))
    assert path.read_bytes() == expected
    write_partition(str(path), [])
    assert path.read_bytes() == b""


def test_transpose_round_trips_pin_multiset(tmp_path):
    hmetis = write(tmp_path, "nets.hgr",
                   "4 6 1\n9 1 3 4\n2 2 5\n1 4 6\n3 1 2 3 6\n")
    out = str(tmp_path / "nodes.hgr")
    header = transpose_hmetis(hmetis, out)
    assert (header.n, header.m) == (6, 4)
    assert header.has_item_weights

    # pin multiset before: net -> sorted pins
    source_pins = {0: [1, 3, 4], 1: [2, 5], 2: [4, 6], 3: [1, 2, 3, 6]}
    back = {}
    weights = {}
    for record in stream_records(open_hypergraph_node_stream(out)):
        for e, w in zip(record.ids, record.weights):
            back.setdefault(e, []).append(record.id + 1)
            weights[e] = w
    assert back == source_pins
    assert weights == {0: 9, 1: 2, 2: 1, 3: 3}
    assert header.pins == sum(len(p) for p in source_pins.values())


def test_transpose_isolated_node(tmp_path):
    # node 3 belongs to no net: its line in the node-major file is empty,
    # which the reader cannot distinguish from a skipped line, so transpose
    # must keep the stream parsable some other way; with fmt=10 the weight
    # token keeps the line non-empty.
    hmetis = write(tmp_path, "nets.hgr", "1 3 10\n1 2\n5\n5\n5\n")
    out = str(tmp_path / "nodes.hgr")
    header = transpose_hmetis(hmetis, out)
    records = list(stream_records(open_hypergraph_node_stream(out)))
    assert len(records) == 3
    assert (records[2].ids, records[2].weights) == ([], [])
    assert [r.weight for r in records] == [5, 5, 5]
    assert header.pins == 2


# hMetis inputs transpose must reject: each would write a node-major file
# that the reader rejects or that carries a weight below 1.
BAD_HMETIS = [
    pytest.param("2 3\n1 2 2\n2 3\n", "net 0: pin 2 listed twice",
                 id="duplicate-pin"),
    pytest.param("2 3 1\n0 1 2\n1 2 3\n", "net 0: net weight must be >= 1",
                 id="net-weight-0"),
    pytest.param("2 3 10\n1 2\n2 3\n4\n0\n1\n",
                 "node 1: node weight must be >= 1", id="node-weight-0"),
    pytest.param("2 3\n1 x\n2 3\n", "malformed net 0", id="non-int-pin"),
    pytest.param("2 3 1\n1 2\n2.5 2 3\n", "malformed net 1",
                 id="non-int-net-weight"),
    pytest.param("1 3 10\n1 2\n4\nw\n1\n", "malformed node 1 weight",
                 id="non-int-node-weight"),
    pytest.param("2 x\n1 2\n2 3\n", "malformed hMetis header",
                 id="non-int-header"),
    pytest.param("1 3\n1 2\n2 3\n", "more lines than the 1 net lines",
                 id="trailing-net-line"),
    pytest.param("1 3 10\n1 2\n5\n5\n5\n7\n",
                 "more lines than the 1 net lines and 3 node weight lines",
                 id="trailing-weight-line"),
    pytest.param("2 3 1\n5\n1 2 3\n", "net 0: no pins",
                 id="net-without-pins"),
]


@pytest.mark.parametrize("text, message", BAD_HMETIS)
def test_transpose_rejects_what_the_reader_rejects(tmp_path, text, message):
    hmetis = write(tmp_path, "nets.hgr", text)
    with pytest.raises(FormatError, match=re.escape(message)):
        transpose_hmetis(hmetis, str(tmp_path / "nodes.hgr"))


def test_partition_io(tmp_path):
    path = str(tmp_path / "part.txt")
    write_partition(path, [0, 3, 1, 1])
    assert read_partition(path, 4) == [0, 3, 1, 1]
    assert read_partition(path, 4, 4) == [0, 3, 1, 1]


@pytest.mark.parametrize("n, k, text", [
    (4, None, "0\n1\n1\n"),          # too few ids
    (2, None, "0\n1\n1\n"),          # too many ids
    (3, 2, "0\n2\n1\n"),             # id >= k
    (3, None, "0\n-1\n1\n"),         # negative id
    (3, None, "0\nx\n1\n"),          # not an integer
])
def test_partition_file_must_match_n_and_k(tmp_path, n, k, text):
    path = write(tmp_path, "part.txt", text)
    with pytest.raises(FormatError, match=re.escape(path)) as raised:
        read_partition(path, n, k)
    if "x" in text:
        assert f"{path}: line 2: 'x' is not an integer" in str(raised.value)


def test_write_graph_round_trip(tmp_path):
    path = str(tmp_path / "g.graph")
    write_graph(path, 4, [(0, 1, 2), (1, 2, 1), (0, 3, 1)])
    stream = open_graph_stream(path)
    assert stream.header.m == 3
    records = list(stream_records(stream))
    assert (records[0].ids, records[0].weights) == ([1, 3], [2, 1])
