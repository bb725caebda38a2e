import re

import pytest

from streamdecomp.streams import (FormatError, open_graph_stream,
                                  open_hypergraph_node_stream, read_partition,
                                  transpose_hmetis, write_graph,
                                  write_partition)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_plain_metis_file(tmp_path):
    # 1-based file: node 1 <-> node 2, node 2 <-> node 3
    path = write(tmp_path, "g.graph", "3 2\n2\n1 3\n2\n")
    stream = open_graph_stream(path)
    assert stream.header.n == 3 and stream.header.m == 2
    records = list(stream)
    assert [r.id for r in records] == [0, 1, 2]
    assert (records[0].ids, records[0].weights) == ([1], [1])
    assert (records[1].ids, records[1].weights) == ([0, 2], [1, 1])
    assert (records[2].ids, records[2].weights) == ([1], [1])
    assert all(r.weight == 1 for r in records)


def test_metis_weight_flags(tmp_path):
    # fmt=11: node weight first, then (neighbor, edge weight) pairs
    path = write(tmp_path, "g.graph", "2 1 11\n5 2 7\n3 1 7\n")
    records = list(open_graph_stream(path))
    assert records[0].weight == 5 and records[1].weight == 3
    assert (records[0].ids, records[0].weights) == ([1], [7])
    assert (records[1].ids, records[1].weights) == ([0], [7])

    # fmt=1: edge weights only
    path = write(tmp_path, "g2.graph", "2 1 1\n2 4\n1 4\n")
    records = list(open_graph_stream(path))
    assert records[0].weight == 1
    assert (records[0].ids, records[0].weights) == ([1], [4])

    # fmt=10: node weights only
    path = write(tmp_path, "g3.graph", "2 1 10\n9 2\n4 1\n")
    records = list(open_graph_stream(path))
    assert records[0].weight == 9
    assert (records[0].ids, records[0].weights) == ([1], [1])


def test_comment_lines_skipped(tmp_path):
    path = write(tmp_path, "g.graph", "% a comment\n3 2\n% another\n2\n1 3\n2\n")
    assert len(list(open_graph_stream(path))) == 3


def test_trailing_blank_and_comment_lines_accepted(tmp_path):
    graph = write(tmp_path, "g.graph", "3 2\n2\n1 3\n2\n\n% end\n\n")
    assert len(list(open_graph_stream(graph))) == 3
    hyper = write(tmp_path, "h.hgr", "2 1 2\n1\n1\n% end\n\n")
    assert len(list(open_hypergraph_node_stream(hyper))) == 2
    hmetis = write(tmp_path, "nets.hgr", "1 3 10\n1 2\n5\n5\n5\n\n% end\n")
    assert transpose_hmetis(hmetis, str(tmp_path / "nodes.hgr")).n == 3


def test_neighbor_out_of_range(tmp_path):
    path = write(tmp_path, "g.graph", "3 2\n2\n1 9\n2\n")
    with pytest.raises(FormatError, match="neighbor out of range"):
        list(open_graph_stream(path))


def test_edge_count_mismatch(tmp_path):
    path = write(tmp_path, "g.graph", "3 5\n2\n1 3\n2\n")
    with pytest.raises(FormatError, match="edge-count mismatch"):
        list(open_graph_stream(path))


def test_self_loop_rejected(tmp_path):
    path = write(tmp_path, "g.graph", "2 1\n1\n1\n")
    with pytest.raises(FormatError, match="self-loop"):
        list(open_graph_stream(path))


def test_header_available_before_records(tmp_path):
    path = write(tmp_path, "g.graph", "3 2\n2\n1 3\n2\n")
    stream = open_graph_stream(path)
    assert stream.header.n == 3  # before consuming any record


def test_node_major_hypergraph(tmp_path):
    # n=3 nodes, m=2 nets; node 0 in net 1, node 1 in nets 1,2, node 2 in net 2
    path = write(tmp_path, "h.hgr", "3 2 4\n1\n1 2\n2\n")
    stream = open_hypergraph_node_stream(path)
    assert (stream.header.n, stream.header.m, stream.header.pins) == (3, 2, 4)
    records = list(stream)
    assert (records[0].ids, records[0].weights) == ([0], [1])
    assert (records[1].ids, records[1].weights) == ([0, 1], [1, 1])
    assert (records[2].ids, records[2].weights) == ([1], [1])


def test_isolated_hypergraph_node(tmp_path):
    # the blank middle line is node 1 with an empty incident list
    path = write(tmp_path, "h.hgr", "3 1 2\n1\n\n1\n")
    records = list(open_hypergraph_node_stream(path))
    assert len(records) == 3
    assert (records[1].ids, records[1].weights) == ([], [])
    assert (records[0].ids, records[0].weights) == ([0], [1])


def test_isolated_graph_node(tmp_path):
    path = write(tmp_path, "g.graph", "3 1\n2\n1\n\n")
    records = list(open_graph_stream(path))
    assert (records[2].ids, records[2].weights) == ([], [])


def test_net_id_out_of_range(tmp_path):
    path = write(tmp_path, "h.hgr", "2 1 2\n1\n2\n")
    with pytest.raises(FormatError, match="net id out of range"):
        list(open_hypergraph_node_stream(path))


def test_pin_count_mismatch(tmp_path):
    path = write(tmp_path, "h.hgr", "2 1 5\n1\n1\n")
    with pytest.raises(FormatError, match="pin-count mismatch"):
        list(open_hypergraph_node_stream(path))


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


@pytest.mark.parametrize("kind, text, message", MALFORMED)
def test_malformed_node_file(tmp_path, kind, text, message):
    path = write(tmp_path, "in.txt", text)
    opener = open_graph_stream if kind == "graph" \
        else open_hypergraph_node_stream
    with pytest.raises(FormatError, match=re.escape(message)):
        list(opener(path))


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
    for record in open_hypergraph_node_stream(out):
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
    records = list(open_hypergraph_node_stream(out))
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
    records = list(stream)
    assert (records[0].ids, records[0].weights) == ([1, 3], [2, 1])
