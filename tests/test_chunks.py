"""The column readers: ``NodeStream.chunks()`` gives the spool columns a
test builds its records from, ``MemoryStream.chunks()`` the parse's chunks
it keeps (or, from records, their columns in one chunk), and the cut-net
and connectivity check that walks them counts what a per-record recount
counts."""

import operator
import random
from itertools import chain

import pytest

from streamdecomp import cli, streams
from streamdecomp.freight import run_freight
from streamdecomp.heistream import HeiStreamConfig, run_heistream
from streamdecomp.metrics import cut_net_and_connectivity, edge_cut
from streamdecomp.onepass import FennelParams, OnePassConfig, run_restream
from streamdecomp.partition import PartitionState
from streamdecomp.streams import FormatError, MemoryStream, \
    StreamedNodeRecord, StreamHeader, _write_node_lines, \
    open_hypergraph_node_stream

from generators import random_hypergraph
from reference import chunk_records, record_cut_net_and_connectivity, \
    stream_records
from test_spool import FILES, opener, spool_dir, spools  # noqa: F401


def rebuilt(chunks):
    return [record for columns in chunks for record in chunk_records(*columns)]


@pytest.mark.parametrize("kind, text", FILES)
def test_parse_replay_and_no_spool_chunks_rebuild_the_records(
        tmp_path, spool_dir, monkeypatch, kind, text):  # noqa: F811
    monkeypatch.setattr(streams, "SPOOL_CHUNK", 2)
    path = tmp_path / "in.txt"
    path.write_text(text)
    stream = opener(kind)(str(path))
    parsed = list(stream.chunks())            # the spooling parse
    assert [columns[0] for columns in parsed] == [0, 2, 4]
    assert len(spools(spool_dir)) == 1
    path.write_text("garbage\n")
    replayed = list(stream.chunks())          # the replay
    assert [list(c[1]) for c in replayed] == [list(c[1]) for c in parsed]
    assert rebuilt(replayed) == rebuilt(parsed) == list(stream_records(stream))
    path.write_text(text)
    bare = opener(kind)(str(path), spool=False)
    assert rebuilt(bare.chunks()) == rebuilt(parsed)
    assert spools(spool_dir) != []
    stream.close()
    assert spools(spool_dir) == []


def test_a_bad_line_yields_its_chunks_good_prefix_then_raises(
        tmp_path, spool_dir, monkeypatch):  # noqa: F811
    monkeypatch.setattr(streams, "SPOOL_CHUNK", 3)
    path = tmp_path / "in.hgr"
    path.write_text("6 3 8\n1\n1 2\n2\n3 1\n2 x\n3\n")   # node 4 is bad
    stream = open_hypergraph_node_stream(str(path))
    chunks = stream.chunks()
    columns = [next(chunks), next(chunks)]
    assert [c[0] for c in columns] == [0, 3]
    assert list(columns[1][1]) == [2]         # node 3 only, then the fault
    with pytest.raises(FormatError) as from_chunks:
        next(chunks)
    records = []
    with pytest.raises(FormatError) as from_records:
        for record in stream_records(stream):
            records.append(record)
    assert str(from_chunks.value) == str(from_records.value) == \
        "node 4: 'x' is not an integer"
    assert records == rebuilt(columns)
    assert spools(spool_dir) == []


def test_an_abandoned_chunk_parse_frees_its_spool(tmp_path, spool_dir,
                                                  monkeypatch):  # noqa: F811
    monkeypatch.setattr(streams, "SPOOL_CHUNK", 2)
    path = tmp_path / "in.hgr"
    path.write_text("5 3 6\n1\n1 2\n\n2 3\n3\n")
    stream = open_hypergraph_node_stream(str(path))
    chunks = stream.chunks()
    next(chunks)
    assert len(spools(spool_dir)) == 1
    chunks.close()
    assert spools(spool_dir) == []


def joined(chunks):
    """Each column over all chunks, joined; None where the chunks have
    none."""
    return [None if column[0] is None else list(chain.from_iterable(column))
            for column in zip(*(c[1:] for c in chunks))]


@pytest.mark.parametrize("kind, text", FILES)
def test_memory_stream_chunk_has_the_parsed_columns(tmp_path, spool_dir,
                                                    monkeypatch, kind,
                                                    text):  # noqa: F811
    # the kept chunks are the parse's own objects, on every call
    monkeypatch.setattr(streams, "SPOOL_CHUNK", 2)
    path = tmp_path / "in.txt"
    path.write_text(text)
    stream = opener(kind)(str(path))
    parsed = list(stream.chunks())
    memory = MemoryStream(stream.header, parsed)
    first, again = list(memory.chunks()), list(memory.chunks())
    assert len(first) == 3
    assert all(map(operator.is_, first, parsed))
    assert all(map(operator.is_, again, parsed))
    assert list(stream_records(memory)) == list(stream_records(memory)) \
        == list(stream_records(stream))   # from the replay
    one = list(MemoryStream.from_records(stream.header,
                                         list(stream_records(memory)))
               .chunks())
    assert [columns[0] for columns in one] == [0]
    assert joined(one) == joined(parsed)   # weights where the flags say
    assert rebuilt(one) == rebuilt(parsed)
    assert list(MemoryStream.from_records(stream.header, []).chunks()) == []
    stream.close()


def test_memory_stream_builds_its_chunk_once():
    # from_records reads the header's flags once, at construction
    records = [StreamedNodeRecord(i, 1 + i, [i % 2], [2]) for i in range(3)]
    header = StreamHeader(3, 2, 3)
    stream = MemoryStream.from_records(header, records)
    first, = stream.chunks()
    header.has_item_weights = header.has_node_weights = True   # new flags
    records[0].ids = [1]                                       # new ids
    again, = stream.chunks()
    assert again is first and first[1:] == ([1, 1, 1], [0, 1, 0], None, None)
    weighted, = MemoryStream.from_records(header, records).chunks()
    assert weighted[1:] == ([1, 1, 1], [1, 1, 0], [2, 2, 2], [1, 2, 3])


@pytest.mark.parametrize("command, flags, text, total", [
    ("hpartition", ["--k", "3"], "6 4 9 11\n2 1 2\n3 1 2 2 1\n"
     "1 2 1 3 3\n2 3 3\n1 3 3 4 1\n4 4 1\n", 13),
    ("map", ["--hierarchy", "2:2", "--distances", "1:10"],
     "4 4 10\n2 2 4\n1 1 3\n3 2 4\n1 1 3\n", 7),
    ("partition", ["--k", "2", "--passes", "3"],
     "4 4 10\n2 2 4\n1 1 3\n3 2 4\n1 1 3\n", 7),
    ("partition", ["--k", "2", "--algorithm", "oms"],
     "4 4\n2 4\n1 3\n2 4\n1 3\n", 4)],
    ids=["hpartition", "map", "partition", "partition-oms"])
def test_a_time_core_run_and_its_verification_build_no_record(
        tmp_path, monkeypatch, command, flags, text, total):
    # the preload keeps the parse's chunks, two nodes each: c(V) sums their
    # node weight columns, and neither the run nor its verification (the
    # cut or cut-net and connectivity, the imbalance of node weights) builds
    # a record or flattens one
    monkeypatch.setattr(streams, "SPOOL_CHUNK", 2)
    args = cli._parser().parse_args([command, "--input", "-", *flags])
    algorithm = cli._algorithm(args)
    kind, run = cli.ALGORITHMS[algorithm]
    totals = []

    def timed(spec, stream, state, *rest):
        totals.append(state.total_weight)
        return run(spec, stream, state, *rest)

    def refused(*args, **kwargs):
        raise AssertionError("a record was built or flattened")
    monkeypatch.setattr(StreamedNodeRecord, "__init__", refused)
    monkeypatch.setattr(MemoryStream, "from_records", refused)
    monkeypatch.setitem(cli.ALGORITHMS, algorithm, (kind, timed))
    path = tmp_path / "in.txt"
    path.write_text(text)
    assert cli.main([command, "--input", str(path), *flags, "--time-core",
                     "--metrics-json", str(tmp_path / "m.json")]) == 0
    assert totals == [total]


@pytest.mark.parametrize("ids, message", [
    ((0, 1, 3, 4), "record 2 has id 3, not 2"),    # a gap
    ((0, 2, 1, 3), "record 1 has id 2, not 1"),    # out of order
    ((1, 2, 3, 4), "record 0 has id 1, not 0")],
    ids=["gap", "out-of-order", "shifted"])
def test_memory_stream_names_a_record_out_of_place(ids, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        MemoryStream.from_records(StreamHeader(5, 2, 4),
                                  [StreamedNodeRecord(i, 1, [i % 2], [1])
                                   for i in ids])


@pytest.mark.parametrize("header, rows", [
    (StreamHeader(3, 2, 4), [[1], [0, -1], [1]]),      # path 0-1-2, edge 1-2
    (StreamHeader(3, 2, 5, has_item_weights=True),
     [[0], [0, -1], [-2, 1]])],                        # nets 0 and 1
    ids=["graph", "hypergraph"])
def test_memory_stream_names_a_record_with_a_negative_id(header, rows):
    # -1 would read the last node's block, or the block of net m-1
    records = [StreamedNodeRecord(v, 1, ids, [2] * len(ids))
               for v, ids in enumerate(rows)]
    with pytest.raises(ValueError, match="^record 1 lists negative id -1$"):
        MemoryStream.from_records(header, records)


def test_memory_stream_refuses_records_for_chunks():
    # a record is no chunk of columns: each first reader fails to unpack
    # it, before any node is placed
    records = [StreamedNodeRecord(i, 1, [1 - i], [1]) for i in range(2)]
    stream = MemoryStream(StreamHeader(2, 1, 2), records)
    params = FennelParams(alpha=1.0)
    for run in (lambda state: run_restream(
                    stream, OnePassConfig("ldg", passes=2), state, params),
                lambda state: run_heistream(
                    stream, HeiStreamConfig(delta=2), state, params),
                lambda state: run_freight(stream, state, params, "cutnet"),
                lambda state: edge_cut(stream, [0, 1])):
        state = PartitionState(2, 2, 0.03, 2)
        with pytest.raises(TypeError, match="unpack"):
            run(state)
        assert state.assignment == [-1, -1]
    assert list(MemoryStream(StreamHeader(2, 1, 2), []).chunks()) == []


def write_hypergraph(path, stream):
    header = stream.header
    records = list(stream_records(stream))
    _write_node_lines(str(path), [header.n, header.m, header.pins],
                      [r.weight for r in records]
                      if header.has_node_weights else None,
                      [r.ids for r in records], [r.weights for r in records],
                      header.has_item_weights)


@pytest.mark.parametrize("max_net_weight", [1, 5])
@pytest.mark.parametrize("max_node_weight", [1, 4])
def test_column_walk_equals_a_record_recount(tmp_path, monkeypatch,
                                             max_net_weight,
                                             max_node_weight):
    # several chunks, the last one short; k past 64 (masks of many digits)
    monkeypatch.setattr(streams, "SPOOL_CHUNK", 16)
    rng = random.Random(100 * max_net_weight + max_node_weight)
    for k in (2, 7, 64, 65, 300):
        n = rng.randint(40, 90)
        memory = random_hypergraph(rng, n, rng.randint(30, 80), max_pins=6,
                                   max_net_weight=max_net_weight,
                                   max_node_weight=max_node_weight)
        path = tmp_path / f"h{k}.hgr"
        write_hypergraph(path, memory)
        stream = open_hypergraph_node_stream(str(path))
        assert stream.header == memory.header
        blocks = [rng.randrange(k) for _ in range(n)]
        expected = record_cut_net_and_connectivity(
            list(stream_records(memory)), blocks,
            memory.header.has_item_weights)
        assert cut_net_and_connectivity(stream, blocks) == expected  # parse
        assert cut_net_and_connectivity(stream, blocks) == expected  # replay
        assert cut_net_and_connectivity(memory, blocks) == expected
        stream.close()


def test_net_weight_mismatch_in_a_file_is_a_format_error(tmp_path,
                                                         monkeypatch):
    # net 2 weighs 3 at node 1 and 5 at node 4, two chunks later
    monkeypatch.setattr(streams, "SPOOL_CHUNK", 2)
    path = tmp_path / "in.hgr"
    path.write_text("5 2 4 1\n1 1\n2 3\n\n1 1\n2 5\n")
    stream = open_hypergraph_node_stream(str(path))
    for _ in range(2):                        # the parse, then the replay
        with pytest.raises(FormatError,
                           match="^node 4: net 2 weighs 5 here but 3 at an "
                                 "earlier pin$"):
            cut_net_and_connectivity(stream, [0, 1, 0, 1, 0])
    stream.close()
