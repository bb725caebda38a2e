"""The binary spool: a stream parses its text once and later passes replay
the columns it spooled, with the same records, the same errors and no file
left behind."""

import gc
import json
import os
import signal
import subprocess
import sys
import tempfile
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

import pytest

from streamdecomp import cli, onepass, streams
from streamdecomp.heistream import HeiStreamConfig, run_heistream
from streamdecomp.onepass import OnePassConfig, run_restream
from streamdecomp.streams import FormatError, open_graph_stream, \
    open_hypergraph_node_stream

from generators import graph_stream_from_edges, run_setup
from reference import stream_records
from test_streams import MALFORMED


@pytest.fixture
def spool_dir(tmp_path, monkeypatch):
    """The spools of the test: the fresh temporary directory they go to and
    every handle ``tempfile.TemporaryFile`` returned."""
    directory = tmp_path / "spool"
    directory.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(directory))
    made = []
    temporary_file = tempfile.TemporaryFile

    def recorded(*args, **kwargs):
        made.append(temporary_file(*args, **kwargs))
        return made[-1]
    monkeypatch.setattr(tempfile, "TemporaryFile", recorded)
    return SimpleNamespace(directory=directory, made=made)


def spools(spool_dir):
    """The spool handles not closed yet; no spool has a name to delete."""
    assert list(spool_dir.directory.iterdir()) == []
    return [handle for handle in spool_dir.made if not handle.closed]


# Every fmt of both formats, with % comments, blank (isolated-node) lines
# and more nodes than one spool chunk holds (the chunk is set to 2 below).
FILES = [
    pytest.param("graph", "% c\n5 3\n2\n1 4\n\n% c\n2 5\n4\n",
                 id="graph-fmt-0"),
    pytest.param("graph", "5 3 1\n2 7\n1 7 4 3\n\n2 3 5 2\n4 2\n",
                 id="graph-fmt-1"),
    pytest.param("graph", "5 3 10\n4 2\n1 1 4\n% c\n9\n2 2 5\n1 4\n",
                 id="graph-fmt-10"),
    pytest.param("graph", "5 3 11\n4 2 5\n1 1 5 4 6\n9\n2 2 6 5 1\n"
                 "1 4 1\n\n", id="graph-fmt-11"),
    pytest.param("hyper", "5 3 6\n1\n1 2\n% c\n\n2 3\n3\n",
                 id="hyper-fmt-0"),
    pytest.param("hyper", "5 3 6 1\n1 4\n1 4 2 9\n\n2 9 3 2\n3 2\n",
                 id="hyper-fmt-1"),
    pytest.param("hyper", "5 3 6 10\n2 1\n3 1 2\n1\n% c\n7 2 3\n1 3\n",
                 id="hyper-fmt-10"),
    pytest.param("hyper", "5 3 6 11\n2 1 4\n3 1 4 2 9\n1\n7 2 9 3 2\n"
                 "1 3 2\n\n", id="hyper-fmt-11"),
]


def opener(kind):
    return open_graph_stream if kind == "graph" \
        else open_hypergraph_node_stream


@pytest.mark.parametrize("kind, text", FILES)
def test_replay_equals_parse(tmp_path, spool_dir, monkeypatch, kind, text):
    monkeypatch.setattr(streams, "SPOOL_CHUNK", 2)
    path = tmp_path / "in.txt"
    path.write_text(text)
    stream = opener(kind)(str(path))
    parsed = list(stream_records(stream))
    assert len(spools(spool_dir)) == 1
    # Later passes read the spool, not the text.
    path.write_text("garbage\n")
    assert list(stream_records(stream)) == parsed
    assert list(stream_records(stream)) == parsed
    path.write_text(text)
    assert parsed == list(stream_records(opener(kind)(str(path), spool=False)))
    stream.close()
    assert spools(spool_dir) == []


def test_abandoned_iteration_leaves_no_spool(tmp_path, spool_dir,
                                             monkeypatch):
    monkeypatch.setattr(streams, "SPOOL_CHUNK", 2)
    path = tmp_path / "g.graph"
    path.write_text("5 4\n2\n1 3\n2 4\n3 5\n4\n")
    stream = open_graph_stream(str(path))
    it = stream_records(stream)
    first = [next(it), next(it), next(it)]
    assert [r.ids for r in first] == [[1], [0, 2], [1, 3]]
    assert len(spools(spool_dir)) == 1     # the parse's own
    it.close()
    assert spools(spool_dir) == []
    # The same graph with each neighbor list reversed: only a parse of the
    # text sees the new order.
    path.write_text("5 4\n2\n3 1\n4 2\n5 3\n4\n")
    records = list(stream_records(stream))   # parses the text again
    assert [r.ids for r in records] == [[1], [2, 0], [3, 1], [4, 2], [3]]
    path.write_text("garbage\n")
    assert list(stream_records(stream)) == records   # and now replays
    stream.close()
    assert spools(spool_dir) == []


@pytest.mark.parametrize(
    "kind, text, message",
    [p for p in MALFORMED if p.values[1].count("\n") > 1])
def test_malformed_file_fails_on_every_iteration(tmp_path, spool_dir, kind,
                                                 text, message):
    path = tmp_path / "in.txt"
    path.write_text(text)
    try:
        stream = opener(kind)(str(path))
    except FormatError:
        return                             # a bad header: nothing to spool
    for _ in range(3):
        with pytest.raises(FormatError) as raised:
            list(stream_records(stream))
        assert message in str(raised.value)
        assert spools(spool_dir) == []


def test_close_deletes_the_spool(tmp_path, spool_dir):
    path = tmp_path / "h.hgr"
    path.write_text("3 2 4\n1\n1 2\n2\n")
    stream = open_hypergraph_node_stream(str(path))
    records = list(stream_records(stream))
    assert len(spools(spool_dir)) == 1
    stream.close()
    assert spools(spool_dir) == []
    assert list(stream_records(stream)) == records   # parses, spools again
    stream.close()
    assert spools(spool_dir) == []


def test_close_during_a_parse_keeps_nothing(tmp_path, spool_dir):
    path = tmp_path / "g.graph"
    path.write_text("3 2\n2\n1 3\n2\n")
    stream = open_graph_stream(str(path))
    it = stream_records(stream)
    next(it)
    stream.close()
    assert len(spools(spool_dir)) == 1     # the running parse's own
    rest = list(it)                        # the parse still completes
    assert [r.id for r in rest] == [1, 2]
    assert stream._kept is None and spools(spool_dir) == []


def test_value_too_large_for_the_spool_reparses(tmp_path, spool_dir):
    path = tmp_path / "g.graph"
    path.write_text(f"2 1 11\n{2 ** 40} 2 {2 ** 35}\n1 1 {2 ** 35}\n")
    stream = open_graph_stream(str(path))
    records = list(stream_records(stream))
    assert records[0].weight == 2 ** 40 and records[1].weights == [2 ** 35]
    assert spools(spool_dir) == []
    # Nothing was spooled, so the next pass parses the text again.
    path.write_text(f"2 1 11\n{2 ** 41} 2 {2 ** 36}\n1 1 {2 ** 36}\n")
    again = list(stream_records(stream))
    assert again[0].weight == 2 ** 41 and again[1].weights == [2 ** 36]
    assert [r.ids for r in again] == [r.ids for r in records]


def _cli_runs(tmp_path, inputs, core=()):
    """Partition, restream, HeiStream, map and hpartition runs on the plain
    and on the weighted inputs, each with the flags ``core`` (``--time-core``
    or none), and metrics recounts: their partition files and metrics
    without run times and the ``time_core`` flag."""
    out = {}
    for tag, graph, hyper in (("", *inputs[:2]), ("weighted-", *inputs[2:])):
        for name, argv in (
                ("refennel", ["partition", "--input", graph, "--k", "3",
                              "--passes", "3"]),
                ("reldg", ["partition", "--input", graph, "--k", "3",
                           "--algorithm", "ldg", "--passes", "3"]),
                ("heistream", ["partition", "--input", graph, "--k", "3",
                               "--algorithm", "heistream", "--passes", "2",
                               "--delta", "20"]),
                ("map", ["map", "--input", graph, "--hierarchy", "2:2",
                         "--distances", "1:10"]),
                ("freight", ["hpartition", "--input", hyper, "--k", "3"])):
            part = tmp_path / f"{tag}{name}.part"
            mjson = tmp_path / f"{tag}{name}.json"
            assert cli.main([*argv, *core, "--output", str(part),
                             "--metrics-json", str(mjson)]) == 0
            report = json.loads(mjson.read_text())
            for key in ("runtime_ms", "runtime_total_ms", "runtime_core_ms"):
                report.pop(key)
            report["runspec"].pop("time_core")
            out[tag + name] = (part.read_text(), report)
    for name, path, kind in (("refennel", inputs[0], []),
                             ("weighted-refennel", inputs[2], []),
                             ("weighted-freight", inputs[3],
                              ["--hypergraph"])):
        mjson = tmp_path / f"metrics-{name}.json"
        assert cli.main(["metrics", "--input", path, "--partition",
                         str(tmp_path / f"{name}.part"), "--k", "3", *kind,
                         "--metrics-json", str(mjson)]) == 0
        recount = out["metrics-" + name] = json.loads(mjson.read_text())
        for key in ("edge_cut", "cut_net", "connectivity", "imbalance"):
            assert recount[key] == out[name][1][key]
    return out


@pytest.fixture
def cli_inputs(tmp_path):
    """A graph, a hypergraph with net weights, and their twins with node
    weights too (fmt 11)."""
    n = 60
    edges = sorted({(min(u, v), max(u, v)) for u in range(n)
                    for v in ((u + 1) % n, (u + 7) % n, (u * 5 + 3) % n)
                    if u != v})
    lines = [[] for _ in range(n)]
    for u, v in edges:
        lines[u].append(v + 1)
        lines[v].append(u + 1)
    graph = tmp_path / "g.graph"
    graph.write_text(f"{n} {len(edges)}\n"
                     + "".join(" ".join(map(str, ids)) + "\n"
                               for ids in lines))
    weighted_graph = tmp_path / "w.graph"
    weighted_graph.write_text(
        f"{n} {len(edges)} 11\n"
        + "".join(" ".join(map(str, [1 + u % 4, *(
            t for v in ids for t in (v, 1 + (u + v) % 3))])) + "\n"
            for u, ids in enumerate(lines, 1)))
    hyper = tmp_path / "h.hgr"
    hyper.write_text("6 4 9 1\n1 2\n1 2 2 1\n2 1 3 3\n3 3\n3 3 4 1\n4 1\n")
    weighted_hyper = tmp_path / "w.hgr"
    weighted_hyper.write_text("6 4 9 11\n2 1 2\n3 1 2 2 1\n1 2 1 3 3\n"
                              "2 3 3\n1 3 3 4 1\n4 4 1\n")
    return str(graph), str(hyper), str(weighted_graph), str(weighted_hyper)


def test_cli_results_without_a_spool(tmp_path, spool_dir, monkeypatch,
                                     cli_inputs):
    spooled = _cli_runs(tmp_path, cli_inputs)
    assert spool_dir.made and spools(spool_dir) == []
    made = len(spool_dir.made)

    def no_file(*args, **kwargs):
        raise OSError("no temporary file")
    monkeypatch.setattr(tempfile, "TemporaryFile", no_file)
    assert _cli_runs(tmp_path, cli_inputs) == spooled
    assert len(spool_dir.made) == made


def test_time_core_changes_no_result(tmp_path, cli_inputs):
    # the preloaded records' columns and block weights are the file's
    assert _cli_runs(tmp_path, cli_inputs, ["--time-core"]) == \
        _cli_runs(tmp_path, cli_inputs)


def test_no_spool_survives_a_failing_run(tmp_path, spool_dir, monkeypatch,
                                         capsys, cli_inputs):
    graph = cli_inputs[0]
    # exit 2 in the middle of the first parse
    bad = tmp_path / "bad.graph"
    bad.write_text("4 3\n2\n1 3\n2 4\nx\n")
    assert cli.main(["partition", "--input", str(bad), "--k", "2",
                     "--passes", "3"]) == 2
    # exit 2 in the verification pass, after a complete parse
    bad.write_text("3 1\n2\n3\n\n")
    assert cli.main(["partition", "--input", str(bad), "--k", "2",
                     "--algorithm", "heistream", "--passes", "2"]) == 2
    assert spools(spool_dir) == []

    # exit 3 from inside the kernel, with the first parse suspended and
    # then with a replay suspended: chunks of 4 of the 60 nodes
    seen = []
    fennel_assign = onepass.fennel_assign

    def broken(chunk, state, params, pen, restream=False):
        seen.append(list(range(chunk[0], chunk[0] + len(chunk[1]))))
        if len(seen) in (2, 19):
            raise IndexError("list index out of range")
        fennel_assign(chunk, state, params, pen, restream)
    monkeypatch.setattr(onepass, "fennel_assign", broken)
    monkeypatch.setattr(streams, "SPOOL_CHUNK", 4)
    for _ in range(2):
        assert cli.main(["partition", "--input", graph, "--k", "2",
                         "--passes", "3"]) == 3
        assert spools(spool_dir) == []
    # the first run failed at its second chunk, the second at the second
    # chunk of its second pass (its 17th kernel call)
    assert seen[1] == seen[-1] == [4, 5, 6, 7] and len(seen) == 19
    assert "internal invariant failure" in capsys.readouterr().err


def test_restreaming_rejects_a_one_shot_iterator():
    # a stream is a header plus chunks(): an iterator of records has
    # neither, and fails at the first chunks() call, before any placement
    stream = graph_stream_from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    state, params = run_setup(stream, 2)
    with pytest.raises(AttributeError, match="chunks"):
        run_restream(stream_records(stream),
                     OnePassConfig("fennel", passes=2), state, params)
    with pytest.raises(AttributeError, match="chunks"):
        run_restream(iter(list(stream_records(stream))),
                     OnePassConfig("ldg", passes=3), state, params)
    with pytest.raises(AttributeError, match="chunks"):
        run_heistream(stream_records(stream),
                      HeiStreamConfig(delta=2, passes=2), state, params)
    assert all(b == -1 for b in state.assignment)   # nothing ran


def test_time_core_preload_writes_no_spool(tmp_path, spool_dir, cli_inputs):
    graph = cli_inputs[0]
    out = Path(tmp_path / "m.json")
    assert cli.main(["partition", "--input", graph, "--k", "2", "--passes",
                     "3", "--time-core", "--metrics-json", str(out)]) == 0
    assert spool_dir.made == []
    assert cli.main(["partition", "--input", graph, "--k", "2", "--passes",
                     "3", "--metrics-json", str(out)]) == 0
    assert len(spool_dir.made) == 1        # one spool for four passes
    assert spools(spool_dir) == []


def test_a_parse_inside_a_parse_keeps_one_spool(tmp_path, spool_dir):
    path = tmp_path / "g.graph"
    path.write_text("3 2\n2\n1 3\n2\n")
    stream = open_graph_stream(str(path))
    outer = []
    for record in stream_records(stream):
        outer.append(record)
        if record.id == 0:
            inner = list(stream_records(stream))   # completes first, is kept
            assert len(spools(spool_dir)) == 2
    assert outer == inner
    assert len(spools(spool_dir)) == 1     # the outer one replaced it
    assert list(stream_records(stream)) == outer
    stream.close()
    assert spools(spool_dir) == []


def path_graph(n):
    return f"{n} {n - 1}\n" + "".join(
        " ".join(str(v) for v in (u, u + 2) if 1 <= v <= n) + "\n"
        for u in range(n))


# A spool larger than a read buffer too: replays share one file offset.
@pytest.mark.parametrize("kind, text", FILES + [
    pytest.param("graph", path_graph(3000), id="graph-3000-nodes")])
def test_interleaved_replays_are_equal(tmp_path, spool_dir, monkeypatch,
                                       kind, text):
    monkeypatch.setattr(streams, "SPOOL_CHUNK", 2)
    path = tmp_path / "in.txt"
    path.write_text(text)
    stream = opener(kind)(str(path))
    parsed = list(stream_records(stream))
    first, second = stream_records(stream), stream_records(stream)
    one = [next(first) for _ in range(3)]   # into the second chunk
    two = []
    for record in second:                   # one record of each in turn
        two.append(record)
        one.extend(islice(first, 1))
    assert one == parsed and two == parsed
    stream.close()
    assert spools(spool_dir) == []


@pytest.mark.parametrize("kind, text", FILES)
def test_close_during_a_replay_lets_it_finish(tmp_path, spool_dir,
                                              monkeypatch, kind, text):
    monkeypatch.setattr(streams, "SPOOL_CHUNK", 2)
    path = tmp_path / "in.txt"
    path.write_text(text)
    stream = opener(kind)(str(path))
    parsed = list(stream_records(stream))
    replay = stream_records(stream)
    head = [next(replay) for _ in range(3)]
    stream.close()
    assert spools(spool_dir) == []         # the replay reads its own handle
    assert head + list(replay) == parsed


@pytest.mark.parametrize("kind, text", FILES)
def test_a_replay_made_before_close_finishes(tmp_path, spool_dir,
                                             monkeypatch, kind, text):
    monkeypatch.setattr(streams, "SPOOL_CHUNK", 2)
    path = tmp_path / "in.txt"
    path.write_text(text)
    stream = opener(kind)(str(path))
    parsed = list(stream_records(stream))
    closed = stream_records(stream)   # not started before close()
    stream.close()
    stream = opener(kind)(str(path))
    list(stream_records(stream))
    collected = stream_records(stream)   # nor before the collection
    del stream
    gc.collect()
    assert spools(spool_dir) == []
    assert list(closed) == parsed
    assert list(collected) == parsed


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="no /proc/self/fd to count descriptors")
def test_replays_never_started_leave_no_descriptor(tmp_path, spool_dir):
    path = tmp_path / "g.graph"
    path.write_text("3 2\n2\n1 3\n2\n")
    stream = open_graph_stream(str(path))
    list(stream_records(stream))
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(100):
        stream_records(stream)
    gc.collect()
    assert len(os.listdir("/proc/self/fd")) == before
    stream.close()


def test_a_killed_process_leaves_no_spool(tmp_path):
    path = tmp_path / "g.graph"
    path.write_text("3 2\n2\n1 3\n2\n")
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    code = ("import os, signal, sys\n"
            "from streamdecomp.streams import open_graph_stream\n"
            "stream = open_graph_stream(sys.argv[1])\n"
            "list(stream.chunks())\n"
            "assert stream._kept is not None\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n")
    src = os.path.dirname(os.path.dirname(streams.__file__))
    env = dict(os.environ, TMPDIR=str(tmpdir), PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == -signal.SIGKILL, done.stderr
    assert list(tmpdir.iterdir()) == []
