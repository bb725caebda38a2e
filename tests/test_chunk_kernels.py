"""The chunk kernels of Fennel, LDG, FREIGHT and OMS against their record
oracles in tests/reference, chunk by chunk, on parsed files of every
``fmt``; and the runners, the metrics and every CLI command, with
``--time-core`` or without, read only ``stream.chunks()`` and build no
record."""

import functools
import json
import random
from itertools import islice

import pytest

from streamdecomp import cli, streams
from streamdecomp.freight import CUT, SortedBlocks, freight_assign, \
    run_freight
from streamdecomp.metrics import comm_cost, edge_cut
from streamdecomp.multisection import HierarchySpec, OmsConfig, \
    build_from_spec, build_hierarchy, oms_assign, run_oms
from streamdecomp.onepass import FennelParams, OnePassConfig, \
    fennel_assign, fennel_penalties, ldg_assign, ldg_free, run_onepass, \
    run_restream
from streamdecomp.streams import FormatError, MemoryStream, \
    StreamedNodeRecord, _write_node_lines, open_graph_stream, \
    open_hypergraph_node_stream

from generators import random_graph, random_hypergraph, run_setup
from reference import NetTracker, ScanMinBlock, batch_fennel_assign, \
    batch_ldg_assign, check_penalty_table, parse_node_lines, \
    record_comm_cost, record_cut_net_and_connectivity, record_edge_cut, \
    record_freight_assign, record_oms_assign, stream_records
from test_cli_bench import read_rows
from test_multisection import _internal_blocks

# fmt -> (item weights up to, node weights up to); the flags are written
# whatever the weights drawn, so an fmt-1 file may list only weights of 1
FMTS = {0: (1, 1), 1: (5, 1), 10: (1, 20), 11: (5, 20)}
CHUNK = 50
N = 2 * CHUNK + CHUNK // 2 + 3   # three chunks, the last one short


def write(path, memory, fmt: int, graph: bool) -> str:
    """``memory`` as a node-per-line file with the flags of ``fmt``."""
    header, records = memory.header, list(stream_records(memory))
    _write_node_lines(str(path), [header.n, header.m] if graph
                      else [header.n, header.m, header.pins],
                      [r.weight for r in records] if fmt >= 10 else None,
                      [r.ids for r in records], [r.weights for r in records],
                      fmt % 10 == 1)
    return str(path)


@functools.lru_cache(maxsize=None)
def _hypergraph(fmt: int):
    max_net_weight, max_node_weight = FMTS[fmt]
    return random_hypergraph(random.Random(f"chunk-h{fmt}"), N, 90,
                             max_pins=6, max_net_weight=max_net_weight,
                             max_node_weight=max_node_weight)


@functools.lru_cache(maxsize=None)
def _graph(fmt: int):
    max_edge_weight, max_node_weight = FMTS[fmt]
    return random_graph(random.Random(f"chunk-g{fmt}"), N, 3 * N,
                        max_edge_weight=max_edge_weight,
                        max_node_weight=max_node_weight)


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(streams, "SPOOL_CHUNK", CHUNK)


def _blocks_state(state):
    return state.assignment, state.block_weight, state.violations


def _chunks_and_records(stream, memory):
    """Each chunk of ``stream`` (the parse, then the replay), with the
    records of ``memory`` it covers."""
    records = stream_records(memory)
    for chunk in stream.chunks():
        yield chunk, list(islice(records, len(chunk[1])))


@pytest.mark.usefixtures("small_chunks")
class TestFreightLockstep:
    @pytest.mark.parametrize("fmt", sorted(FMTS))
    @pytest.mark.parametrize("objective", ["con", "cut"])
    def test_chunks_match_records(self, tmp_path, fmt, objective):
        memory = _hypergraph(fmt)
        stream = open_hypergraph_node_stream(
            write(tmp_path / "h.hgr", memory, fmt, graph=False))
        header = stream.header
        assert (header.has_item_weights, header.has_node_weights) == \
            (fmt % 10 == 1, fmt >= 10)
        cutnet = objective == "cut"
        unit = fmt < 10
        violations = chunks = 0
        for k in (2, 7, 64, 300):
            for epsilon in (0.0, 0.03):
                got, params = run_setup(memory, k, epsilon)
                expected, _ = run_setup(memory, k, epsilon)
                last_block, tracker = [-1] * header.m, NetTracker(header.m)
                blocks = SortedBlocks(k), SortedBlocks(k)
                least = blocks[1] if unit else \
                    ScanMinBlock(expected.block_weight)
                for chunk, records in _chunks_and_records(stream, memory):
                    freight_assign(chunk, got, last_block, blocks[0],
                                   cutnet, params)
                    for record in records:
                        record_freight_assign(record, expected, tracker,
                                              least, cutnet, params, unit)
                    where = (k, epsilon, chunk[0])
                    assert _blocks_state(got) == _blocks_state(expected), \
                        where
                    # CUT exactly where the three-state oracle's net is
                    # cut, under cut-net only; the last block elsewhere
                    assert last_block == tracker.kernel_last_block(cutnet), \
                        where
                    assert [(b.a, b.b, b.card, b.end) for b in blocks[:1]] \
                        == [(b.a, b.b, b.card, b.end) for b in blocks[1:]]
                    chunks += 1
                assert (CUT in last_block) == cutnet   # never under con
                assert got.assignment == run_freight(
                    stream, *run_setup(memory, k, epsilon),
                    "cutnet" if cutnet else "connectivity").assignment
                violations += got.violations
        assert chunks == 8 * 3
        assert (violations > 0) == (not unit)   # only weighted nodes overflow
        stream.close()


@pytest.mark.usefixtures("small_chunks")
class TestOnePassLockstep:
    """Fennel's and LDG's chunk kernels against the kernels that took a
    list of records, over three passes (ReFennel with alpha doubled per
    pass, ReLDG from cleared blocks): after every chunk the two states,
    their tables (``pen`` or ``free``; LDG's per-pass node counts too) and
    their violations agree."""

    @pytest.mark.parametrize("fmt", sorted(FMTS))
    @pytest.mark.parametrize("algorithm", ["fennel", "ldg"])
    def test_chunks_match_records(self, tmp_path, fmt, algorithm):
        memory = _graph(fmt)
        stream = open_graph_stream(
            write(tmp_path / "g.graph", memory, fmt, graph=True))
        header = stream.header
        assert (header.has_item_weights, header.has_node_weights) == \
            (fmt % 10 == 1, fmt >= 10)
        violations = chunks = 0
        for k in (2, 7, 64, 300):
            for epsilon in (0.0, 0.03):
                got, params = run_setup(memory, k, epsilon)
                expected, _ = run_setup(memory, k, epsilon)
                for p in range(3):
                    restream = p > 0
                    pass_params = FennelParams(params.gamma,
                                               params.alpha * 2.0 ** p)
                    if algorithm == "ldg":
                        if restream:
                            got.block_weight[:] = [0] * got.k
                            expected.block_weight[:] = [0] * expected.k
                        tables = [ldg_free(got.block_weight, got.l_max)
                                  for _ in range(2)]
                        counts = [[0] * k for _ in range(2)]
                    else:
                        tables = [fennel_penalties(got.block_weight,
                                                   pass_params)
                                  for _ in range(2)]
                    for chunk, records in _chunks_and_records(stream,
                                                              memory):
                        if algorithm == "ldg":
                            ldg_assign(chunk, got, tables[0], counts[0],
                                       restream)
                            batch_ldg_assign(records, expected, tables[1],
                                             counts[1], restream)
                            assert counts[0] == counts[1]
                        else:
                            fennel_assign(chunk, got, pass_params, tables[0],
                                          restream)
                            batch_fennel_assign(records, expected,
                                                pass_params, tables[1],
                                                restream)
                        where = (k, epsilon, p, chunk[0])
                        assert _blocks_state(got) == \
                            _blocks_state(expected), where
                        assert tables[0] == tables[1], where
                        chunks += 1
                assert got.assignment == run_restream(
                    stream, OnePassConfig(algorithm, passes=3),
                    *run_setup(memory, k, epsilon)).assignment
                violations += got.violations
        assert chunks == 8 * 3 * 3
        assert (violations > 0) == (fmt >= 10)   # only weighted nodes overflow
        stream.close()


@pytest.mark.usefixtures("small_chunks")
class TestColumnMetrics:
    """``edge_cut`` and ``comm_cost`` walk each chunk's columns and equal
    the sums over records in tests/reference, on the parse, its replay and
    the in-memory records."""

    @pytest.mark.parametrize("fmt", sorted(FMTS))
    def test_match_record_sums(self, tmp_path, fmt):
        memory = _graph(fmt)
        stream = open_graph_stream(
            write(tmp_path / "g.graph", memory, fmt, graph=True))
        records = list(stream_records(memory))
        flagged = MemoryStream.from_records(stream.header, records)
        rng = random.Random(f"metrics-{fmt}")
        for spec in ("2:4", "3:5:2", "64"):
            hierarchy = HierarchySpec.parse(spec, ":".join(
                str(rng.randint(1, 20) * 10 ** i)
                for i in range(spec.count(":") + 1)))
            k = hierarchy.k
            blocks = [rng.randrange(k) for _ in range(N)]
            perm = rng.sample(range(k), k)
            for assignment in (blocks, [perm[b] for b in blocks],
                               [b % 2 for b in blocks]):
                cut = record_edge_cut(records, assignment)
                expected = record_comm_cost(records, assignment, hierarchy)
                for source in (stream, stream, flagged):
                    assert edge_cut(source, assignment) == cut
                    assert comm_cost(source, assignment, hierarchy) == \
                        expected
        assert edge_cut(stream, [0] * N) == 0
        stream.close()

    def test_odd_doubled_cut_raises(self, tmp_path):
        # node 2 lists node 3, which lists no one: one entry, one side only
        path = tmp_path / "one-sided.graph"
        path.write_text("3 1\n2\n3\n\n")
        stream = open_graph_stream(str(path))
        memory = MemoryStream.from_records(
            stream.header, list(parse_node_lines(str(path), True)))
        hierarchy = HierarchySpec.parse("2", "1")
        for source in (stream, stream, memory):
            assert edge_cut(source, [0, 1, 0]) == 1   # two cut entries
            for metric in (lambda a: edge_cut(source, a),
                           lambda a: comm_cost(source, a, hierarchy)):
                with pytest.raises(FormatError, match="odd"):
                    metric([0, 0, 1])
        stream.close()


# tree name -> (k, the spec's fan-outs or the nh-OMS base)
TREES = {
    "spec 4:8:8": (256, "4:8:8"),
    "spec 2:3:5": (30, "2:3:5"),
    "nh k=37 b=3": (37, 3),
    "nh k=300 b=7": (300, 7),
}


def _tree(name):
    """k, the spec (None for nh-OMS), the tree builder from (l_max, alpha)
    and the OMS base of tree ``name``."""
    k, shape = TREES[name]
    if isinstance(shape, str):
        spec = HierarchySpec.parse(shape, ":".join(
            str(10 ** i) for i in range(shape.count(":") + 1)))
        return k, spec, lambda l_max, alpha: build_from_spec(
            spec, l_max, alpha), 4
    return k, None, lambda l_max, alpha: build_hierarchy(
        k, l_max, alpha, shape), shape


@pytest.mark.usefixtures("small_chunks")
class TestOmsLockstep:
    @pytest.mark.parametrize("fmt", sorted(FMTS))
    @pytest.mark.parametrize("tree", sorted(TREES))
    @pytest.mark.parametrize("scorer", ["fennel", "ldg"])
    def test_chunks_match_records(self, tmp_path, fmt, tree, scorer):
        memory = _graph(fmt)
        stream = open_graph_stream(
            write(tmp_path / "g.graph", memory, fmt, graph=True))
        k, spec, build, base = _tree(tree)
        violations = 0
        for hashed in (0, 1):
            config = OmsConfig(scorer=scorer, base=base,
                               hash_bottom_layers=hashed)
            for epsilon in (0.0, 0.5):
                got, params = run_setup(memory, k, epsilon)
                expected, _ = run_setup(memory, k, epsilon)
                roots = [build(got.l_max, params.alpha) for _ in range(2)]
                tree_blocks = [_internal_blocks(root) for root in roots]
                for chunk, records in _chunks_and_records(stream, memory):
                    oms_assign(chunk, roots[0], got, config, params)
                    for record in records:
                        record_oms_assign(record, roots[1], expected, config,
                                          params)
                    assert _blocks_state(got) == _blocks_state(expected), \
                        (hashed, epsilon, chunk[0])
                    assert [b.child_weights for b in tree_blocks[0]] == \
                        [b.child_weights for b in tree_blocks[1]]
                    check_penalty_table(roots[0], params, scorer)
                assert got.assignment == run_oms(
                    stream, config, *run_setup(memory, k, epsilon),
                    spec).assignment
                violations += got.violations
        assert violations > 0 or fmt < 10   # epsilon 0 on weighted nodes
        stream.close()


class RecordFree:
    """A stream that has a header and columns and nothing else."""

    def __init__(self, stream):
        self.header = stream.header
        self.chunks = stream.chunks


@pytest.mark.usefixtures("small_chunks")
class TestNoRecords:
    """The runners read only ``stream.chunks()``; the parse, its spool
    replay and the in-memory records give the same partition."""

    def _three(self, stream, memory, run, k):
        """The outcomes of ``run`` on the parse of ``stream``, its replay
        and ``memory``."""
        out = []
        for source in (stream, stream, memory):
            state, params = run_setup(memory, k, 0.03)
            out.append(run(RecordFree(source), state, params))
            assert stream._kept is not None   # the parse left a spool
        return [(s.assignment, s.block_weight, s.violations) for s in out]

    @pytest.mark.parametrize("fmt", [11, 10, 1])
    @pytest.mark.parametrize("objective", ["connectivity", "cutnet"])
    def test_freight(self, tmp_path, fmt, objective):
        memory = _hypergraph(fmt)
        stream = open_hypergraph_node_stream(
            write(tmp_path / "h.hgr", memory, fmt, graph=False))
        memory = MemoryStream.from_records(stream.header,
                                           list(stream_records(memory)))
        runs = self._three(stream, memory, lambda s, state, params:
                           run_freight(s, state, params, objective), 7)
        assert runs[1:] == [runs[0]] * 2
        stream.close()

    @pytest.mark.parametrize("fmt", [11, 10, 1])
    @pytest.mark.parametrize("scorer", ["fennel", "ldg"])
    def test_oms_and_map(self, tmp_path, fmt, scorer):
        memory = _graph(fmt)
        stream = open_graph_stream(
            write(tmp_path / "g.graph", memory, fmt, graph=True))
        memory = MemoryStream.from_records(stream.header,
                                           list(stream_records(memory)))
        spec = HierarchySpec.parse("2:4", "1:10")
        for run in (lambda s, state, params: run_oms(
                        s, OmsConfig(scorer=scorer), state, params),
                    lambda s, state, params: run_oms(
                        s, OmsConfig(scorer=scorer), state, params, spec)):
            runs = self._three(stream, memory, run, spec.k)
            assert runs[1:] == [runs[0]] * 2
        stream.close()

    @pytest.mark.parametrize("fmt", [11, 0])
    @pytest.mark.parametrize("algorithm", ["hashing", "fennel", "ldg"])
    def test_onepass(self, tmp_path, fmt, algorithm):
        memory = _graph(fmt)
        stream = open_graph_stream(
            write(tmp_path / "g.graph", memory, fmt, graph=True))
        memory = MemoryStream.from_records(stream.header,
                                           list(stream_records(memory)))
        for passes in (1, 3):
            config = OnePassConfig(algorithm, passes=passes)
            run = run_restream if passes > 1 else run_onepass
            runs = self._three(stream, memory, lambda s, state, params:
                               run(s, config, state, params), 7)
            assert runs[1:] == [runs[0]] * 2
        stream.close()


def _no_records(*args, **kwargs):
    raise AssertionError("a record was built")


# run name -> its command and flags, the input read from the test's files
COMMANDS = {
    **{f"{algorithm}-{passes}": ["partition", "--k", "5", "--algorithm",
                                 algorithm, "--passes", str(passes)]
       for algorithm in ("hashing", "fennel", "ldg") for passes in (1, 3)},
    "oms": ["partition", "--k", "5", "--algorithm", "oms"],
    "map": ["map", "--hierarchy", "2:4", "--distances", "1:10"],
    "hpartition": ["hpartition", "--k", "5"],
    # batches of 30 nodes straddle the chunks of 50
    **{f"heistream-{passes}": ["partition", "--k", "5", "--algorithm",
                               "heistream", "--delta", "30", "--passes",
                               str(passes)] for passes in (1, 2)},
}
QUALITY = ("edge_cut", "cut_net", "connectivity", "imbalance", "comm_cost")


@pytest.mark.usefixtures("small_chunks")
class TestCommandsWithoutRecords:
    """``partition`` with hashing, fennel and ldg (1 and 3 passes), oms
    and heistream (1 and 2 passes), ``map``, ``hpartition`` and
    ``metrics``, each also with ``--time-core``, and ``bench`` run while
    building a :class:`StreamedNodeRecord` raises.  They report what the
    spool path reports without the patch:
    the same partitions and quality, cuts and comm costs equal to the sums
    over the records.  A ``--time-core`` run preloads the parse's chunks,
    three of them here."""

    def _runs(self, tmp_path, graph, hypergraph, flags=()):
        """Per run, its partition file and its report without run times
        and runspec; the report's quality equals the ``metrics``
        recount."""
        out = {}
        for name, argv in COMMANDS.items():
            command, *options = argv
            path = hypergraph if command == "hpartition" else graph
            part, report = tmp_path / f"{name}.part", tmp_path / "run.json"
            assert cli.main([command, "--input", path, *options, *flags,
                             "--output", str(part),
                             "--metrics-json", str(report)]) == 0, name
            run = json.loads(report.read_text())
            spec = ["--hypergraph", "--k", "5"] if command == "hpartition" \
                else options if command == "map" else ["--k", "5"]
            assert cli.main(["metrics", "--input", path, "--partition",
                             str(part), *spec, "--metrics-json",
                             str(report)]) == 0, name
            recount = json.loads(report.read_text())
            assert [recount[key] for key in QUALITY] == \
                [run[key] for key in QUALITY], name
            for key in ("runtime_ms", "runtime_total_ms", "runtime_core_ms",
                        "runspec"):
                run.pop(key)
            out[name] = part.read_text(), run
        return out

    @pytest.mark.parametrize("fmt", sorted(FMTS))
    def test_partition_map_and_metrics(self, tmp_path, monkeypatch, fmt):
        memory, hyper = _graph(fmt), _hypergraph(fmt)
        graph = write(tmp_path / "g.graph", memory, fmt, graph=True)
        hypergraph = write(tmp_path / "h.hgr", hyper, fmt, graph=False)
        expected = self._runs(tmp_path, graph, hypergraph)   # the spool path
        records, blocks = list(stream_records(memory)), {
            name: list(map(int, part.split()))
            for name, (part, _) in expected.items()}
        for name, (_, run) in expected.items():
            assert (run["edge_cut"], run["comm_cost"]) == (
                record_comm_cost(records, blocks[name], HierarchySpec.parse(
                    "2:4", "1:10")) if name == "map"
                else (None, None) if name == "hpartition"
                else (record_edge_cut(records, blocks[name]), None)), name
        assert (expected["hpartition"][1]["cut_net"],
                expected["hpartition"][1]["connectivity"]) == \
            record_cut_net_and_connectivity(
                list(stream_records(hyper)), blocks["hpartition"],
                hyper.header.has_item_weights)
        monkeypatch.setattr(StreamedNodeRecord, "__init__", _no_records)
        for flags in ((), ("--time-core",)):
            assert self._runs(tmp_path, graph, hypergraph, flags) == \
                expected, flags
        rows = tmp_path / "rows.csv"
        for passes in ("1", "3"):
            assert cli.main(["bench", "--input", graph, "--algorithms",
                             "hashing,fennel,ldg,oms", "--k", "5",
                             "--passes", passes, "--output", str(rows)]) == 0
            for row in read_rows(str(rows)):
                name = row["algorithm"] if row["algorithm"] == "oms" \
                    else f"{row['algorithm']}-{passes}"
                run = expected[name][1]
                assert (int(row["edge_cut"]), float(row["imbalance"])) == \
                    (run["edge_cut"], run["imbalance"]), name
        assert cli.main(["bench", "--input", graph, "--algorithms",
                         "heistream", "--k", "5", "--delta", "30",
                         "--passes", "2", "--output", str(rows)]) == 0
        row, = read_rows(str(rows))
        run = expected["heistream-2"][1]
        assert (int(row["edge_cut"]), float(row["imbalance"])) == \
            (run["edge_cut"], run["imbalance"])
        with pytest.raises(AssertionError, match="a record was built"):
            list(stream_records(open_graph_stream(graph)))
