"""FREIGHT's and OMS's chunk kernels against their record-at-a-time oracles
in tests/reference, chunk by chunk, on parsed files of every ``fmt``; and
the runners read only ``stream.chunks()``."""

import functools
import random
from itertools import islice

import pytest

from streamdecomp import streams
from streamdecomp.freight import NetTracker, SortedBlocks, freight_assign, \
    run_freight
from streamdecomp.multisection import HierarchySpec, OmsConfig, \
    build_from_spec, build_hierarchy, oms_assign, run_oms
from streamdecomp.streams import MemoryStream, _write_node_lines, \
    open_graph_stream, open_hypergraph_node_stream

from generators import random_graph, random_hypergraph, run_setup
from reference import record_freight_assign, record_oms_assign
from test_multisection import _internal_blocks

# fmt -> (item weights up to, node weights up to); the flags are written
# whatever the weights drawn, so an fmt-1 file may list only weights of 1
FMTS = {0: (1, 1), 1: (5, 1), 10: (1, 20), 11: (5, 20)}
CHUNK = 50
N = 2 * CHUNK + CHUNK // 2 + 3   # three chunks, the last one short


def write(path, memory, fmt: int, graph: bool) -> str:
    """``memory`` as a node-per-line file with the flags of ``fmt``."""
    header, records = memory.header, memory.records
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
    return (state.assignment, state.block_weight, state.block_count,
            state.violations)


def _chunks_and_records(stream, memory):
    """Each chunk of ``stream`` (the parse, then the replay), with the
    records of ``memory`` it covers."""
    records = iter(memory.records)
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
                trackers = NetTracker(header.m), NetTracker(header.m)
                blocks = SortedBlocks(k), SortedBlocks(k)
                least = blocks[1] if unit else expected.by_weight()
                for chunk, records in _chunks_and_records(stream, memory):
                    freight_assign(chunk, got, trackers[0], blocks[0],
                                   cutnet, params)
                    for record in records:
                        record_freight_assign(
                            record, expected, trackers[1], least, cutnet,
                            params, unit, not header.has_item_weights)
                    where = (k, epsilon, chunk[0])
                    assert _blocks_state(got) == _blocks_state(expected), \
                        where
                    assert trackers[0].last_block == trackers[1].last_block
                    assert trackers[0].cut == trackers[1].cut, where
                    assert [(b.a, b.b, b.card, b.end) for b in blocks[:1]] \
                        == [(b.a, b.b, b.card, b.end) for b in blocks[1:]]
                    chunks += 1
                assert got.assignment == run_freight(
                    stream, *run_setup(memory, k, epsilon),
                    "cutnet" if cutnet else "connectivity").assignment
                violations += got.violations
        assert chunks == 8 * 3
        assert (violations > 0) == (not unit)   # only weighted nodes overflow
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
                assert got.assignment == run_oms(
                    stream, config, *run_setup(memory, k, epsilon),
                    spec).assignment
                violations += got.violations
        assert violations > 0 or fmt < 10   # epsilon 0 on weighted nodes
        stream.close()


class RecordFree:
    """A stream that has columns but no records."""

    def __init__(self, stream):
        self.header = stream.header
        self.chunks = stream.chunks

    def __iter__(self):
        raise AssertionError("a record was asked for")


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
        memory = MemoryStream(stream.header, memory.records)
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
        memory = MemoryStream(stream.header, memory.records)
        spec = HierarchySpec.parse("2:4", "1:10")
        for run in (lambda s, state, params: run_oms(
                        s, OmsConfig(scorer=scorer), state, params),
                    lambda s, state, params: run_oms(
                        s, OmsConfig(scorer=scorer), state, params, spec)):
            runs = self._three(stream, memory, run, spec.k)
            assert runs[1:] == [runs[0]] * 2
        stream.close()
