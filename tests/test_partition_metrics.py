import ast
import dataclasses
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from streamdecomp.metrics import (block_weights, comm_cost,
                                  cut_net_and_connectivity, edge_cut,
                                  imbalance)
from streamdecomp import partition, streams
from streamdecomp.multisection import HierarchySpec
from streamdecomp.partition import PartitionState, compute_lmax
from streamdecomp.streams import FormatError, MemoryStream, \
    StreamedNodeRecord, StreamHeader, open_graph_stream

from generators import (chunk_of, graph_stream_from_edges, gnp_graph,
                        hypergraph_stream_from_nets, random_graph,
                        random_hypergraph)
from reference import (check_consistency, distance_matrix,
                       division_distance_matrix, stream_records)


class TestComputeLmax:
    def test_examples(self):
        assert compute_lmax(100, 4, 0.03) == 26   # ceil(25.75)
        assert compute_lmax(8, 8, 0.0) == 1
        assert compute_lmax(1, 4, 0.03) == 1

    @given(st.integers(1, 10**6), st.integers(1, 512),
           st.sampled_from([0.0, 0.01, 0.03, 0.05, 0.1, 0.5]))
    def test_capacity_covers_total(self, total, k, eps):
        # k blocks at capacity must be able to hold all the weight
        assert compute_lmax(total, k, eps) * k >= total

    def test_exact_integer_boundary(self):
        # (1+0.03)*400/103 is exactly 4: no float drift to 5
        assert compute_lmax(400, 103, 0.03) == 4


class TestPartitionState:
    def test_assign_and_weights(self):
        state = PartitionState(4, 2, 0.0, 10)
        state.assign(0, 1, 3)
        state.assign(1, 1, 2)
        state.assign(2, 0, 5)
        assert state.block_weight == [5, 5]
        check_consistency(state, [3, 2, 5, 0])

    def test_unassign(self):
        state = PartitionState(2, 2, 0.0, 2)
        state.assign(0, 1, 1)
        assert state.unassign(0, 1) == 1
        assert state.block_weight == [0, 0]

    def test_double_assign_rejected(self):
        state = PartitionState(2, 2, 0.0, 2)
        state.assign(0, 1, 1)
        with pytest.raises(AssertionError, match="node 0 already assigned"):
            state.assign(0, 0, 1)

    def test_unassign_of_an_unassigned_node_rejected(self):
        state = PartitionState(2, 2, 0.0, 2)
        with pytest.raises(AssertionError, match="node 1 not assigned"):
            state.unassign(1, 1)

    def test_no_module_but_partition_touches_private_state_fields(self):
        # the state's lists are its whole interface: a kernel that reached
        # into a private field would depend on what the state keeps inside
        package = Path(partition.__file__).parent
        touched = [f"{path.name}:{node.lineno} state.{node.attr}"
                   for path in sorted(package.glob("*.py"))
                   if path.name != "partition.py"
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name)
                   and node.value.id == "state" and node.attr.startswith("_")]
        assert touched == []


class TestEdgeCut:
    def triangle(self):
        return lambda: graph_stream_from_edges(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])

    def test_triangle_one_block(self):
        assert edge_cut(self.triangle()(), [0, 0, 0]) == 0

    def test_triangle_split(self):
        assert edge_cut(self.triangle()(), [0, 0, 1]) == 2

    def test_unassigned_rejected(self):
        with pytest.raises(AssertionError):
            edge_cut(self.triangle()(), [0, 0, -1])

    def test_random_graph_matches_pairwise_oracle(self):
        rng = random.Random(7)
        stream = gnp_graph(rng, 50, 0.1)
        blocks = [rng.randrange(4) for _ in range(50)]
        # oracle: scan the edge list directly, each edge once
        expected = 0
        seen = set()
        for record in stream_records(stream):
            for v, w in zip(record.ids, record.weights):
                key = (min(record.id, v), max(record.id, v))
                if key not in seen:
                    seen.add(key)
                    if blocks[record.id] != blocks[v]:
                        expected += w
        assert edge_cut(stream, blocks) == expected

    def test_weighted_edges(self):
        stream = graph_stream_from_edges(3, [(0, 1, 5), (1, 2, 7)])
        assert edge_cut(stream, [0, 1, 1]) == 5


class TestCutNetConnectivity:
    def test_single_net_one_block(self):
        stream = hypergraph_stream_from_nets(3, [([0, 1, 2], 1)])
        assert cut_net_and_connectivity(stream, [1, 1, 1]) == (0, 0)

    def test_single_net_three_blocks(self):
        stream = hypergraph_stream_from_nets(3, [([0, 1, 2], 1)])
        assert cut_net_and_connectivity(stream, [0, 1, 2]) == (1, 2)

    def test_net_weight_must_agree_at_every_pin(self):
        # net 1 weighs 3 at node 0 and 5 at node 1
        stream = MemoryStream.from_records(
            StreamHeader(2, 1, 2, has_item_weights=True),
            [StreamedNodeRecord(0, 1, [0], [3]),
             StreamedNodeRecord(1, 1, [0], [5])])
        with pytest.raises(FormatError,
                           match="node 1: net 1 weighs 5 here but 3"):
            cut_net_and_connectivity(stream, [0, 1])

    def test_random_matches_set_oracle(self):
        # k > 64: block masks past one machine word
        rng = random.Random(13)
        for k in (5, 64, 65, 300):
            for max_net_weight in (1, 4):
                stream = random_hypergraph(rng, 40, 60, max_pins=6,
                                           max_net_weight=max_net_weight)
                blocks = [rng.randrange(k) for _ in range(40)]
                nets: dict[int, set] = {}
                weights: dict[int, int] = {}
                for record in stream_records(stream):
                    for e, w in zip(record.ids, record.weights):
                        nets.setdefault(e, set()).add(blocks[record.id])
                        weights[e] = w
                exp_cut = sum(weights[e] for e, s in nets.items()
                              if len(s) >= 2)
                exp_conn = sum((len(s) - 1) * weights[e]
                               for e, s in nets.items())
                assert cut_net_and_connectivity(stream, blocks) == \
                    (exp_cut, exp_conn)

    def test_net_id_past_header_m_is_named(self):
        stream = hypergraph_stream_from_nets(2, [([0, 1], 1)])
        stream.header = dataclasses.replace(stream.header, m=0)
        with pytest.raises(ValueError, match="node 0: a net id"):
            cut_net_and_connectivity(stream, [0, 1])

    @pytest.mark.parametrize("net, fault", [(-1, "negative"),
                                            (2, "not below m=2")])
    def test_net_id_out_of_range_is_named(self, net, fault):
        # a negative id would otherwise count as net m-1: (1, 1) here;
        # from_records refuses one, so the chunk is built by hand
        stream = MemoryStream(StreamHeader(2, 2, 2), [chunk_of(
            [StreamedNodeRecord(0, 1, [net], [1]),
             StreamedNodeRecord(1, 1, [1], [1])])])
        with pytest.raises(ValueError, match=f"^node 0: a net id is {fault}$"):
            cut_net_and_connectivity(stream, [0, 1])

    @pytest.mark.parametrize("net", [-3, 3])
    def test_bad_net_id_in_a_later_chunk_names_its_node(self, net):
        records = [StreamedNodeRecord(i, 1, [0, 1], [1, 1]) for i in range(5)]
        records[3].ids = [1, net]
        # two nodes a chunk, so node 3 is in the second
        stream = MemoryStream(StreamHeader(5, 3, 10),
                              [chunk_of(records[i:i + 2])
                               for i in range(0, 5, 2)])
        with pytest.raises(ValueError, match="^node 3: a net id is "):
            cut_net_and_connectivity(stream, [0, 1, 0, 1, 0])

    # Pin by pin, the first fault wins: a net weighing differently before
    # the bad id, or the bad id before it.  A negative id is never used as
    # an index: as net m + id (here net 1, weighing 7) it would weigh 5.
    @pytest.mark.parametrize("ids, weights, fault", [
        ([0, 1, 0, 9], [7, 5, 8, 1], "node 1: net 1 weighs 8 here but 7"),
        ([0, 1, 9, 0], [7, 5, 1, 8], "node 1: a net id is not below m=2"),
        ([0, 1, -1, 0], [7, 5, 1, 8], "node 1: a net id is negative"),
        ([0, 1, -1, 1], [7, 5, 5, 5], "node 1: a net id is negative")])
    def test_first_fault_pin_by_pin(self, ids, weights, fault):
        header = StreamHeader(2, 2, 4, has_item_weights=True)
        stream = MemoryStream(header, [chunk_of(
            [StreamedNodeRecord(0, 1, ids[:2], weights[:2]),
             StreamedNodeRecord(1, 1, ids[2:], weights[2:])], header)])
        with pytest.raises(ValueError, match=f"^{fault}"):
            cut_net_and_connectivity(stream, [0, 1])

    def test_assignment_shorter_than_the_stream_is_incomplete(self):
        # each chunk pairs its pins with a slice of the assignment
        stream = hypergraph_stream_from_nets(3, [([0, 2], 1), ([1, 2], 1)])
        with pytest.raises(AssertionError, match="^node 2 unassigned$"):
            cut_net_and_connectivity(stream, [0, 1])

    def test_connectivity_at_least_cutnet_unit_weights(self):
        rng = random.Random(3)
        stream = random_hypergraph(rng, 30, 50, max_pins=5)
        blocks = [rng.randrange(4) for _ in range(30)]
        cut, conn = cut_net_and_connectivity(stream, blocks)
        assert conn >= cut


class TestBlockWeights:
    def test_unit_weights_count_the_assignment_without_a_pass(self):
        class NoPass:
            header = StreamHeader(5, 0, 0)

            def chunks(self):
                raise AssertionError("no pass on unit node weights")
        assert block_weights(NoPass(), [2, 0, 2, 2, 0], 4) == [2, 0, 3, 0]

    def test_node_weights_come_from_the_column(self, tmp_path, monkeypatch):
        # node weights 4, 1, 9, 2, 3 in chunks of two nodes
        monkeypatch.setattr(streams, "SPOOL_CHUNK", 2)
        path = tmp_path / "w.graph"
        path.write_text("5 2 10\n4 2\n1 1\n9\n2 5\n3 4\n")
        blocks = [1, 0, 1, 2, 0]
        stream = open_graph_stream(str(path))
        assert block_weights(stream, blocks, 4) == [4, 13, 2, 0]   # parse
        assert block_weights(stream, blocks, 4) == [4, 13, 2, 0]   # replay
        memory = MemoryStream(stream.header, list(stream.chunks()))
        assert block_weights(memory, blocks, 4) == [4, 13, 2, 0]
        stream.close()


class TestCommCost:
    def test_colocated_edges_cost_zero(self):
        spec = HierarchySpec.parse("2:2", "1:10")
        stream = graph_stream_from_edges(2, [(0, 1, 3)])
        assert comm_cost(stream, [2, 2], spec) == (0, 0)

    def test_hierarchy_distances(self):
        # trailing fan-out 1 collapses; PEs 0,1 share the lowest module
        spec = HierarchySpec.parse("4:16:1", "1:10:100")
        stream = graph_stream_from_edges(5, [(0, 1, 1), (2, 3, 1)])
        assert comm_cost(stream, [0, 1, 0, 0, 0], spec) == (1, 1)
        assert comm_cost(stream, [0, 4, 0, 0, 0], spec) == (1, 10)

    def test_random_mapping_matches_matrix_oracle(self):
        rng = random.Random(5)
        stream = random_graph(rng, 30, 80, max_edge_weight=3)
        spec = HierarchySpec.parse("2:3:2", "1:7:40")
        blocks = [rng.randrange(spec.k) for _ in range(30)]
        matrix = division_distance_matrix(spec)   # independent route
        expected = 0
        seen = set()
        for record in stream_records(stream):
            for v, w in zip(record.ids, record.weights):
                key = (min(record.id, v), max(record.id, v))
                if key not in seen:
                    seen.add(key)
                    expected += w * matrix[blocks[record.id], blocks[v]]
        assert comm_cost(stream, blocks, spec)[1] == expected

    def test_one_pass_equals_edge_cut_and_matrix_recount(self):
        rng = random.Random(6)
        for _ in range(40):
            layers = rng.randint(1, 4)
            fanouts = [rng.randint(1, 5) for _ in range(layers)]
            spec = HierarchySpec(
                fanouts, sorted(rng.randint(1, 99) for _ in range(layers)))
            n = rng.randint(10, 80)
            stream = random_graph(rng, n, rng.randint(0, 2 * n),
                                  max_edge_weight=9)
            blocks = [rng.randrange(spec.k) for _ in range(n)]
            matrix = distance_matrix(spec)
            recount = sum(int(w * matrix[blocks[record.id], blocks[v]])
                          for record in stream_records(stream)
                          for v, w in zip(record.ids, record.weights)
                          if v > record.id)
            assert comm_cost(stream, blocks, spec) == \
                (edge_cut(stream, blocks), recount)


class TestInvariants:
    def test_stream_visits_each_edge_twice(self):
        rng = random.Random(11)
        stream = random_graph(rng, 40, 100)
        degree_sum = sum(len(r.ids) for r in stream_records(stream))
        assert degree_sum == 2 * stream.header.m

    def test_metrics_invariant_under_block_relabeling(self):
        rng = random.Random(17)
        stream = random_graph(rng, 30, 70)
        blocks = [rng.randrange(4) for _ in range(30)]
        perm = [2, 0, 3, 1]
        relabeled = [perm[b] for b in blocks]
        assert edge_cut(stream, blocks) == edge_cut(stream, relabeled)

    def test_imbalance(self):
        assert imbalance([10, 10]) == pytest.approx(0.0)
        assert imbalance([15, 5]) == pytest.approx(0.5)
        assert imbalance([15, 5, 0, 0]) == pytest.approx(2.0)


# Each metric checks the whole assignment once before its pass: the error
# names the first unassigned node, also an isolated one or one that no
# streamed row lists.
INCOMPLETE = [
    ("edge_cut", [0, 1, -1, 0, -1], 2),
    ("edge_cut", [0, 1, 1, 0, -1], 4),      # node 4 is isolated
    ("comm_cost", [-1, 1, 1, 0, 0], 0),
    ("comm_cost", [0, 1, 1, 0, -1], 4),
    ("cut_net_and_connectivity", [0, -1, 1, -1, 0], 1),
    ("cut_net_and_connectivity", [0, 1, 1, 0, -1], 4),   # in no net
]


@pytest.mark.parametrize("metric,assignment,first", INCOMPLETE)
def test_incomplete_assignment_names_first_unassigned(metric, assignment,
                                                      first):
    if metric == "cut_net_and_connectivity":
        stream = hypergraph_stream_from_nets(5, [([0, 1, 2], 1),
                                                 ([2, 3], 2)])
        args = ()
    else:
        stream = graph_stream_from_edges(5, [(0, 1, 1), (1, 2, 1),
                                             (2, 3, 1)])
        args = (HierarchySpec.parse("2", "1"),) if metric == "comm_cost" \
            else ()
    compute = {"edge_cut": edge_cut, "comm_cost": comm_cost,
               "cut_net_and_connectivity": cut_net_and_connectivity}[metric]
    with pytest.raises(AssertionError, match=f"^node {first} unassigned$"):
        compute(stream, assignment, *args)
