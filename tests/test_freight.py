import itertools
import random

import pytest

from streamdecomp.freight import (CUT, SINGLE_BLOCK, UNTOUCHED,
                                  FreightConfig, NetTracker, SortedBlocks,
                                  freight_assign, run_freight)
from streamdecomp.metrics import cut_net_and_connectivity
from streamdecomp.onepass import FennelParams, fennel_alpha
from streamdecomp.partition import PartitionState
from streamdecomp.streams import StreamedHyperNodeRecord

from generators import (graph_as_hypergraph, hypergraph_stream_from_nets,
                        random_graph, random_hypergraph)
from reference import run_fennel_twin, run_freight_reference


class TestNetTracker:
    def test_status_transitions(self):
        t = NetTracker(1)
        assert t.status[0] == UNTOUCHED
        t.observe(0, 3)
        assert t.status[0] == SINGLE_BLOCK and t.last_block[0] == 3
        t.observe(0, 3)
        assert t.status[0] == SINGLE_BLOCK
        t.observe(0, 1)
        assert t.status[0] == CUT and t.last_block[0] == 1
        t.observe(0, 2)
        assert t.status[0] == CUT and t.last_block[0] == 2   # cut is absorbing

    def test_tracker_soundness_on_random_run(self):
        rng = random.Random(77)
        stream = random_hypergraph(rng, 60, 80, max_pins=5)
        config = FreightConfig(objective="connectivity", k=4)
        header = stream.header
        state = PartitionState(header.n, 4, 0.03, header.n)
        tracker = NetTracker(header.m)
        blocks = SortedBlocks(4)
        params = FennelParams(alpha=0.5)
        pins_seen: dict[int, list[int]] = {}
        for record in stream:
            b = freight_assign(record, state, tracker, blocks, config, params)
            for e, _ in record.incident_nets:
                pins_seen.setdefault(e, []).append(b)
        for e, blocks_of_e in pins_seen.items():
            # cut iff pins streamed so far span >= 2 blocks
            assert (tracker.status[e] == CUT) == (len(set(blocks_of_e)) >= 2)
            assert tracker.last_block[e] == blocks_of_e[-1]


def make_assign_ctx(n, m, k, alpha=0.5):
    state = PartitionState(n, k, 0.03, n)
    tracker = NetTracker(m)
    blocks = SortedBlocks(k)
    params = FennelParams(alpha=alpha)
    return state, tracker, blocks, params


class TestFreightAssign:
    def test_all_nets_untouched_goes_to_min_cardinality(self):
        state, tracker, blocks, params = make_assign_ctx(4, 2, 3)
        config = FreightConfig(objective="connectivity", k=3)
        expected = blocks.min_block()
        record = StreamedHyperNodeRecord(0, 1, [(0, 1), (1, 1)])
        chosen = freight_assign(record, state, tracker, blocks, config, params)
        assert chosen == expected
        assert state.block_weight[chosen] == 1

    def test_cutnet_ignores_already_cut_net(self):
        state, tracker, blocks, params = make_assign_ctx(5, 1, 4)
        config = FreightConfig(objective="cutnet", k=4)
        freight_assign(StreamedHyperNodeRecord(0, 1, [(0, 1)]), state,
                       tracker, blocks, config, params)
        b0 = state.assignment[0]
        # force the net to be cut: second pin lands elsewhere only if gain
        # loses to the penalty; instead cut it directly via the tracker
        tracker.observe(0, (b0 + 1) % 4)
        assert tracker.is_cut(0)
        # now a node whose only net is cut falls through to the min query
        before = blocks.min_block()
        chosen = freight_assign(StreamedHyperNodeRecord(1, 1, [(0, 1)]),
                                state, tracker, blocks, config, params)
        assert chosen == before

    def test_connectivity_counts_cut_nets_via_last_block(self):
        state, tracker, blocks, params = make_assign_ctx(5, 1, 4, alpha=0.1)
        config = FreightConfig(objective="connectivity", k=4)
        freight_assign(StreamedHyperNodeRecord(0, 1, [(0, 1)]), state,
                       tracker, blocks, config, params)
        b0 = state.assignment[0]
        tracker.observe(0, b0)          # keep d_e = b0
        tracker.status[0] = CUT         # but mark it cut
        chosen = freight_assign(StreamedHyperNodeRecord(1, 1, [(0, 1)]),
                                state, tracker, blocks, config, params)
        assert chosen == b0             # still attracted to d_e


class TestOracleEquivalence:
    @pytest.mark.parametrize("objective", ["connectivity", "cutnet"])
    @pytest.mark.parametrize("k", [4, 16])
    def test_fast_path_matches_naive_scan(self, objective, k):
        rng = random.Random(1000 + k)
        for trial in range(10):
            n = rng.randint(20, 120)
            m = rng.randint(10, 150)
            stream = random_hypergraph(rng, n, m, max_pins=6)
            config = FreightConfig(objective=objective, k=k)
            fast = run_freight(stream, config)
            slow = run_freight_reference(stream, config)
            assert fast.assignment == slow.assignment, \
                f"diverged on trial {trial}"
            assert fast.block_weight == slow.block_weight

    def test_weighted_nets_still_match(self):
        rng = random.Random(4242)
        for _ in range(5):
            stream = random_hypergraph(rng, 50, 60, max_pins=5,
                                       max_net_weight=6)
            config = FreightConfig(objective="connectivity", k=8)
            fast = run_freight(stream, config)
            slow = run_freight_reference(stream, config)
            assert fast.assignment == slow.assignment


class TestWeightedNodes:
    def test_weighted_path_uses_bucket_queue_and_balances(self):
        rng = random.Random(31)
        stream = random_hypergraph(rng, 40, 50, max_pins=4, max_node_weight=5)
        total = sum(r.weight for r in stream)
        config = FreightConfig(objective="connectivity", k=4)
        state = run_freight(stream, config, total_weight=total)
        assert state.is_balanced()
        state.check_consistency([r.weight for r in stream])

    def test_weighted_min_query_is_lowest_index_lightest(self):
        # the state's weight heap must pick what a scan for the lowest-index
        # lightest block picks, at eps=0 so the flagged fallback runs too
        class ScanMin:
            def __init__(self, state):
                self.state = state

            def min_block(self):
                w = self.state.block_weight
                return min(range(len(w)), key=lambda i: (w[i], i))

        rng = random.Random(33)
        for objective in ("connectivity", "cutnet"):
            for k in (3, 8, 64):
                stream = random_hypergraph(rng, 150, 120, max_pins=5,
                                           max_node_weight=20)
                total = sum(r.weight for r in stream)
                config = FreightConfig(objective=objective, k=k, epsilon=0.0)
                fast = run_freight(stream, config, total_weight=total)
                state = PartitionState(150, k, 0.0, total)
                tracker = NetTracker(stream.header.m)
                params = FennelParams(alpha=fennel_alpha(150,
                                                         stream.header.m, k))
                for record in stream:
                    freight_assign(record, state, tracker, ScanMin(state),
                                   config, params, unit=False)
                assert fast.assignment == state.assignment
                assert fast.violations == state.violations

    def test_weighted_nodes_need_total_weight(self):
        rng = random.Random(32)
        stream = random_hypergraph(rng, 10, 10, max_node_weight=3)
        with pytest.raises(ValueError, match="total_weight"):
            run_freight(stream, FreightConfig(k=2))


class TestRunFreight:
    def test_k1_trivial(self):
        rng = random.Random(8)
        stream = random_hypergraph(rng, 20, 15, max_pins=4)
        state = run_freight(stream, FreightConfig(objective="cutnet", k=1))
        assert set(state.assignment) == {0}
        assert cut_net_and_connectivity(stream, state.assignment) == (0, 0)

    def test_two_disjoint_nets_monochromatic(self):
        # nets {0,1,2} and {3,4,5}, k=2: optimum connectivity 0, found
        stream = hypergraph_stream_from_nets(
            6, [([0, 1, 2], 1), ([3, 4, 5], 1)])
        state = run_freight(stream, FreightConfig(objective="connectivity",
                                                  k=2))
        cut, conn = cut_net_and_connectivity(stream, state.assignment)
        assert conn == 0
        # brute force over all 2^6 assignments confirms 0 is the optimum
        best = min(
            sum(len({bits[v] for v in pins}) - 1
                for pins in ([0, 1, 2], [3, 4, 5]))
            for bits in itertools.product([0, 1], repeat=6))
        assert best == 0

    def test_balanced_on_unit_weights(self):
        rng = random.Random(90)
        stream = random_hypergraph(rng, 200, 150, max_pins=6)
        for k in (2, 8, 32):
            state = run_freight(stream, FreightConfig(k=k))
            assert state.is_balanced()
            assert state.violations == 0

    def test_graph_equivalence_smoke(self):
        # size-2-net hypergraph == plain Fennel with the shared tie policy
        rng = random.Random(55)
        graph = random_graph(rng, 80, 200)
        hyper = graph_as_hypergraph(graph)
        k = 4
        freight_state = run_freight(hyper, FreightConfig(
            objective="connectivity", k=k))
        fennel_state = run_fennel_twin(graph, k)
        assert freight_state.assignment == fennel_state.assignment
