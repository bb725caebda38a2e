import itertools
import random

import pytest

from streamdecomp import freight as freight_module
from streamdecomp.freight import SortedBlocks, freight_assign, run_freight
from streamdecomp.metrics import cut_net_and_connectivity
from streamdecomp.onepass import FennelParams
from streamdecomp.partition import PartitionState
from streamdecomp.streams import StreamedNodeRecord

from generators import (chunk_of, graph_as_hypergraph,
                        hypergraph_stream_from_nets, random_graph,
                        random_hypergraph, run_setup)
from reference import (CUT, SINGLE_BLOCK, UNTOUCHED, NetTracker,
                       ScanMinBlock, check_consistency, naive_freight_assign,
                       record_freight_assign, run_fennel_twin,
                       run_freight_reference, stream_records)


def freight(stream, k, objective="connectivity", **setup):
    return run_freight(stream, *run_setup(stream, k, **setup), objective)


def place(record, state, last_block, blocks, cutnet, params, header=None):
    """Place one record by the chunk kernel, as a chunk of one node with the
    weight columns ``header``'s flags give (none without a header); its
    block."""
    freight_assign(chunk_of([record], header), state, last_block, blocks,
                   cutnet, params)
    return state.assignment[record.id]


def freight_reference(stream, k, objective="connectivity"):
    return run_freight_reference(stream, *run_setup(stream, k), objective)


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
        # Under cut-net: a net's last_block entry is freight.CUT exactly
        # where the three-state method and the pins say it is cut, and the
        # block of its last placed pin (-1 if none) everywhere else.
        rng = random.Random(77)
        stream = random_hypergraph(rng, 60, 80, max_pins=5)
        header = stream.header
        state = PartitionState(header.n, 4, 0.03, header.n)
        last_block = [-1] * header.m
        oracle = NetTracker(header.m)
        blocks = SortedBlocks(4)
        params = FennelParams(alpha=0.5)
        pins_seen: dict[int, list[int]] = {}
        for record in stream_records(stream):
            b = place(record, state, last_block, blocks, True, params)
            for e in record.ids:
                pins_seen.setdefault(e, []).append(b)
                oracle.observe(e, b)
        assert pins_seen and freight_module.CUT in last_block
        for e in range(header.m):
            blocks_of_e = pins_seen.get(e, [])
            # cut iff pins streamed so far span >= 2 blocks
            cut = len(set(blocks_of_e)) >= 2
            assert (last_block[e] == freight_module.CUT) == cut == \
                oracle.is_cut(e)
            assert oracle.last_block[e] == \
                (blocks_of_e[-1] if blocks_of_e else -1)
            if not cut:
                assert last_block[e] == oracle.last_block[e]


def make_assign_ctx(n, m, k, alpha=0.5):
    state = PartitionState(n, k, 0.03, n)
    last_block = [-1] * m
    blocks = SortedBlocks(k)
    params = FennelParams(alpha=alpha)
    return state, last_block, blocks, params


def place_cut_net_run(cutnet):
    """The first four of 40 nodes at k=4: node 2 joins nets 1 and 2 in
    block 0 (the tie on equal scores, counts and weights goes to the lower
    index), so net 2, whose first pin went to block 3, is cut, and node 3
    has net 2 alone.  The blocks chosen, and the per-net list after."""
    state, last_block, blocks, params = make_assign_ctx(40, 3, 4, alpha=0.1)
    chosen = [place(StreamedNodeRecord(v, 1, ids, [1] * len(ids)), state,
                    last_block, blocks, cutnet, params)
              for v, ids in enumerate([[0, 1], [2], [1, 2], [2]])]
    return chosen, last_block


class TestFreightAssign:
    def test_all_nets_untouched_goes_to_min_cardinality(self):
        state, tracker, blocks, params = make_assign_ctx(4, 2, 3)
        expected = blocks.min_block()
        record = StreamedNodeRecord(0, 1, [0, 1], [1, 1])
        chosen = place(record, state, tracker, blocks, False, params)
        assert chosen == expected
        assert state.block_weight[chosen] == 1

    @pytest.mark.parametrize("alpha, expected", [(0.5, 0), (0.6, 1)])
    def test_min_block_needs_a_strictly_higher_score(self, alpha, expected):
        # gamma=2: block 0 (weight 1, gain 1) scores 1 - 2*alpha, the empty
        # min block 1 scores 0.  At alpha=0.5 the scores tie and the
        # connected block's net count (1 against 0) keeps the node there.
        state, tracker, blocks, _ = make_assign_ctx(4, 1, 2)
        params = FennelParams(gamma=2.0, alpha=alpha)
        cutnet = False
        place(StreamedNodeRecord(0, 1, [0], [1]), state,
                       tracker, blocks, cutnet, params)
        assert state.assignment[0] == 0 and blocks.min_block() == 1
        chosen = place(StreamedNodeRecord(1, 1, [0], [1]),
                                state, tracker, blocks, cutnet, params)
        assert chosen == expected

    def test_cutnet_ignores_already_cut_net(self):
        state, last_block, blocks, params = make_assign_ctx(5, 1, 4)
        cutnet = True
        place(StreamedNodeRecord(0, 1, [0], [1]), state,
              last_block, blocks, cutnet, params)
        # mark the net cut, as a second pin in another block would
        last_block[0] = freight_module.CUT
        # now a node whose only net is cut falls through to the min query
        before = blocks.min_block()
        chosen = place(StreamedNodeRecord(1, 1, [0], [1]),
                       state, last_block, blocks, cutnet, params)
        assert chosen == before

    def test_cutnet_drops_a_net_cut_by_the_stream(self):
        # node 3's only net is cut, so it falls through to the min block
        assert place_cut_net_run(True) == \
            ([0, 3, 0, 2], [0, 0, freight_module.CUT])

    def test_connectivity_counts_cut_nets_via_last_block(self):
        # the cut net's last block 0 still draws node 3; no CUT is written
        assert place_cut_net_run(False) == ([0, 3, 0, 0], [0, 0, 0])


class TestOracleEquivalence:
    @pytest.mark.parametrize("objective", ["connectivity", "cutnet"])
    @pytest.mark.parametrize("k", [4, 16])
    def test_fast_path_matches_naive_scan(self, objective, k):
        rng = random.Random(1000 + k)
        for trial in range(10):
            n = rng.randint(20, 120)
            m = rng.randint(10, 150)
            stream = random_hypergraph(rng, n, m, max_pins=6)
            fast = freight(stream, k, objective)
            slow = freight_reference(stream, k, objective)
            assert fast.assignment == slow.assignment, \
                f"diverged on trial {trial}"
            assert fast.block_weight == slow.block_weight

    @pytest.mark.parametrize("objective", ["connectivity", "cutnet"])
    @pytest.mark.parametrize("max_net_weight", [1, 6])
    @pytest.mark.parametrize("max_node_weight", [1, 20])
    def test_step_by_step_matches_naive_scan(self, objective, max_net_weight,
                                             max_node_weight):
        # Node by node: the same block, block weights, violations and net
        # tracker as the full scan with the per-pin tracker method call.
        # epsilon=0 with weighted nodes runs the violation fallback.
        rng = random.Random(7000 + 10 * max_net_weight + max_node_weight)
        cutnet = objective == "cutnet"
        unit = max_node_weight == 1
        violations = 0
        for k in (2, 7, 64, 300):
            for epsilon in (0.0, 0.03):
                stream = random_hypergraph(
                    rng, rng.randint(k, k + 200), rng.randint(20, 200),
                    max_pins=7, max_net_weight=max_net_weight,
                    max_node_weight=max_node_weight)
                sides = []
                for tracker in ([-1] * stream.header.m,
                                NetTracker(stream.header.m)):
                    state, params = run_setup(stream, k, epsilon=epsilon)
                    blocks = SortedBlocks(k) if unit else \
                        ScanMinBlock(state.block_weight)
                    sides.append((state, tracker, blocks))
                (fast, fast_t, _), (slow, slow_t, slow_b) = sides
                fast_b = SortedBlocks(k)   # the kernel's, used if unit
                for record in stream_records(stream):
                    chosen = place(record, fast, fast_t, fast_b, cutnet,
                                   params, stream.header)
                    expected = naive_freight_assign(
                        record, slow, slow_t, slow_b, cutnet, params, unit)
                    assert chosen == expected, f"k={k} node {record.id}"
                    # CUT where the oracle's net is cut, under cut-net only
                    assert fast_t == slow_t.kernel_last_block(cutnet)
                    assert fast.block_weight == slow.block_weight
                    assert fast.violations == slow.violations
                violations += fast.violations
        assert (violations > 0) == (not unit)

    def test_weighted_nets_still_match(self):
        rng = random.Random(4242)
        for _ in range(5):
            stream = random_hypergraph(rng, 50, 60, max_pins=5,
                                       max_net_weight=6)
            fast = freight(stream, 8)
            slow = freight_reference(stream, 8)
            assert fast.assignment == slow.assignment


class TestWeightedNodes:
    def test_weighted_path_uses_bucket_queue_and_balances(self):
        rng = random.Random(31)
        stream = random_hypergraph(rng, 40, 50, max_pins=4, max_node_weight=5)
        state = freight(stream, 4)
        assert max(state.block_weight) <= state.l_max
        check_consistency(state, [r.weight for r in stream_records(stream)])

    def test_weighted_min_query_is_lowest_index_lightest(self):
        # the state's weight heap must pick what a scan for the lowest-index
        # lightest block picks (here in the record-at-a-time oracle), at
        # eps=0 so the flagged fallback runs too
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
                fast = freight(stream, k, objective, epsilon=0.0)
                state, params = run_setup(stream, k, epsilon=0.0)
                tracker = NetTracker(stream.header.m)
                for record in stream_records(stream):
                    record_freight_assign(record, state, tracker,
                                          ScanMin(state),
                                          objective == "cutnet", params,
                                          unit=False)
                assert fast.assignment == state.assignment
                assert fast.violations == state.violations


class TestRunFreight:
    def test_k1_trivial(self):
        rng = random.Random(8)
        stream = random_hypergraph(rng, 20, 15, max_pins=4)
        state = freight(stream, 1, "cutnet")
        assert set(state.assignment) == {0}
        assert cut_net_and_connectivity(stream, state.assignment) == (0, 0)

    def test_two_disjoint_nets_monochromatic(self):
        # nets {0,1,2} and {3,4,5}, k=2: optimum connectivity 0, found
        stream = hypergraph_stream_from_nets(
            6, [([0, 1, 2], 1), ([3, 4, 5], 1)])
        state = freight(stream, 2)
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
            state = freight(stream, k)
            assert max(state.block_weight) <= state.l_max
            assert state.violations == 0

    def test_graph_equivalence_smoke(self):
        # size-2-net hypergraph == plain Fennel with the shared tie policy
        rng = random.Random(55)
        graph = random_graph(rng, 80, 200)
        hyper = graph_as_hypergraph(graph)
        k = 4
        freight_state = freight(hyper, k)
        fennel_state = run_fennel_twin(graph, *run_setup(graph, k))
        assert freight_state.assignment == fennel_state.assignment
