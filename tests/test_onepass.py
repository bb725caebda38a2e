import itertools
import math
import random

import pytest

from streamdecomp import onepass
from streamdecomp.metrics import edge_cut
from streamdecomp.onepass import (FennelParams, OnePassConfig, fennel_alpha,
                                  fennel_assign, fennel_gain, hashing_assign,
                                  ldg_assign, run_onepass, run_restream)
from streamdecomp.partition import UNASSIGNED, PartitionState
from streamdecomp.streams import StreamedNodeRecord

from generators import graph_stream_from_edges, random_graph
from reference import scan_fennel_assign, scan_ldg_assign


class TestHashing:
    def test_examples(self):
        assert hashing_assign(7, 4) == 3
        assert hashing_assign(0, 1) == 0

    def test_uniform_on_contiguous_ids(self):
        counts = [0] * 4
        for i in range(1000):
            counts[hashing_assign(i, 4)] += 1
        assert counts == [250, 250, 250, 250]

    def test_independent_of_stream_order(self):
        ids = list(range(50))
        random.Random(1).shuffle(ids)
        assert [hashing_assign(i, 7) for i in ids] == [i % 7 for i in ids]


class TestLdg:
    def test_score_arithmetic(self):
        # 1 neighbor in block 0 (weight 10 of 20) vs 2 in block 1 (weight 18):
        # 1*(1-0.5)=0.5 beats 2*(1-0.9)=0.2
        state = PartitionState(10, 2, 0.0, 20)
        state.l_max = 20
        state.assign(0, 0, 10)
        state.assign(1, 1, 9)
        state.assign(2, 1, 9)
        record = StreamedNodeRecord(3, 1, [(0, 1), (1, 1), (2, 1)])
        assert ldg_assign(record, state) == 0

    def test_neighbor_free_node_goes_to_lightest(self):
        state = PartitionState(4, 3, 1.0, 4)
        state.assign(0, 0, 2)
        state.assign(1, 1, 1)
        assert ldg_assign(StreamedNodeRecord(2, 1, []), state) == 2

    def test_matches_straight_line_simulation(self):
        # independent reimplementation: plain dicts, no shared helpers
        rng = random.Random(23)
        stream = random_graph(rng, 100, 300)
        k, eps = 4, 0.1
        state = PartitionState(100, k, eps, 100)
        got = [ldg_assign(r, state) for r in stream]

        lmax = math.ceil((1 + eps) * 100 / k)
        assign = {}
        weights = [0] * k
        counts = [0] * k
        expected = []
        for record in stream:
            best, best_key = None, None
            for i in range(k):
                if weights[i] + 1 > lmax:
                    continue
                inter = sum(w for v, w in record.neighbors if assign.get(v) == i)
                score = inter * (1 - weights[i] / lmax)
                key = (score, -counts[i], -i)
                if best_key is None or key > best_key:
                    best, best_key = i, key
            assign[record.id] = best
            weights[best] += 1
            counts[best] += 1
            expected.append(best)
        assert got == expected


class TestFennelGain:
    def test_empty_block_penalty_zero(self):
        params = FennelParams(alpha=0.7)
        assert fennel_gain(0.0, 1, 0, params) == 0.0

    def test_formula_example(self):
        # k=2, n=4, m=4 unit weights: alpha = sqrt(2)*4/8
        alpha = fennel_alpha(4, 4, 2)
        assert alpha == pytest.approx(math.sqrt(2) * 4 / 8)
        params = FennelParams(alpha=alpha)
        score = fennel_gain(1.0, 1, 2, params)
        assert score == pytest.approx(1 - alpha * 1.5 * 2 ** 0.5)
        assert score == pytest.approx(-0.5, abs=1e-9)

    def test_unit_weight_reduction(self):
        params = FennelParams(alpha=0.37)
        for inter, size in [(0, 0), (3, 7), (1, 12)]:
            classic = inter - 0.37 * 1.5 * size ** 0.5
            assert fennel_gain(float(inter), 1, size, params) == \
                pytest.approx(classic, abs=1e-15)

    def test_gain_additivity_under_contraction(self):
        # contracting u,w into x: gain(x,i) = gain(u,i) + gain(w,i), exactly
        rng = random.Random(31)
        params = FennelParams(alpha=1.3)
        for _ in range(200):
            block_weight = rng.randint(0, 50)
            cu, cw = rng.randint(1, 9), rng.randint(1, 9)
            gu, gw = rng.uniform(0, 10), rng.uniform(0, 10)
            merged = fennel_gain(gu + gw, cu + cw, block_weight, params)
            split = fennel_gain(gu, cu, block_weight, params) + \
                fennel_gain(gw, cw, block_weight, params)
            assert merged == pytest.approx(split, abs=1e-9)


class TestFennelAssign:
    def test_empty_blocks_tie_to_block_zero(self):
        state = PartitionState(4, 3, 1.0, 4)
        params = FennelParams(alpha=0.5)
        assert fennel_assign(StreamedNodeRecord(0, 1, []), state, params) == 0

    def test_single_neighbor_attracts(self):
        state = PartitionState(4, 4, 3.0, 4)
        params = FennelParams(alpha=0.1)
        state.assign(0, 2, 1)
        assert fennel_assign(StreamedNodeRecord(1, 1, [(0, 1)]), state,
                             params) == 2

    @pytest.mark.parametrize("k", [2, 8])
    def test_matches_bruteforce_argmax_oracle(self, k):
        rng = random.Random(41 + k)
        stream = random_graph(rng, 200, 600)
        alpha = fennel_alpha(200, 600, k)
        params = FennelParams(alpha=alpha)
        state = PartitionState(200, k, 0.03, 200)
        got = [fennel_assign(r, state, params) for r in stream]

        lmax = state.l_max
        assign = {}
        weights = [0] * k
        expected = []
        for record in stream:
            best, best_key = None, None
            for i in range(k):
                if weights[i] + 1 > lmax:
                    continue
                inter = sum(w for v, w in record.neighbors if assign.get(v) == i)
                score = inter - alpha * 1.5 * weights[i] ** 0.5
                key = (score, -weights[i], -i)
                if best_key is None or key > best_key:
                    best, best_key = i, key
            assign[record.id] = best
            weights[best] += 1
            expected.append(best)
        assert got == expected


class TestRunOnepass:
    def test_single_node_graph(self):
        stream = graph_stream_from_edges(1, [])
        state = PartitionState(1, 2, 0.0, 1)
        run_onepass(stream, OnePassConfig(algorithm="fennel"), state)
        assert state.assignment == [0]

    @pytest.mark.parametrize("size,alpha", [(3, None), (4, 0.5)])
    def test_two_cliques_cut_zero(self, size, alpha):
        # With auto-alpha, size-4 cliques repel the second node (penalty at
        # weight 1 exceeds the unit gain: alpha*gamma = 1.125 > 1), so the
        # optimum needs either the sparser instance or an explicit alpha.
        n = 2 * size
        clique = lambda off: [(off + a, off + b, 1)
                              for a in range(size) for b in range(a + 1, size)]
        edges = clique(0) + clique(size)
        stream = graph_stream_from_edges(n, edges)
        state = PartitionState(n, 2, 0.03, n)
        params = FennelParams(alpha=alpha) if alpha else None
        run_onepass(stream, OnePassConfig(algorithm="fennel"), state, params)
        assert edge_cut(stream, state.assignment) == 0
        # oracle: the optimum over all balanced 2-partitions is 0
        best = min(
            sum(1 for u, v, _ in edges if (u in part) != (v in part))
            for part in map(set, itertools.combinations(range(n), size)))
        assert best == 0

    def test_single_pass_has_single_stats_entry(self):
        stream = graph_stream_from_edges(2, [(0, 1, 1)])
        state = PartitionState(2, 2, 0.0, 2)
        run_onepass(stream, OnePassConfig(algorithm="ldg"), state)
        assert len(state.pass_stats) == 1

    def test_determinism(self):
        rng = random.Random(9)
        stream = random_graph(rng, 80, 200)
        results = []
        for _ in range(2):
            state = PartitionState(80, 4, 0.03, 80)
            run_onepass(stream, OnePassConfig(algorithm="fennel", seed=3), state)
            results.append(list(state.assignment))
        assert results[0] == results[1]

    def test_hard_balance_after_every_prefix(self):
        rng = random.Random(29)
        stream = random_graph(rng, 120, 360)
        k = 4
        state = PartitionState(120, k, 0.03, 120)
        params = FennelParams(alpha=fennel_alpha(120, 360, k))
        for record in stream:
            fennel_assign(record, state, params)
            assert state.max_block_weight() <= state.l_max


class TestRestream:
    def test_fixed_point_reproduced(self):
        # pass-1 solution of two cliques is a local optimum; pass 2 keeps it
        clique = lambda off: [(off + a, off + b, 1)
                              for a in range(4) for b in range(a + 1, 4)]
        stream = graph_stream_from_edges(8, clique(0) + clique(4))
        one = PartitionState(8, 2, 0.03, 8)
        run_onepass(stream, OnePassConfig(algorithm="fennel"), one,
                    FennelParams(alpha=0.5))
        two = PartitionState(8, 2, 0.03, 8)
        run_restream(lambda: stream, OnePassConfig(algorithm="fennel", passes=2),
                     two, FennelParams(alpha=0.5))
        assert edge_cut(stream, one.assignment) == 0   # clique per block
        assert one.assignment == two.assignment

    def test_reldg_pass_weights_bookkeeping(self):
        rng = random.Random(43)
        stream = random_graph(rng, 60, 150)
        state = PartitionState(60, 3, 0.1, 60)
        run_restream(lambda: stream, OnePassConfig(algorithm="ldg", passes=2),
                     state)
        # after the second pass all nodes are assigned and weights re-add up
        assert all(b != UNASSIGNED for b in state.assignment)
        assert sum(state.block_weight) == 60
        state.check_consistency([1] * 60)

    def test_ring_pass2_not_worse(self):
        edges = [(i, (i + 1) % 16, 1) for i in range(16)]
        stream = graph_stream_from_edges(16, edges)
        one = PartitionState(16, 2, 0.03, 16)
        run_onepass(stream, OnePassConfig(algorithm="fennel"), one)
        two = PartitionState(16, 2, 0.03, 16)
        run_restream(lambda: stream,
                     OnePassConfig(algorithm="fennel", passes=2), two)
        assert edge_cut(stream, two.assignment) <= edge_cut(stream, one.assignment)

    def test_refennel_alpha_growth_is_applied(self):
        # one edge, roomy capacity: pass 1 co-locates both endpoints; a huge
        # alpha growth makes the pass-2 penalty dominate and split them,
        # while growth 1.0 leaves the pair together
        stream = graph_stream_from_edges(2, [(0, 1, 1)])
        outcomes = {}
        for growth in (1.0, 10.0):
            state = PartitionState(2, 2, 1.0, 2)
            config = OnePassConfig(algorithm="fennel", passes=2,
                                   restream_alpha_growth=growth)
            run_restream(lambda: stream, config, state,
                         FennelParams(alpha=0.4))
            outcomes[growth] = state.assignment[0] == state.assignment[1]
        assert outcomes[1.0] is True
        assert outcomes[10.0] is False


def _partition(stream, algorithm, k, epsilon, passes):
    total = sum(r.weight for r in stream)
    state = PartitionState(stream.header.n, k, epsilon, total)
    config = OnePassConfig(algorithm=algorithm, passes=passes)
    if passes > 1:
        run_restream(lambda: stream, config, state)
    else:
        run_onepass(stream, config, state)
    return state


def _outcome(state):
    return (state.assignment, state.violations, state.block_weight,
            state.block_count)


class TestCandidateSelection:
    """fennel_assign / ldg_assign against the O(k) scans in tests/reference."""

    def _compare(self, monkeypatch, stream, algorithm, k, epsilon, passes):
        with monkeypatch.context() as mp:
            mp.setattr(onepass, "fennel_assign", scan_fennel_assign)
            mp.setattr(onepass, "ldg_assign", scan_ldg_assign)
            expected = _partition(stream, algorithm, k, epsilon, passes)
        got = _partition(stream, algorithm, k, epsilon, passes)
        assert _outcome(got) == _outcome(expected), (algorithm, k, epsilon,
                                                     passes)
        return got

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("passes", [1, 3])
    def test_random_graphs_match_scan(self, monkeypatch, weighted, passes):
        rng = random.Random(1000 + 10 * passes + weighted)
        for trial in range(30):
            n = rng.randint(40, 250)
            stream = random_graph(rng, n, rng.randint(n, 3 * n),
                                  max_edge_weight=5 if weighted else 1,
                                  max_node_weight=20 if weighted else 1)
            k = rng.choice([2, 3, 8, 17, 64, 256, 512])
            epsilon = (0.0, 0.03, 0.5)[trial % 3]
            for algorithm in ("fennel", "ldg"):
                self._compare(monkeypatch, stream, algorithm, k, epsilon,
                              passes)

    def test_weighted_eps0_reaches_both_fallbacks(self, monkeypatch):
        # eps=0 with weights 1..20 leaves late nodes without a feasible block
        # (flagged fallback) and makes LDG's fewest-nodes block too heavy
        # while another block still fits (the weighted scan).
        scans = []
        original = onepass._fewest_feasible

        def spy(record, state):
            before = state.violations
            block = original(record, state)
            scans.append(state.violations == before)
            return block

        monkeypatch.setattr(onepass, "_fewest_feasible", spy)
        rng = random.Random(77)
        violations = {"fennel": 0, "ldg": 0}
        for _ in range(6):
            stream = random_graph(rng, 300, 200, max_edge_weight=3,
                                  max_node_weight=20)
            for algorithm in violations:
                for passes in (1, 3):
                    state = self._compare(monkeypatch, stream, algorithm, 8,
                                          0.0, passes)
                    violations[algorithm] += state.violations
        assert violations["fennel"] > 0 and violations["ldg"] > 0
        assert True in scans and False in scans

    def test_ldg_heavy_fewest_block_is_skipped(self):
        state = PartitionState(10, 2, 0.0, 10)      # l_max = 5
        state.assign(0, 0, 4)                      # block 0: 1 node, weight 4
        state.assign(1, 1, 1)
        state.assign(2, 1, 1)                      # block 1: 2 nodes, weight 2
        assert ldg_assign(StreamedNodeRecord(3, 2, []), state) == 1
        assert state.violations == 0
        assert ldg_assign(StreamedNodeRecord(4, 9, []), state) == 0
        assert state.violations == 1    # nothing fits: lightest, lowest index

    def test_fennel_lightest_neighbor_block_dominates(self):
        # the lightest block is also a neighbor block: its positive gain
        # beats every unconnected block
        state = PartitionState(6, 4, 1.0, 6)
        params = FennelParams(alpha=0.5)
        state.assign(0, 1, 1)
        state.assign(1, 2, 1)
        state.assign(2, 3, 1)
        state.assign(3, 0, 1)
        assert fennel_assign(StreamedNodeRecord(4, 1, [(1, 1)]), state,
                             params) == 2
