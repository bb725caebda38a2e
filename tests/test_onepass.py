import functools
import itertools
import math
import random
from collections import Counter

import pytest

from streamdecomp.metrics import edge_cut
from streamdecomp import onepass, streams
from streamdecomp.onepass import (FennelParams, OnePassConfig, fennel_alpha,
                                  fennel_assign, fennel_penalties,
                                  hashing_assign, ldg_assign, ldg_free,
                                  run_onepass, run_restream)
from streamdecomp.partition import UNASSIGNED, MinBlockHeap, PartitionState
from streamdecomp.streams import (MemoryStream, StreamedNodeRecord,
                                   StreamHeader, open_graph_stream)

from generators import chunk_of, graph_stream_from_edges, node_chunks, \
    random_graph, run_setup
from reference import (_neighbor_gains, block_counts, check_consistency,
                       fennel_gain, record_fennel_assign, record_ldg_assign,
                       run_records, scan_fennel_assign, scan_ldg_assign,
                       shadow_reldg, stream_records)

# the flags of a file with node and edge weights: chunk_of(records, WEIGHED)
# keeps every weight of hand-made records
WEIGHED = StreamHeader(1, 0, 0, has_node_weights=True, has_item_weights=True)


def place_fennel(records, state, params):
    """Fennel on the consecutive ``records`` as one chunk, in one kernel
    call, from the penalty table of the state's block weights; the blocks
    the records land in."""
    fennel_assign(chunk_of(records, WEIGHED), state, params,
                  fennel_penalties(state.block_weight, params))
    return [state.assignment[r.id] for r in records]


def place_ldg(records, state):
    """LDG on the consecutive ``records`` as one chunk, in one kernel
    call, from the free-capacity table of the state's block weights and the
    count table of its assignment; the blocks the records land in."""
    ldg_assign(chunk_of(records, WEIGHED), state,
               ldg_free(state.block_weight, state.l_max), block_counts(state))
    return [state.assignment[r.id] for r in records]


def handed_gains(monkeypatch, record, state, params):
    """Place ``record`` by Fennel and return its block and the gains dict
    the kernel handed ``fennel_block`` (copied before the selection adds
    the lightest block), or ``None`` if it handed none."""
    handed = []
    select = onepass.fennel_block

    def capture(gains, *args):
        handed.append(dict(gains))
        return select(gains, *args)

    with monkeypatch.context() as mp:
        mp.setattr(onepass, "fennel_block", capture)
        block, = place_fennel([record], state, params)
    assert len(handed) <= 1
    return block, handed[0] if handed else None


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

    def test_weighted_overload_is_flagged(self):
        # block 0 gets weights 10 + 10 against L_max 12; the placement itself
        # stays id mod k
        stream = graph_stream_from_edges(4, [(0, 1, 1), (2, 3, 1)],
                                         node_weights=[10, 1, 10, 1])
        state, params = run_setup(stream, 2)
        run_onepass(stream, OnePassConfig(algorithm="hashing"), state, params)
        assert state.assignment == [0, 1, 0, 1]
        assert (state.l_max, state.block_weight) == (12, [20, 2])
        assert state.violations == 1


class TestLdg:
    def test_score_arithmetic(self):
        # 1 neighbor in block 0 (weight 10 of 20) vs 2 in block 1 (weight 18):
        # 1*(1-0.5)=0.5 beats 2*(1-0.9)=0.2
        state = PartitionState(10, 2, 0.0, 20)
        state.l_max = 20
        state.assign(0, 0, 10)
        state.assign(1, 1, 9)
        state.assign(2, 1, 9)
        record = StreamedNodeRecord(3, 1, [0, 1, 2], [1, 1, 1])
        assert place_ldg([record], state) == [0]

    def test_neighbor_free_node_goes_to_lightest(self):
        state = PartitionState(4, 3, 1.0, 4)
        state.assign(0, 0, 2)
        state.assign(1, 1, 1)
        assert place_ldg([StreamedNodeRecord(2, 1, [], [])], state) == [2]

    def test_matches_straight_line_simulation(self):
        # independent reimplementation: plain dicts, no shared helpers
        rng = random.Random(23)
        stream = random_graph(rng, 100, 300)
        k, eps = 4, 0.1
        state = PartitionState(100, k, eps, 100)
        got = place_ldg(list(stream_records(stream)), state)

        lmax = math.ceil((1 + eps) * 100 / k)
        assign = {}
        weights = [0] * k
        counts = [0] * k
        expected = []
        for record in stream_records(stream):
            best, best_key = None, None
            for i in range(k):
                if weights[i] + 1 > lmax:
                    continue
                inter = sum(w for v, w in zip(record.ids, record.weights)
                            if assign.get(v) == i)
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
        assert place_fennel([StreamedNodeRecord(0, 1, [], [])], state,
                            params) == [0]

    def test_single_neighbor_attracts(self):
        state = PartitionState(4, 4, 3.0, 4)
        params = FennelParams(alpha=0.1)
        state.assign(0, 2, 1)
        assert place_fennel([StreamedNodeRecord(1, 1, [0], [1])], state,
                            params) == [2]

    @pytest.mark.parametrize("k", [2, 8])
    def test_matches_bruteforce_argmax_oracle(self, k):
        rng = random.Random(41 + k)
        stream = random_graph(rng, 200, 600)
        state, params = run_setup(stream, k)
        alpha = params.alpha
        got = place_fennel(list(stream_records(stream)), state, params)

        lmax = state.l_max
        assign = {}
        weights = [0] * k
        expected = []
        for record in stream_records(stream):
            best, best_key = None, None
            for i in range(k):
                if weights[i] + 1 > lmax:
                    continue
                inter = sum(w for v, w in zip(record.ids, record.weights)
                            if assign.get(v) == i)
                score = inter - alpha * 1.5 * weights[i] ** 0.5
                key = (score, -weights[i], -i)
                if best_key is None or key > best_key:
                    best, best_key = i, key
            assign[record.id] = best
            weights[best] += 1
            expected.append(best)
        assert got == expected


    def test_violating_node_scores_no_block(self, monkeypatch):
        """Counted as C12 counts: at k=64 and epsilon 0 on a node-weighted
        graph, a node the lightest block cannot take scores no block (every
        block is full then) and lands there, flagged; every other node
        scores through one ``fennel_block`` call.  Each chunk is placed one
        node per kernel call, which tells the nodes apart."""
        select, assign = onepass.fennel_block, onepass.fennel_assign
        calls = [0]

        def counted(*args):
            calls[0] += 1
            return select(*args)

        nodes = {"violating": 0, "placed": 0}

        def checked(chunk, state, params, pen, restream=False):
            for one in node_chunks(chunk):
                node, weight = one[0], one[4][0]
                before = (calls[0], state.violations)
                weights = list(state.block_weight)
                if restream:   # the kernel takes the node out first
                    weights[state.assignment[node]] -= weight
                lightest = min(range(state.k), key=lambda i: (weights[i], i))
                assign(one, state, params, pen, restream)
                block = state.assignment[node]
                scored = calls[0] - before[0]
                if state.violations > before[1]:
                    assert (scored, block) == (0, lightest), f"node {node}"
                    nodes["violating"] += 1
                else:
                    assert scored == 1, f"node {node}"
                    nodes["placed"] += 1

        monkeypatch.setattr(onepass, "fennel_block", counted)
        monkeypatch.setattr(onepass, "fennel_assign", checked)
        stream = random_graph(random.Random(64), 2000, 5000,
                              max_edge_weight=5, max_node_weight=20)
        state = run_restream(stream, OnePassConfig(algorithm="fennel",
                                                   passes=2),
                             *run_setup(stream, 64, epsilon=0.0))
        assert nodes["violating"] == state.violations > 0
        assert nodes["placed"] > 0


class TestRunOnepass:
    def test_single_node_graph(self):
        stream = graph_stream_from_edges(1, [])
        state, params = run_setup(stream, 2, epsilon=0.0)
        run_onepass(stream, OnePassConfig(algorithm="fennel"), state, params)
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
        state, params = run_setup(stream, 2, alpha=alpha)
        run_onepass(stream, OnePassConfig(algorithm="fennel"), state, params)
        assert edge_cut(stream, state.assignment) == 0
        # oracle: the optimum over all balanced 2-partitions is 0
        best = min(
            sum(1 for u, v, _ in edges if (u in part) != (v in part))
            for part in map(set, itertools.combinations(range(n), size)))
        assert best == 0

    def test_determinism(self):
        rng = random.Random(9)
        stream = random_graph(rng, 80, 200)
        results = []
        for _ in range(2):
            state, params = run_setup(stream, 4)
            run_onepass(stream, OnePassConfig(algorithm="fennel"), state,
                        params)
            results.append(list(state.assignment))
        assert results[0] == results[1]

    def test_hard_balance_after_every_prefix(self):
        rng = random.Random(29)
        stream = random_graph(rng, 120, 360)
        k = 4
        state, params = run_setup(stream, k)
        pen = fennel_penalties(state.block_weight, params)
        for record in stream_records(stream):
            fennel_assign(chunk_of([record]), state, params, pen)
            assert max(state.block_weight) <= state.l_max


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
        run_restream(stream, OnePassConfig(algorithm="fennel", passes=2),
                     two, FennelParams(alpha=0.5))
        assert edge_cut(stream, one.assignment) == 0   # clique per block
        assert one.assignment == two.assignment

    def test_reldg_pass_weights_bookkeeping(self):
        rng = random.Random(43)
        stream = random_graph(rng, 60, 150)
        state, params = run_setup(stream, 3, epsilon=0.1)
        run_restream(stream, OnePassConfig(algorithm="ldg", passes=2),
                     state, params)
        # after the second pass all nodes are assigned and weights re-add up
        assert all(b != UNASSIGNED for b in state.assignment)
        assert sum(state.block_weight) == 60
        check_consistency(state, [1] * 60)

    def test_ring_pass2_not_worse(self):
        edges = [(i, (i + 1) % 16, 1) for i in range(16)]
        stream = graph_stream_from_edges(16, edges)
        one, params = run_setup(stream, 2)
        run_onepass(stream, OnePassConfig(algorithm="fennel"), one, params)
        two, params = run_setup(stream, 2)
        run_restream(stream,
                     OnePassConfig(algorithm="fennel", passes=2), two, params)
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
            run_restream(stream, config, state,
                         FennelParams(alpha=0.4))
            outcomes[growth] = state.assignment[0] == state.assignment[1]
        assert outcomes[1.0] is True
        assert outcomes[10.0] is False


    # (seed, n, m, max node weight, k, epsilon): unit weights; node weights
    # with room to spare; node weights at epsilon 0, where LDG's
    # fewest-nodes block is often full and _fewest_feasible falls back
    RELDG_CASES = {"unit": (1, 300, 900, 1, 4, 0.03),
                   "weighted": (2, 300, 900, 9, 8, 0.1),
                   "fallback": (3, 300, 600, 30, 16, 0.0)}

    @pytest.mark.parametrize("passes", [2, 3, 4])
    @pytest.mark.parametrize("case", sorted(RELDG_CASES))
    def test_reldg_matches_shadow_state_oracle(self, monkeypatch, case,
                                               passes):
        seed, n, m, max_weight, k, epsilon = self.RELDG_CASES[case]
        stream = random_graph(random.Random(seed), n, m, max_edge_weight=3,
                              max_node_weight=max_weight)
        fallbacks = [0]
        fewest = onepass._fewest_feasible

        def counted(weight, state, counts):
            fallbacks[0] += 1
            return fewest(weight, state, counts)

        monkeypatch.setattr(onepass, "_fewest_feasible", counted)
        config = OnePassConfig(algorithm="ldg", passes=passes)
        got = run_restream(stream, config, *run_setup(stream, k, epsilon))
        production_fallbacks = fallbacks[0]
        expected = shadow_reldg(stream, config,
                                *run_setup(stream, k, epsilon))
        assert _outcome(got) == _outcome(expected)
        check_consistency(got, [r.weight for r in stream_records(stream)])
        if case == "fallback":
            assert production_fallbacks > 0 and got.violations > 0

    def test_hashing_restream_is_one_pass(self):
        # node weights at epsilon 0 overfill blocks: the violations of the
        # one pass are not counted again
        stream = random_graph(random.Random(5), 100, 200, max_node_weight=7)
        one = run_onepass(stream, OnePassConfig(algorithm="hashing"),
                          *run_setup(stream, 4, epsilon=0.0))
        three = run_restream(stream, OnePassConfig(algorithm="hashing",
                                                   passes=3),
                             *run_setup(stream, 4, epsilon=0.0))
        assert _outcome(three) == _outcome(one)
        assert one.violations > 0


def _partition(stream, algorithm, k, epsilon, passes):
    state, params = run_setup(stream, k, epsilon)
    config = OnePassConfig(algorithm=algorithm, passes=passes)
    if passes > 1:
        run_restream(stream, config, state, params)
    else:
        run_onepass(stream, config, state, params)
    return state


def _outcome(state):
    return state.assignment, state.violations, state.block_weight


class TestCandidateSelection:
    """fennel_assign / ldg_assign against the O(k) scans in tests/reference."""

    def _compare(self, stream, algorithm, k, epsilon, passes):
        expected = run_records(
            stream, OnePassConfig(algorithm=algorithm, passes=passes),
            *run_setup(stream, k, epsilon), scan_fennel_assign,
            scan_ldg_assign)
        got = _partition(stream, algorithm, k, epsilon, passes)
        assert _outcome(got) == _outcome(expected), (algorithm, k, epsilon,
                                                     passes)
        return got

    @pytest.mark.parametrize("weighted", [False, True, "mixed"])
    @pytest.mark.parametrize("passes", [1, 3])
    def test_random_graphs_match_scan(self, weighted, passes):
        # "mixed" draws edge weights 1-2, so rows whose edges all weigh 1
        # sit next to weighted rows in one graph.  The kernels sum every
        # row of a file with edge weights, all-ones rows too, and count
        # every row of one without (False, counted in C); the scan oracle
        # sums every row, so both ways must give its floats
        max_edge_weight, max_node_weight, salt = {
            False: (1, 1, 0), True: (5, 20, 1), "mixed": (2, 1, 2)}[weighted]
        rng = random.Random(1000 + 10 * passes + salt)
        for trial in range(30):
            n = rng.randint(40, 250)
            stream = random_graph(rng, n, rng.randint(n, 3 * n),
                                  max_edge_weight=max_edge_weight,
                                  max_node_weight=max_node_weight)
            if weighted == "mixed":
                units = {set(r.weights) <= {1} for r in stream_records(stream)}
                assert units == {False, True}
            k = rng.choice([2, 3, 8, 17, 64, 256, 512])
            epsilon = (0.0, 0.03, 0.5)[trial % 3]
            for algorithm in ("fennel", "ldg"):
                self._compare(stream, algorithm, k, epsilon, passes)

    def test_weighted_eps0_reaches_both_fallbacks(self, monkeypatch):
        # eps=0 with weights 1..20 leaves late nodes without a feasible block
        # (flagged fallback) and makes LDG's fewest-nodes block too heavy
        # while another block still fits (the weighted scan).
        scans = []
        original = onepass._fewest_feasible

        def spy(weight, state, counts):
            before = state.violations
            block = original(weight, state, counts)
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
                    state = self._compare(stream, algorithm, 8, 0.0, passes)
                    violations[algorithm] += state.violations
        assert violations["fennel"] > 0 and violations["ldg"] > 0
        assert True in scans and False in scans

    def test_ldg_heavy_fewest_block_is_skipped(self):
        state = PartitionState(10, 2, 0.0, 10)      # l_max = 5
        state.assign(0, 0, 4)                      # block 0: 1 node, weight 4
        state.assign(1, 1, 1)
        state.assign(2, 1, 1)                      # block 1: 2 nodes, weight 2
        assert place_ldg([StreamedNodeRecord(3, 2, [], [])], state) == [1]
        assert state.violations == 0
        assert place_ldg([StreamedNodeRecord(4, 9, [], [])], state) == [0]
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
        assert place_fennel([StreamedNodeRecord(4, 1, [1], [1])], state,
                            params) == [2]

    @pytest.mark.parametrize("algorithm", ["fennel", "ldg"])
    def test_item_weight_flag_changes_nothing(self, tmp_path, algorithm):
        # the kernels read the weights of each row, not the header's flag:
        # unit weights declared (fmt 1, or the flag) or not give one outcome
        rng = random.Random(61)
        stream = random_graph(rng, 150, 400)
        plain, listed = tmp_path / "plain.graph", tmp_path / "listed.graph"
        header, records = stream.header, list(stream_records(stream))
        plain.write_text(f"{header.n} {header.m}\n" + "".join(
            " ".join(str(v + 1) for v in r.ids) + "\n" for r in records))
        listed.write_text(f"{header.n} {header.m} 1\n" + "".join(
            " ".join(f"{v + 1} 1" for v in r.ids) + "\n" for r in records))
        flagged = MemoryStream.from_records(
            StreamHeader(header.n, header.m, header.pins,
                         has_item_weights=True), records)
        sources = [(stream, False), (flagged, True),
                   (open_graph_stream(str(plain)), False),
                   (open_graph_stream(str(listed)), True)]
        outcomes = []
        for source, flag in sources:
            assert source.header.has_item_weights is flag
            for passes in (1, 3):
                outcomes.append(_outcome(_partition(source, algorithm, 4,
                                                    0.03, passes)))
        for source, _ in sources[2:]:
            source.close()
        assert outcomes[0::2] == [outcomes[0]] * 4
        assert outcomes[1::2] == [outcomes[1]] * 4

    @pytest.mark.parametrize("weights", [[1, 1], [2, 3]])
    def test_unassigned_and_empty_rows(self, monkeypatch, weights):
        # the counted path (all 1) and the summed path (weighted) both drop
        # unassigned neighbors; an empty row scores no neighbor block
        params = FennelParams(alpha=0.5)
        for row in (StreamedNodeRecord(0, 1, [1, 2], weights),
                    StreamedNodeRecord(0, 1, [], [])):
            for algorithm in ("fennel", "ldg"):
                got, expected = (PartitionState(4, 3, 1.0, 4)
                                 for _ in range(2))
                for state in (got, expected):
                    state.assign(3, 2, 1)
                if algorithm == "fennel":
                    block, gains = handed_gains(monkeypatch, row, got, params)
                    assert gains == {}
                    assert block == scan_fennel_assign(row, expected, params)
                else:
                    assert place_ldg([row], got) == \
                        [scan_ldg_assign(row, expected,
                                         block_counts(expected))]
                assert _outcome(got) == _outcome(expected)

    @pytest.mark.parametrize("weights", [[1, 1, 1], [2, 1]])
    def test_fennel_tie_goes_to_lighter_higher_block(self, monkeypatch,
                                                     weights):
        # gamma=2, alpha=0.5: the score is g - c(V_i); block 0 (weight 3,
        # gain 2) and block 1 (weight 2, gain 1) tie at -1, block 0 is seen
        # first, the lighter block 1 wins
        params = FennelParams(gamma=2.0, alpha=0.5)
        state = PartitionState(10, 2, 1.0, 10)
        for node, block in ((0, 0), (1, 0), (2, 0), (3, 1), (4, 1)):
            state.assign(node, block, 1)
        ids = [0, 1, 3] if len(weights) == 3 else [0, 3]
        record = StreamedNodeRecord(5, 1, ids, weights)
        block, gains = handed_gains(monkeypatch, record, state, params)
        assert list(gains) == [0, 1]
        assert block == 1

    @pytest.mark.parametrize("weights", [[1, 1], [3, 3]])
    def test_ldg_tie_goes_to_fewer_nodes_higher_block(self, weights):
        # both blocks weigh 4 and hold one neighbor's edge each; block 0
        # holds 4 nodes, block 1 one node of weight 4
        state = PartitionState(10, 2, 0.0, 20)     # l_max = 10
        for node in range(4):
            state.assign(node, 0, 1)
        state.assign(4, 1, 4)
        record = StreamedNodeRecord(5, 1, [0, 4], weights)
        assert place_ldg([record], state) == [1]


class TestGainsPerBlock:
    """The Fennel kernel's neighbor-block gains, as it hands them to
    ``fennel_block``, against the loop that sums a row entry by entry."""

    @pytest.mark.parametrize("max_weight", [1, 2, 5])
    def test_matches_reference_loop(self, monkeypatch, max_weight):
        rng = random.Random(500 + max_weight)
        params = FennelParams(alpha=0.5)
        for _ in range(300):
            n, k = rng.randint(1, 60), rng.randint(1, 9)
            # node n is the record; L_max >= n + 1 leaves every block room
            state = PartitionState(n + 1, k, float(k), n + 1)
            for v in range(n):
                block = rng.choice([UNASSIGNED, rng.randrange(k)])
                if block != UNASSIGNED:
                    state.assign(v, block)
            degree = rng.randint(0, n)
            record = StreamedNodeRecord(
                n, 1, rng.sample(range(n), degree),
                [rng.randint(1, max_weight) for _ in range(degree)])
            expected = _neighbor_gains(record, state.assignment)
            _, got = handed_gains(monkeypatch, record, state, params)
            assert list(got.items()) == list(expected.items())
            # counts and sums meet floats as the same values
            assert [0.5 - g for g in got.values()] == \
                [0.5 - g for g in expected.values()]


class TestEntryPoints:
    """A pass calls the module-level kernel once per chunk of
    ``stream.chunks()`` (the parse, then each replay), in stream order,
    with one table for the whole pass (LDG: and one count table, which
    starts empty), so a tracer that rebinds the kernels sees every node."""

    @pytest.mark.parametrize("algorithm", ["fennel", "ldg"])
    @pytest.mark.parametrize("passes", [1, 3])
    def test_kernel_called_once_per_batch_per_pass(self, monkeypatch,
                                                   tmp_path, algorithm,
                                                   passes):
        calls = {"fennel": [], "ldg": []}
        count_tables = []
        fennel, ldg = onepass.fennel_assign, onepass.ldg_assign

        def nodes(chunk):
            return list(range(chunk[0], chunk[0] + len(chunk[1])))

        def counted_fennel(chunk, state, params, pen, restream=False):
            calls["fennel"].append((nodes(chunk), pen, restream))
            fennel(chunk, state, params, pen, restream)

        def counted_ldg(chunk, state, free, counts, restream=False):
            calls["ldg"].append((nodes(chunk), free, restream))
            count_tables.append((counts, sum(counts)))
            ldg(chunk, state, free, counts, restream)

        monkeypatch.setattr(onepass, "fennel_assign", counted_fennel)
        monkeypatch.setattr(onepass, "ldg_assign", counted_ldg)
        monkeypatch.setattr(streams, "SPOOL_CHUNK", 16)
        memory = random_graph(random.Random(71), 90, 250)
        path = tmp_path / "g.graph"
        path.write_text(f"{memory.header.n} {memory.header.m}\n" + "".join(
            " ".join(str(v + 1) for v in r.ids) + "\n"
            for r in stream_records(memory)))
        stream = open_graph_stream(str(path))
        state, params = run_setup(memory, 4)
        config = OnePassConfig(algorithm=algorithm, passes=passes)
        run = run_restream if passes > 1 else run_onepass
        run(stream, config, state, params)
        stream.close()
        other = "ldg" if algorithm == "fennel" else "fennel"
        assert calls[other] == [] and len(calls[algorithm]) == 6 * passes
        batches = [list(range(start, min(start + 16, 90)))
                   for start in range(0, 90, 16)]
        tables = []
        for p in range(passes):
            made = calls[algorithm][6 * p:6 * p + 6]
            assert [ids for ids, _, _ in made] == batches
            assert all(table is made[0][1] for _, table, _ in made)
            assert {restream for *_, restream in made} == {p > 0}
            tables.append(made[0][1])
            if algorithm == "ldg":
                # one count table per pass, holding the nodes the pass
                # placed before each call
                made = count_tables[6 * p:6 * p + 6]
                assert all(table is made[0][0] for table, _ in made)
                assert [placed for _, placed in made] == \
                    [ids[0] for ids in batches]
        assert len({id(table) for table in tables}) == passes
        assert state.assignment == _partition(memory, algorithm, 4, 0.03,
                                              passes).assignment


# node and edge weights drawn up to: unit, and those of a METIS fmt-11 file
LOCKSTEP_WEIGHTS = {"unit": (1, 1), "fmt11": (20, 5)}


@functools.lru_cache(maxsize=None)
def _lockstep_graph(weights):
    max_node_weight, max_edge_weight = LOCKSTEP_WEIGHTS[weights]
    return random_graph(random.Random(f"lockstep-{weights}"), 400, 1200,
                        max_edge_weight=max_edge_weight,
                        max_node_weight=max_node_weight)


def _lockstep(stream, algorithm, k, epsilon, batch, passes, growth=2.0):
    """Run a chunk kernel on chunks of ``batch`` nodes, cut from the
    records' columns, and its
    record-at-a-time oracle in tests/reference side by side over
    ``passes`` passes (ReFennel, alpha times ``growth`` per pass, or ReLDG
    after the first).  After each batch both states must agree, the
    kernel's table must equal the one built afresh from its block weights,
    and under LDG both count tables, empty at the start of each pass, must
    agree.  Returns the kernel's state."""
    got, params = run_setup(stream, k, epsilon)
    expected, _ = run_setup(stream, k, epsilon)
    records = list(stream_records(stream))
    for p in range(passes):
        restream = p > 0
        pass_params = FennelParams(gamma=params.gamma,
                                   alpha=params.alpha * growth ** p)
        if algorithm == "ldg":
            if restream:
                got.block_weight[:] = [0] * got.k
                expected.block_weight[:] = [0] * expected.k
            fresh = lambda: ldg_free(got.block_weight, got.l_max)
        else:
            fresh = lambda: fennel_penalties(got.block_weight, pass_params)
        table = fresh()
        counts, expected_counts = [0] * k, [0] * k
        for start in range(0, len(records), batch):
            chunk = records[start:start + batch]
            columns = chunk_of(chunk, stream.header)
            if algorithm == "ldg":
                ldg_assign(columns, got, table, counts, restream)
            else:
                fennel_assign(columns, got, pass_params, table, restream)
            for record in chunk:
                if algorithm == "ldg":
                    if restream:
                        expected.assignment[record.id] = UNASSIGNED
                    record_ldg_assign(record, expected, expected_counts)
                else:
                    if restream:
                        expected.unassign(record.id, record.weight)
                    record_fennel_assign(record, expected, pass_params)
            assert _outcome(got) == _outcome(expected), (p, start)
            assert table == fresh(), (p, start)
            assert counts == expected_counts, (p, start)
    return got


class TestBatchLockstep:
    """The chunk kernels against the record-at-a-time kernels in
    tests/reference, chunk by chunk, and the whole run against
    ``run_onepass`` and ``run_restream``."""

    @pytest.mark.parametrize("passes", [1, 2, 3])
    @pytest.mark.parametrize("batch", [1, 3, 1024])
    @pytest.mark.parametrize("k", [2, 7, 64, 300])
    @pytest.mark.parametrize("weights", sorted(LOCKSTEP_WEIGHTS))
    @pytest.mark.parametrize("algorithm", ["fennel", "ldg"])
    def test_batches_match_records(self, algorithm, weights, k, batch,
                                   passes):
        stream = _lockstep_graph(weights)
        for epsilon in (0.0, 0.1):
            got = _lockstep(stream, algorithm, k, epsilon, batch, passes)
            assert _outcome(got) == _outcome(
                _partition(stream, algorithm, k, epsilon, passes))

    def test_epsilon_zero_reaches_every_fallback(self, monkeypatch):
        # weighted nodes at epsilon 0: nodes no block fits (flagged) under
        # both kernels, and LDG's fewest-nodes block too heavy while another
        # block still fits, and while none does
        found = []
        fewest = onepass._fewest_feasible

        def spy(weight, state, counts):
            before = state.violations
            block = fewest(weight, state, counts)
            found.append(state.violations == before)
            return block

        monkeypatch.setattr(onepass, "_fewest_feasible", spy)
        stream = _lockstep_graph("fmt11")
        violations = {}
        for algorithm in ("fennel", "ldg"):
            violations[algorithm] = sum(
                _lockstep(stream, algorithm, k, 0.0, 3, 3).violations
                for k in (7, 64))
        assert violations["fennel"] > 0 and violations["ldg"] > 0
        assert True in found and False in found

    @pytest.mark.parametrize("algorithm", ["fennel", "ldg"])
    @pytest.mark.parametrize("k", [2, 64])
    def test_heap_rebuilds_inside_a_batch(self, monkeypatch, algorithm, k):
        # 400 pushes per pass overflow the 4k bound: a heap a kernel call
        # builds (its first rebuild) is rebuilt again mid-call, and each
        # stays O(k)
        rebuilt = []
        rebuild = MinBlockHeap.rebuild

        def counted(heap):
            rebuilt.append(heap)
            rebuild(heap)

        monkeypatch.setattr(MinBlockHeap, "rebuild", counted)
        got = _lockstep(_lockstep_graph("unit"), algorithm, k, 0.03, 1024,
                        3)
        # the oracle scans, so every heap is the kernel's: Fennel's over the
        # block weights, LDG's over each pass's count table
        calls = Counter(map(id, rebuilt))   # one call, so one heap, per pass
        assert len(calls) == 3 and max(calls.values()) > 1
        assert all(len(heap.heap) <= 4 * k for heap in rebuilt)
        keys = {id(heap.keys) for heap in rebuilt}
        if algorithm == "fennel":
            assert keys == {id(got.block_weight)}
        else:
            assert len(keys) == 3 and id(got.block_weight) not in keys
