import copy
import random
import weakref
from contextlib import closing

import pytest

import reference
import streamdecomp.heistream as hs
from streamdecomp import streams
from streamdecomp.heistream import (BatchModel, HeiStreamConfig, build_model,
                                    coarsen, commit_batch, initial_partition,
                                    load_batch, run_heistream,
                                    uncoarsen_refine)
from streamdecomp.metrics import edge_cut
from streamdecomp.onepass import FennelParams, OnePassConfig, run_onepass
from streamdecomp.partition import UNASSIGNED, PartitionState
from streamdecomp.streams import MemoryStream, open_graph_stream

from generators import (gnp_graph, graph_stream_from_edges,
                        planted_partition_graph, random_graph, run_setup)
from test_chunk_kernels import CHUNK, FMTS, N, _graph, write


def heistream(stream, k, **config):
    return run_heistream(stream, HeiStreamConfig(**config),
                         *run_setup(stream, k))


def model_cut_and_penalty(model: BatchModel, blocks, k, params):
    """Decision-relevant Fennel objective: cut weight plus weighted penalty.

    Both terms are conserved by contraction/projection, unlike the internal
    edge sum (intra-cluster edges vanish at the coarse level).
    """
    nb = model.num_batch
    bw = [0.0] * k
    for j in range(model.num_art):
        bw[j] += model.weight[nb + j]
    for v in range(nb):
        bw[blocks[v]] += model.weight[v]
    cut = 0.0
    penalty = 0.0
    for v in range(nb):
        for u, w in model.adj[v]:
            bu = blocks[u] if u < nb else u - nb
            if bu != blocks[v]:
                cut += w if u >= nb else w / 2
        penalty += model.weight[v] * params.alpha * params.gamma * \
            bw[blocks[v]] ** (params.gamma - 1.0)
    return cut + penalty, cut


def batches(stream, delta: int):
    """The column batches of one pass over ``stream``."""
    chunks, rest = stream.chunks(), []
    while (batch := load_batch(chunks, delta, rest)) is not None:
        yield batch


class TestLoadBatch:
    def test_batch_sizes(self):
        # n a multiple of delta: no empty last batch, which would count
        for n, expected in ((5, [2, 2, 1]), (4, [2, 2])):
            chunks, rest = graph_stream_from_edges(n, []).chunks(), []
            sizes = []
            while (batch := load_batch(chunks, 2, rest)) is not None:
                sizes.append(len(batch[1]))
            assert sizes == expected
            assert load_batch(chunks, 2, rest) is None

    def test_single_batch_when_delta_large(self):
        stream = graph_stream_from_edges(5, [])
        chunks, rest = stream.chunks(), []
        assert len(load_batch(chunks, 100, rest)[1]) == 5
        assert load_batch(chunks, 100, rest) is None


class TestBuildModel:
    """Batches are chunks of columns, ``(start, degrees, ids, weights,
    node_weight)``; a None column means unit weights."""

    def cfg(self, **kw):
        return HeiStreamConfig(delta=2, **kw)

    def test_first_batch_has_no_artificial_nodes(self):
        state = PartitionState(4, 4, 0.5, 4)
        batch = (0, [1, 1], [1, 0], None, None)   # nodes 0-1, unit weights
        model = build_model(batch, state, self.cfg(), random.Random(0))
        assert model.num_art == 0
        assert model.size == 2

    def test_first_pass_weight0_nodes_count_as_placed(self):
        # placed weight-0 nodes leave every block weight 0, yet each batch
        # after the first links to them through k artificial nodes, as the
        # oracle, which scans the assignment, does
        state = PartitionState(6, 3, 0.5, 1)
        config = self.cfg()
        for start, ids, num_art in ((0, [1, 0], 0), (2, [1, 2], 3),
                                    (4, [3, 4], 3)):
            batch = (start, [1, 1], ids, None, [0, 0])
            model = build_model(batch, state, config, random.Random(0))
            expected = reference.record_build_model(
                list(reference.chunk_records(*batch)), state, config,
                random.Random(0))
            assert model.num_art == num_art
            assert _model_fields(model) == _model_fields(expected)
            commit_batch(batch[0], batch[4], [start // 2, 0], state)
        assert state.block_weight == [0, 0, 0]

    def test_parallel_past_edges_merge(self):
        # two past neighbors in block 2 -> one artificial edge of weight 2
        state = PartitionState(6, 4, 0.5, 6)
        state.assign(0, 2, 1)
        state.assign(1, 2, 1)
        batch = (2, [2, 0], [0, 1], None, None)
        model = build_model(batch, state, self.cfg(), random.Random(0))
        assert model.num_art == 4
        art2 = model.num_batch + 2
        assert model.adj[0] == [(art2, 2)]
        assert model.weight[art2] == 2   # block 2 weight at batch start

    def test_ghost_contraction_matches_explicit_reference(self):
        # ghost node 2 adjacent to both batch nodes: contracted into one of
        # them, host weight +1, the other gets a half-weight edge to the host
        state = PartitionState(3, 2, 1.0, 3)
        batch = (0, [1, 1], [2, 2], None, None)
        model = build_model(batch, state, self.cfg(model="extended"),
                            random.Random(7))
        host = 0 if model.weight[0] == 2 else 1
        other = 1 - host
        assert model.weight[host] == 2 and model.weight[other] == 1
        assert model.adj[other] == [(host, 0.5)]
        assert model.adj[host] == [(other, 0.5)]
        assert model.ghost_inflation == 1

    def test_basic_model_drops_ghost_edges(self):
        state = PartitionState(3, 2, 1.0, 3)
        batch = (0, [1, 1], [2, 2], None, None)
        model = build_model(batch, state, self.cfg(model="basic"),
                            random.Random(7))
        assert model.adj == [[], []]
        assert model.ghost_inflation == 0

    def test_restream_artificial_covers_future_too(self):
        state = PartitionState(4, 2, 1.0, 4)
        for node, block in enumerate([0, 1, 0, 1]):
            state.assign(node, block, 1)
        batch = (0, [2, 1], [2, 3, 3], None, None)
        previous = [state.unassign(v, 1) for v in (0, 1)]
        model = build_model(batch, state, self.cfg(), random.Random(0),
                            previous)
        assert model.num_art == 2
        # node 0 connects to artificial of block 0 (future node 2) and
        # block 1 (future node 3)
        assert sorted(model.adj[0]) == [(2, 1), (3, 1)]
        # artificial weights exclude the current batch
        assert model.weight[2] == 1 and model.weight[3] == 1
        assert model.blocks == [0, 1]

    def test_later_pass_rejects_unassigned_outside_neighbor(self):
        state = PartitionState(3, 2, 1.0, 3)
        batch = (0, [1, 0], [2], None, None)
        # without previous blocks node 2 is a ghost; with them, a fault
        assert build_model(batch, state, self.cfg(),
                           random.Random(0)).ghost_inflation == 1
        with pytest.raises(AssertionError, match="unassigned"):
            build_model(batch, state, self.cfg(), random.Random(0), [0, 1])

    @pytest.mark.parametrize("one_sided", [False, True])
    @pytest.mark.parametrize("model", ["extended", "basic"])
    def test_later_pass_matches_reference_model(self, model, one_sided):
        """The model of an unassigned batch equals the one built with the
        batch still assigned and its weights subtracted, and draws no rng
        numbers; weight-0 nodes keep the artificial nodes, since every
        node outside the batch is placed."""
        rng = random.Random(f"{model}-{one_sided}")
        n = 60
        single = 0
        for trial in range(24):
            stream = _weighted_stream(rng, n, one_sided)
            if trial % 4 == 3:
                records = list(reference.stream_records(stream))
                for record in records:
                    record.weight = 0
                stream = MemoryStream.from_records(stream.header, records)
            k = rng.choice([2, 5, 16])
            delta = rng.choice([1, 7, 25, n])
            weights = [r.weight for r in reference.stream_records(stream)]
            state = PartitionState(n, k, 0.5, max(1, sum(weights)))
            for node, weight in enumerate(weights):
                state.assign(node, rng.randrange(k), weight)
            config = HeiStreamConfig(delta=delta, model=model)
            for batch in batches(stream, delta):
                records = list(reference.chunk_records(*batch))
                expected = reference.restream_model(records, state)
                previous = [state.unassign(r.id, r.weight) for r in records]
                run_rng = random.Random(trial)
                got = build_model(batch, state, config, run_rng, previous)
                assert _model_fields(got) == _model_fields(expected)
                assert run_rng.getstate() == random.Random(trial).getstate()
                single += got.num_art == 0
                commit_batch(batch[0], batch[4],
                             [rng.randrange(k) for _ in records], state)
            reference.check_consistency(state, weights)
        assert single > 0   # n == delta: one batch, no artificial nodes


class TestCoarsen:
    def test_threshold_formula(self):
        k = 32
        config = HeiStreamConfig(delta=32768, x=4)
        model = BatchModel(32768, k)
        assert max(model.size // (2 * config.x * k), config.x * k) == 128

    def test_small_model_yields_single_level(self):
        config = HeiStreamConfig(delta=8, x=4)
        state = PartitionState(8, 2, 0.5, 8)
        batch = (0, [0] * 8, [], None, None)
        model = build_model(batch, state, config, random.Random(0))
        levels = coarsen(model, config, state, random.Random(0))
        assert len(levels) == 1
        assert levels[0].model is model

    def test_cap_is_per_batch(self, monkeypatch):
        # k=256, epsilon 0.03, n=3000: L_max 13.  The cap counts the weight
        # committed before a batch plus the batch's own, so batch 1 (W=1000)
        # gets (256*13 - 1000) // 255 = 9, below the coarsening threshold
        # of 1024 nodes, and the last batch (W=3000) gets 1, whose label
        # propagation merges nothing and is not contracted
        caps, lp_calls = [], []
        cap_of, lp, contract = hs.cluster_cap, hs._propagate_labels, \
            hs._contract

        def recorded(state, weight):
            caps.append(cap_of(state, weight))
            return caps[-1]

        def counted(model, cap, rounds, rng):
            lp_calls.append((cap, lp(model, cap, rounds, rng)))
            return lp_calls[-1][1]

        def checked_contract(model, cluster):
            assert len(set(cluster)) < len(cluster), \
                "contracted a clustering that merged nothing"
            return contract(model, cluster)

        monkeypatch.setattr(hs, "cluster_cap", recorded)
        monkeypatch.setattr(hs, "_propagate_labels", counted)
        monkeypatch.setattr(hs, "_contract", checked_contract)
        stream = random_graph(random.Random(256), 3000, 9000)
        state, params = run_setup(stream, 256)
        assert state.l_max == 13
        run_heistream(stream, HeiStreamConfig(delta=1000), state, params)
        assert max(state.block_weight) <= state.l_max and state.violations == 0
        assert caps == [9, 5, 1]
        assert {cap for cap, _ in lp_calls} == {5, 1}
        assert any(len(set(c)) < len(c) for cap, c in lp_calls if cap == 5)
        assert all(c == list(range(len(c))) for cap, c in lp_calls if cap == 1)

    def test_two_cliques_collapse_to_two_nodes(self):
        clique = lambda off: [(off + a, off + b, 1)
                              for a in range(8) for b in range(a + 1, 8)]
        edges = clique(0) + clique(8) + [(0, 8, 1)]
        stream = graph_stream_from_edges(16, edges)
        config = HeiStreamConfig(delta=16, x=1, coarsen_rounds=5)
        state = PartitionState(16, 2, 0.5, 16)   # L_max 12: cluster cap 8
        assert hs.cluster_cap(state, 16) == 8
        batch, = batches(stream, 16)
        model = build_model(batch, state, config, random.Random(3))
        levels = coarsen(model, config, state, random.Random(3))
        coarsest = levels[-1].model
        assert coarsest.num_batch == 2
        assert sorted(coarsest.weight[:2]) == [8, 8]
        assert coarsest.adj[0] == [(1, 1)]   # the bridge survives contraction


class TestInitialPartition:
    def test_affinity_to_artificial_dominates(self):
        config = HeiStreamConfig(delta=4)
        state = PartitionState(8, 4, 1.0, 8)
        for node, block in enumerate([0, 1, 2, 3]):
            state.assign(node, block, 1)
        batch = (4, [1], [3], None, None)   # neighbor in block 3
        model = build_model(batch, state, config, random.Random(0))
        params = FennelParams(alpha=0.1)
        assert initial_partition(model, state, params) == [3]

    def test_forced_block_when_others_full(self):
        config = HeiStreamConfig(delta=1)
        state = PartitionState(10, 3, 0.0, 9)   # L_max = 3
        for node in range(3):
            state.assign(node, 0, 3 if node == 0 else 0)
        state.block_weight = [3, 3, 2]           # blocks 0,1 full
        batch = (3, [0], [], None, None)
        model = build_model(batch, state, config, random.Random(0))
        params = FennelParams(alpha=0.5)
        assert initial_partition(model, state, params) == [2]

    def test_matches_bruteforce_sequential_oracle(self, monkeypatch):
        # ghost-inflated nodes (weight > true_weight) make bw and true_bw
        # differ, so the lightest block by bw may be full while another fits
        fits_elsewhere = [0]
        select = hs.fennel_block

        def counted(gains, bw, pen, load, room, weight, lightest):
            best = select(gains, bw, pen, load, room, weight, lightest)
            fits_elsewhere[0] += load[lightest] > room and best >= 0
            return best

        monkeypatch.setattr(hs, "fennel_block", counted)
        rng = random.Random(51)
        violations = 0
        for trial in range(60):
            k = rng.choice([2, 4, 8])
            nb = rng.randint(3, 20)
            model = BatchModel(nb, k)
            edges = [dict() for _ in range(nb)]
            for v in range(nb):
                model.true_weight[v] = rng.randint(1, 3)
                model.weight[v] = model.true_weight[v] + \
                    (rng.choice([0, 1, 4, 9]) if trial % 2 else 0)
                for u in range(v):
                    if rng.random() < 0.2:
                        w = rng.randint(1, 4)
                        edges[v][u] = w
                        edges[u][v] = w
                if rng.random() < 0.4:
                    edges[v][nb + rng.randrange(k)] = rng.randint(1, 2)
            model.adj = [sorted(d.items()) for d in edges]
            for j in range(k):
                model.true_weight[nb + j] = rng.randint(0, 4)
                model.weight[nb + j] = model.true_weight[nb + j]
            total = sum(model.true_weight)
            epsilon = rng.choice([0.0, 0.2])
            state, oracle_state = (PartitionState(nb, k, epsilon, total)
                                   for _ in range(2))
            params = FennelParams(alpha=0.7)
            got = initial_partition(model, state, params)
            expected = reference.scan_initial_partition(model, oracle_state,
                                                        params)
            assert got == expected
            assert state.violations == oracle_state.violations
            violations += state.violations
        assert violations > 0 and fits_elsewhere[0] >= 10

    def test_lightest_by_bw_full_but_another_block_fits(self):
        # once node 0 joins block 1, block 0 is the lighter by scoring
        # weight (10 < 11) but full by true weight (10 = L_max), while
        # block 1 (true weight 7) still fits node 1
        model = BatchModel(2, 2)
        model.weight = [5, 1, 10, 6]
        model.true_weight = [1, 1, 10, 6]
        model.adj = [[], []]
        state = PartitionState(2, 2, 0.0, 20)
        assert state.l_max == 10
        assert initial_partition(model, state, FennelParams()) == [1, 1]
        assert state.violations == 0

    def test_k_independent_at_k256(self, monkeypatch):
        """Counted as C12 counts Fennel's: at k=256 every selection scores
        at most 1 + the number of distinct blocks among the assigned nodes
        of the node's row (no lightest block is full here, so none falls
        back to scoring all blocks)."""
        scored: list[list] = []   # per call: [blocks scored, fell back]
        select, partition = hs.fennel_block, hs.initial_partition

        class ScoredGains(dict):
            def items(self):
                for item in super().items():
                    scored[-1][0] += 1
                    yield item

        def counted(gains, bw, pen, load, room, weight, lightest):
            scored.append([0, load[lightest] > room])
            return select(ScoredGains(gains), bw, pen, load, room, weight,
                          lightest)

        calls = []

        def recorded(model, state, params):
            first = len(scored)
            blocks = partition(model, state, params)
            calls.append((model, blocks, scored[first:]))
            return blocks

        monkeypatch.setattr(hs, "fennel_block", counted)
        monkeypatch.setattr(hs, "initial_partition", recorded)
        k = 256
        stream = random_graph(random.Random(256), 3000, 9000)
        state = heistream(stream, k, delta=1000)
        assert max(state.block_weight) <= state.l_max and len(calls) == 3
        nodes = total = 0
        for model, blocks, per_node in calls:
            nb = model.num_batch
            assert len(per_node) == nb
            for v, (count, fell_back) in enumerate(per_node):
                row = {blocks[u] if u < nb else u - nb
                       for u, _ in model.adj[v] if u < v or u >= nb}
                assert not fell_back and 1 <= count <= len(row) + 1, \
                    f"node {v}"
                total += count
            nodes += nb
        assert nodes > 2000
        assert total < 8 * nodes   # a full scan scores k = 256 per node


class TestRefinement:
    def build_partitioned_model(self, seed=61):
        rng = random.Random(seed)
        stream = gnp_graph(rng, 60, 0.1)
        config = HeiStreamConfig(delta=60, x=1, seed=seed)
        state, params = run_setup(stream, 4, epsilon=0.1)
        batch, = batches(stream, 60)
        model = build_model(batch, state, config, rng)
        levels = coarsen(model, config, state, rng)
        coarse = initial_partition(levels[-1].model, state, params)
        return levels, coarse, state, config, params

    def test_projection_preserves_cut_and_weights(self):
        levels, coarse, state, config, params = self.build_partitioned_model()
        assert len(levels) >= 2, "instance too small to build a hierarchy"
        coarse_obj, coarse_cut = model_cut_and_penalty(
            levels[-1].model, coarse, 4, params)
        # project one level without refinement
        level = levels[-2]
        projected = [coarse[level.cluster_map[v]]
                     for v in range(level.model.num_batch)]
        fine_obj, fine_cut = model_cut_and_penalty(
            level.model, projected, 4, params)
        assert fine_cut == pytest.approx(coarse_cut, abs=1e-9)
        assert fine_obj == pytest.approx(coarse_obj, abs=1e-9)

    def test_refinement_never_worsens_objective(self):
        levels, coarse, state, config, params = self.build_partitioned_model()
        rng = random.Random(9)
        # projection-only baseline, taken first: uncoarsen_refine pops
        # every level off the list
        finest = levels[0].model
        projected = coarse
        for level in reversed(levels[:-1]):
            projected = [projected[level.cluster_map[v]]
                         for v in range(level.model.num_batch)]
        base_obj, _ = model_cut_and_penalty(finest, projected, 4, params)
        blocks = uncoarsen_refine(levels, coarse, state, config, params, rng)
        assert levels == []
        refined_obj, _ = model_cut_and_penalty(finest, blocks, 4, params)
        assert refined_obj <= base_obj + 1e-9

    def test_node_already_in_best_block_stays(self, monkeypatch):
        config = HeiStreamConfig(delta=2)
        model = BatchModel(2, 0)
        model.weight = [1, 1]
        model.true_weight = [1, 1]
        model.adj = [[(1, 5)], [(0, 5)]]
        model.blocks = [0, 0]   # a later pass: the coarsest is not strict
        state = PartitionState(2, 2, 1.0, 2)
        params = FennelParams(alpha=0.1)
        levels = coarsen(model, config, state, random.Random(0))
        refined = []
        refine = hs._refine_level

        def counted(level_model, *args):
            refined.append(level_model)
            return refine(level_model, *args)

        monkeypatch.setattr(hs, "_refine_level", counted)
        blocks = uncoarsen_refine(levels, [0, 0], state, config, params,
                                  random.Random(0))
        assert blocks == [0, 0]
        assert refined == [model]   # the one level, also the coarsest

    def test_strict_declines_zero_gain_moves(self):
        # one node tied between blocks 0 and 1 by one edge to each: the lax
        # rule moves it on a coin flip, the strict one never, and draws none
        model = BatchModel(1, 2)
        model.weight, model.true_weight = [1, 1, 1], [1, 1, 1]
        model.adj = [[(1, 1), (2, 1)]]
        state = PartitionState(3, 2, 1.0, 3)
        params = FennelParams(alpha=0.1)
        lax_moved = 0
        for seed in range(20):
            for strict in (False, True):
                blocks = [0]
                bw, true_bw = hs._seed_block_weights(model, blocks, 2)
                rng = random.Random(seed)
                before = rng.getstate()
                gain = hs._refine_level(model, blocks, bw, true_bw, state,
                                        params, 5, rng, strict)
                assert gain == 0.0
                if strict:
                    assert blocks == [0] and rng.getstate() == before
                else:
                    lax_moved += blocks != [0]
        assert lax_moved > 0


class TestCommitAndRun:
    def test_commit_uses_true_weights(self):
        # the stream's node weights (None: unit), never a model's ghost-
        # inflated ones
        state = PartitionState(3, 2, 1.0, 8)
        commit_batch(0, [3, 4], [0, 1], state)
        commit_batch(2, None, [1], state)
        assert state.assignment == [0, 1, 1]
        assert state.block_weight == [3, 5]

    def test_full_run_assigns_everyone(self):
        rng = random.Random(71)
        stream = random_graph(rng, 150, 400)
        state = heistream(stream, 8, delta=40, seed=5)
        assert all(b != UNASSIGNED for b in state.assignment)
        reference.check_consistency(state, [1] * 150)
        assert max(state.block_weight) <= state.l_max

    def test_committed_vs_model_weight_audit(self):
        # tracked inflation explains exactly the model/true weight difference
        rng = random.Random(73)
        stream = random_graph(rng, 120, 360)
        config = HeiStreamConfig(delta=30, seed=11)
        state, params = run_setup(stream, 4)
        rng_run = random.Random(config.seed)
        for batch in batches(stream, config.delta):
            model = build_model(batch, state, config, rng_run)
            model_total = sum(model.weight[v] for v in range(model.num_batch))
            true_total = sum(r.weight for r in reference.chunk_records(*batch))
            assert model_total - true_total == model.ghost_inflation
            levels = coarsen(model, config, state, rng_run)
            blocks = uncoarsen_refine(
                levels, initial_partition(levels[-1].model, state, params),
                state, config, params, rng_run)
            commit_batch(batch[0], batch[4], blocks, state)
        assert sum(state.block_weight) == 120

    def test_delta_covering_n_single_batch_no_artificial(self):
        rng = random.Random(79)
        stream = random_graph(rng, 50, 120)
        config = HeiStreamConfig(delta=64, seed=1)
        state = PartitionState(50, 4, 0.03, 50)
        batch, = batches(stream, config.delta)
        model = build_model(batch, state, config, random.Random(1))
        assert model.num_art == 0

    def test_delta1_behaves_exactly_as_fennel(self):
        rng = random.Random(83)
        for trial in range(20):
            n = rng.randint(20, 80)
            m = rng.randint(n, 4 * n)
            stream = random_graph(rng, n, m)
            hs = heistream(stream, 4, delta=1, model="basic", seed=trial)
            fen, params = run_setup(stream, 4)
            run_onepass(stream, OnePassConfig(algorithm="fennel"), fen, params)
            assert hs.assignment == fen.assignment, f"trial {trial}"

    def test_restream_pass_not_worse_usually(self):
        rng = random.Random(89)
        better = 0
        trials = 8
        for t in range(trials):
            stream = planted_partition_graph(rng, 120, 6, 0.3, 60)
            one = heistream(stream, 4, delta=30, seed=t)
            two = heistream(stream, 4, delta=30, seed=t, passes=2)
            c1 = edge_cut(stream, one.assignment)
            c2 = edge_cut(stream, two.assignment)
            if c2 <= c1:
                better += 1
            assert max(two.block_weight) <= two.l_max
        assert better >= trials // 2

    def test_determinism_with_seed(self):
        rng = random.Random(97)
        stream = planted_partition_graph(rng, 100, 4, 0.3, 40)
        runs = [heistream(stream, 4, delta=25, seed=13, passes=2).assignment
                for _ in range(2)]
        assert runs[0] == runs[1]


class TestBatchLifetime:
    """A batch keeps only what a later phase reads: its loaded columns go
    when ``build_model`` returns, and each coarser level once refinement
    has left it.  Lists take no weak reference, so the id column is handed
    to the batch as a list subclass that does."""

    class _Ids(list):
        pass

    def test_one_batch_frees_what_no_later_phase_reads(self, monkeypatch):
        stream = planted_partition_graph(random.Random(0), 400, 8, 0.2, 200)
        load, build = hs.load_batch, hs.build_model
        coarsen_, refine = hs.coarsen, hs._refine_level
        ids, models = [], []
        finest_refined = 0

        def loaded(chunks, delta, rest):
            batch = load(chunks, delta, rest)
            if batch is None:
                return None
            start, degrees, column, weights, node_weight = batch
            column = self._Ids(column)
            ids.append(weakref.ref(column))
            return start, degrees, column, weights, node_weight

        def built(*args):
            model = build(*args)
            assert ids[-1]() is not None   # the column built the model
            return model

        def coarsened(model, *args):
            assert ids[-1]() is None, "id column alive after build_model"
            levels = coarsen_(model, *args)
            models.extend(weakref.ref(level.model) for level in levels)
            return levels

        def refined(model, *args):
            nonlocal finest_refined
            if model is models[0]():
                assert all(m() is None for m in models[1:]), \
                    "coarser model alive"
                finest_refined += 1
            return refine(model, *args)

        monkeypatch.setattr(hs, "load_batch", loaded)
        monkeypatch.setattr(hs, "build_model", built)
        monkeypatch.setattr(hs, "coarsen", coarsened)
        monkeypatch.setattr(hs, "_refine_level", refined)
        state = heistream(stream, 4, x=1)
        assert len(ids) == 1 and len(models) >= 3 and finest_refined == 1
        assert all(b != UNASSIGNED for b in state.assignment)
        # nothing of the batch outlives the run
        assert ids[0]() is None and all(m() is None for m in models)


def _model_fields(model: BatchModel):
    return (model.num_batch, model.num_art, model.weight, model.true_weight,
            model.adj, model.blocks, model.ghost_inflation)


def _twin(rng: random.Random) -> random.Random:
    twin = random.Random()
    twin.setstate(rng.getstate())
    return twin


def _check_against_reference(monkeypatch, calls: dict) -> None:
    """Make every production kernel call also run its oracle on copies of
    the same inputs and assert equal outputs, gain and rng state."""
    lp, contract, refine, coarsen = (hs._propagate_labels, hs._contract,
                                     hs._refine_level, hs.coarsen)
    caps, coarsest = [], []

    def checked_coarsen(model, config, state, rng):
        caps.append(reference.cluster_cap(state, model))
        levels = coarsen(model, config, state, rng)
        coarsest.append(levels[-1].model)
        return levels

    def checked_lp(model, cap, rounds, rng):
        assert cap == caps[-1]
        twin = _twin(rng)
        expected = reference.propagate_labels(model, cap, rounds, twin)
        got = lp(model, cap, rounds, rng)
        assert got == expected
        assert rng.getstate() == twin.getstate()
        calls["lp"] += 1
        calls["lp_merges"] += model.num_batch - len(set(got))
        calls["lp_merged"] += len(set(got)) < model.num_batch
        return got

    def checked_contract(model, cluster):
        expected, expected_map = reference.contract(model, cluster)
        got, got_map = contract(model, cluster)
        assert got_map == expected_map
        assert _model_fields(got) == _model_fields(expected)
        calls["contract"] += 1
        return got, got_map

    def checked_refine(model, blocks, bw, true_bw, state, params, rounds, rng,
                       strict):
        # only pass 1's coarsest level, fresh from initial partitioning,
        # is refined strictly
        assert strict == (model.blocks is None and model is coarsest[-1])
        twin = _twin(rng)
        before = list(blocks)
        e_blocks, e_bw, e_true_bw = list(blocks), list(bw), list(true_bw)
        expected = reference.refine_level(model, e_blocks, e_bw, e_true_bw,
                                          state, params, rounds, twin, strict)
        got = refine(model, blocks, bw, true_bw, state, params, rounds, rng,
                     strict)
        assert got == expected
        assert (blocks, bw, true_bw) == (e_blocks, e_bw, e_true_bw)
        assert rng.getstate() == twin.getstate()
        calls["refine"] += 1
        calls["refine_moves"] += sum(a != b for a, b in zip(before, blocks))
        return got

    monkeypatch.setattr(hs, "coarsen", checked_coarsen)
    monkeypatch.setattr(hs, "_propagate_labels", checked_lp)
    monkeypatch.setattr(hs, "_contract", checked_contract)
    monkeypatch.setattr(hs, "_refine_level", checked_refine)


def _heistream_result(stream, k, epsilon, config):
    state = run_heistream(stream, config,
                          *run_setup(stream, k, epsilon=epsilon))
    return state.assignment, state.block_weight, state.violations


def _weighted_stream(rng: random.Random, n: int, one_sided: bool):
    stream = random_graph(rng, n, 3 * n, max_edge_weight=3,
                          max_node_weight=3)
    if one_sided:
        # drop a third of the entries: many edges are listed by one end only
        records = list(reference.stream_records(stream))
        for record in records:
            kept = [(v, w) for v, w in zip(record.ids, record.weights)
                    if rng.random() > 1 / 3]
            record.ids = [v for v, _ in kept]
            record.weights = [w for _, w in kept]
        stream = MemoryStream.from_records(stream.header, records)
    return stream


class TestKernelsMatchReference:
    """Label propagation, contraction and refinement against the oracles of
    ``tests/reference.py``: each production call is checked on the inputs a
    real run hands it, then the whole run against one on the oracles."""

    N = 90

    @pytest.mark.parametrize("epsilon", [0.0, 0.5])
    @pytest.mark.parametrize("delta", [1, 7, N])
    @pytest.mark.parametrize("k", [2, 16, 64])
    @pytest.mark.parametrize("model", ["extended", "basic"])
    def test_random_batches(self, monkeypatch, model, k, delta, epsilon):
        rng = random.Random(f"{model}-{k}-{delta}-{epsilon}")
        stream = _weighted_stream(rng, self.N, one_sided=False)
        self._compare(monkeypatch, stream, k, delta, epsilon, model)

    @pytest.mark.parametrize("delta", [7, N])
    def test_one_sided_edges(self, monkeypatch, delta):
        stream = _weighted_stream(random.Random(5), self.N, one_sided=True)
        self._compare(monkeypatch, stream, 4, delta, 0.5, "extended")

    def test_refine_with_fractional_weights(self):
        # (b - w) + w need not give b back here, unlike on streamed weights
        rng = random.Random(17)
        for _ in range(40):
            k = rng.choice([2, 4, 16])
            nb = rng.randint(2, 30)
            model = BatchModel(nb, k)
            edges = [dict() for _ in range(nb)]
            for v in range(nb):
                model.weight[v] = rng.choice([0.1, 0.2, 0.3, 0.7, 1.1])
                model.true_weight[v] = rng.randint(1, 2)
                for u in rng.sample(range(nb + k), rng.randint(0, 6)):
                    if u != v:
                        edges[v][u] = rng.choice([0.5, 0.1, 1, 3])
            model.adj = [sorted(d.items()) for d in edges]
            for j in range(k):
                model.weight[nb + j] = rng.choice([0.3, 2.9])   # keeps bw > 0
            blocks = [rng.randrange(k) for _ in range(nb)]
            bw, true_bw = hs._seed_block_weights(model, blocks, k)
            state = PartitionState(nb, k, 0.5, sum(model.true_weight))
            params = FennelParams(alpha=rng.choice([0.1, 0.9]))
            for strict in (False, True):
                outputs = []
                for refine in (hs._refine_level, reference.refine_level):
                    b, w, t = list(blocks), list(bw), list(true_bw)
                    run_rng = random.Random(3)
                    gain = refine(model, b, w, t, state, params, 5, run_rng,
                                  strict)
                    outputs.append((b, w, t, gain, run_rng.getstate()))
                assert outputs[0] == outputs[1]

    def _compare(self, monkeypatch, stream, k, delta, epsilon, model):
        calls = dict.fromkeys(("lp", "lp_merges", "lp_merged", "contract",
                               "refine", "refine_moves"), 0)
        for passes in (1, 2, 3):
            config = HeiStreamConfig(delta=delta, model=model, passes=passes,
                                     x=1, seed=passes)
            with monkeypatch.context() as patch:
                _check_against_reference(patch, calls)
                got = _heistream_result(stream, k, epsilon, config)
            with monkeypatch.context() as patch:
                patch.setattr(hs, "_propagate_labels",
                              reference.propagate_labels)
                patch.setattr(hs, "_contract", reference.contract)
                patch.setattr(hs, "_refine_level",
                              reference.refine_level)
                expected = _heistream_result(stream, k, epsilon, config)
            assert got == expected, f"passes={passes}"
        assert calls["refine"] > 0 and calls["lp"] > 0
        # exactly the clusterings that merged a node are contracted
        assert calls["contract"] == calls["lp_merged"]
        if epsilon > 0:   # at epsilon 0 clusters cannot grow past one node
            assert calls["refine_moves"] > 0
            assert calls["lp_merges"] > 0 or delta == 1
        return calls


class _RecordTwin:
    """``stream`` with its nodes as ``records`` too: every ``chunks()``
    restarts ``self.records``, from which the oracles cut their batches."""

    def __init__(self, stream, records):
        self.header = stream.header
        self._stream, self._records = stream, records
        self.records = iter(())

    def chunks(self):
        self.records = iter(self._records)
        return self._stream.chunks()


def _state_fields(state: PartitionState):
    return state.assignment, state.block_weight, state.violations


class TestBatchCutLockstep:
    """``load_batch``, ``build_model``, the restream unassign and
    ``commit_batch`` on chunk columns against the record oracles of
    ``tests/reference.py``, batch by batch inside real runs: after every
    batch the records of its node range, the model (``weight``,
    ``true_weight``, ``adj``, ``ghost_inflation``), the ``rng`` state and
    the partition state agree.  Files of every ``fmt``, replayed from the
    spool or preloaded into a ``MemoryStream``; delta 1, one below, at and
    one above a chunk's size, n and n + 2."""

    @pytest.mark.parametrize("fmt", sorted(FMTS))
    @pytest.mark.parametrize("source", ["replay", "memory"])
    def test_columns_match_records(self, tmp_path, monkeypatch, fmt, source):
        monkeypatch.setattr(streams, "SPOOL_CHUNK", CHUNK)
        path = write(tmp_path / "g.graph", _graph(fmt), fmt, graph=True)
        self._check(monkeypatch, path, source, CHUNK, N)

    @pytest.mark.parametrize("source", ["replay", "memory"])
    def test_at_the_real_chunk_size(self, tmp_path, monkeypatch, source):
        chunk = streams.SPOOL_CHUNK
        n = 3 * chunk + 5
        memory = random_graph(random.Random(chunk), n, 2 * n,
                              max_edge_weight=5, max_node_weight=20)
        path = write(tmp_path / "g.graph", memory, 11, graph=True)
        self._check(monkeypatch, path, source, chunk, n,
                    deltas=(chunk - 1, chunk, chunk + 1),
                    runs=((2, "extended"),))

    def _check(self, monkeypatch, path, source, chunk, n,
               deltas=(1, CHUNK - 1, CHUNK, CHUNK + 1, N, N + 2),
               runs=((1, "extended"), (2, "extended"), (2, "basic"))):
        records = list(reference.parse_node_lines(path, graph=True))
        with closing(open_graph_stream(path)) as stream:
            parsed = list(stream.chunks())   # later passes replay the spool
            assert len(parsed) == -(-n // chunk) >= 3
            twin = _RecordTwin(stream if source == "replay"
                               else MemoryStream(stream.header, parsed),
                               records)
            for delta in deltas:
                for passes, model in runs:
                    config = HeiStreamConfig(delta=delta, passes=passes,
                                             model=model)
                    seen = self._lockstep(monkeypatch, twin, chunk, config)
                    per_pass = -(-n // delta)
                    assert seen["batches"] == passes * per_pass
                    assert seen["restreamed"] == (passes - 1) * per_pass
                    # a batch across a chunk edge joins the chunks' columns
                    assert (seen["straddling"] > 0) == \
                        (delta not in (1, chunk)), delta

    @staticmethod
    def _lockstep(monkeypatch, twin, chunk, config):
        load, build, commit = hs.load_batch, hs.build_model, hs.commit_batch
        state, params = run_setup(twin, 4, 0.1)
        seen = dict.fromkeys(("batches", "straddling", "restreamed"), 0)
        current = {}

        def checked_load(chunks, delta, rest):
            batch = load(chunks, delta, rest)
            records = reference.record_load_batch(twin.records, delta)
            if batch is None:
                assert records is None
                return None
            assert list(reference.chunk_records(*batch)) == records
            current.update(records=records, before=copy.deepcopy(state))
            last = batch[0] + len(batch[1]) - 1
            seen["batches"] += 1
            seen["straddling"] += batch[0] // chunk != last // chunk
            return batch

        def checked_build(batch, state, config, rng, blocks=None):
            records = current["records"]
            if blocks is not None:   # unassigned as the records say
                before = current["before"]
                assert [before.unassign(r.id, r.weight)
                        for r in records] == blocks
                assert _state_fields(state) == _state_fields(before)
                seen["restreamed"] += 1
            twin_rng = _twin(rng)
            expected = reference.record_build_model(records, state, config,
                                                    twin_rng, blocks)
            got = build(batch, state, config, rng, blocks)
            assert _model_fields(got) == _model_fields(expected)
            assert rng.getstate() == twin_rng.getstate()
            return got

        def checked_commit(start, node_weight, blocks, state):
            expected = copy.deepcopy(state)
            reference.record_commit_batch(current["records"], blocks,
                                          expected)
            commit(start, node_weight, blocks, state)
            assert _state_fields(state) == _state_fields(expected)

        with monkeypatch.context() as patch:
            patch.setattr(hs, "load_batch", checked_load)
            patch.setattr(hs, "build_model", checked_build)
            patch.setattr(hs, "commit_batch", checked_commit)
            run_heistream(twin, config, state, params)
        return seen


class TestFastPathAssumptions:
    """What the fast paths of label propagation, contraction and refinement
    take for granted, pinned on their own."""

    @pytest.mark.parametrize("model,passes", [("basic", 1), ("extended", 1),
                                              ("extended", 2)])
    def test_rows_sorted_with_unique_ids(self, monkeypatch, model, passes):
        # so a row's batch entries are its prefix, before the artificial ones
        built, contracted = [], []
        build, contract = hs.build_model, hs._contract

        def build_checked(*args):
            built.append(build(*args))
            return built[-1]

        def contract_checked(*args):
            coarse, cluster_map = contract(*args)
            contracted.append(coarse)
            return coarse, cluster_map

        monkeypatch.setattr(hs, "build_model", build_checked)
        monkeypatch.setattr(hs, "_contract", contract_checked)
        stream = _weighted_stream(random.Random(passes), 240, one_sided=True)
        config = HeiStreamConfig(delta=80, model=model, passes=passes, x=1)
        run_heistream(stream, config, *run_setup(stream, 4, epsilon=0.5))
        for m in built + contracted:
            for row in m.adj:
                ids = [u for u, _ in row]
                assert ids == sorted(set(ids))
        assert len(built) == 3 * passes
        # levels were contracted on pass 1 and on the later pass, if any
        later = [m for m in contracted if m.blocks is not None]
        assert bool(later) == (passes > 1)
        assert len(contracted) > len(later)
        assert any(m.num_art for m in contracted)

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**61 + 5])
    def test_shuffle_is_random_shuffle(self, seed):
        lengths = [0, 1, 2, 3] + [2**j + d for j in range(1, 11)
                                  for d in (-1, 1)]
        ours, stdlib = random.Random(seed), random.Random(seed)
        for n in lengths:
            a, b = list(range(n)), list(range(n))
            hs._shuffle(ours, a)
            stdlib.shuffle(b)
            assert a == b, n
            assert ours.getstate() == stdlib.getstate(), n

    def test_label_propagation_with_huge_weights(self):
        # float sums round past 2**53, integer sums would not
        rng = random.Random(60)
        base = 2**60
        for trial in range(60):
            nb, k = rng.randint(2, 25), rng.choice([0, 4])
            model = BatchModel(nb, k)
            edges = [dict() for _ in range(nb)]
            for v in range(nb):
                model.true_weight[v] = rng.randint(1, 3)
                for u in rng.sample(range(nb + k), min(nb + k, 8)):
                    if u != v:
                        edges[v][u] = base + rng.choice([0, 1, 3, 64, 129])
            model.adj = [sorted(d.items()) for d in edges]
            model.blocks = [rng.randrange(2) for _ in range(nb)] \
                if trial % 2 else None
            outputs = []
            for propagate in (hs._propagate_labels,
                              reference.propagate_labels):
                run_rng = random.Random(trial)
                outputs.append((propagate(model, 6, 5, run_rng),
                                run_rng.getstate()))
            assert outputs[0] == outputs[1], trial
