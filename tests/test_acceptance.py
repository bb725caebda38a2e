"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Instances are synthetic and seeded; quality thresholds are
directional checks on locality-bearing graphs (streamed in a
locality-correlated order) and structured hypergraphs.
"""

import math
import random
import time

import numpy as np
import pytest

from streamdecomp import onepass
from streamdecomp.freight import FreightConfig, SortedBlocks, run_freight
from streamdecomp.heistream import HeiStreamConfig, run_heistream
from streamdecomp.metrics import comm_cost, cut_net_and_connectivity, edge_cut
from streamdecomp.multisection import HierarchySpec, OmsConfig, run_oms
from streamdecomp.onepass import (FennelParams, OnePassConfig, fennel_alpha,
                                  fennel_gain, run_onepass, run_restream)
from streamdecomp.partition import UNASSIGNED, PartitionState, compute_lmax
from streamdecomp.streams import (HypergraphStreamHeader,
                                  MemoryHypergraphStream,
                                  StreamedHyperNodeRecord)

from generators import (banded_matrix_hypergraph, geometric_graph,
                        graph_as_hypergraph, planted_partition_graph,
                        random_graph, random_hypergraph)
from reference import (run_fennel_twin, run_freight_reference,
                       run_multisection_multipass)


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def quality_graphs():
    """Six locality-bearing graphs, 1e4..2e5 edges, for criteria 6 and 8."""
    instances = [
        ("planted-20k", planted_partition_graph(random.Random(101), 20000,
                                                40, 0.012, 6000)),
        ("planted-45k", planted_partition_graph(random.Random(102), 45000,
                                                64, 0.008, 15000)),
        ("planted-12k", planted_partition_graph(random.Random(103), 12000,
                                                24, 0.02, 5000)),
        ("rgg-15k", geometric_graph(random.Random(104), 15000, 0.016)),
        ("rgg-9k", geometric_graph(random.Random(105), 9000, 0.024)),
        ("rgg-36k", geometric_graph(random.Random(106), 36000, 0.009)),
    ]
    for name, g in instances:
        assert 10_000 <= g.header.m <= 1_000_000, (name, g.header.m)
    return instances


def test_c01_freight_oracle_equivalence():
    """Fast FREIGHT == naive O(nk) argmax on 100 hypergraphs, both objectives."""
    rng = random.Random(201)
    start = time.perf_counter()
    checked = 0
    for trial in range(100):
        n = rng.randint(20, 200)
        m = rng.randint(10, 300)
        stream = random_hypergraph(rng, n, m, max_pins=5)
        if stream.header.pins > 1500:
            stream.records = [
                StreamedHyperNodeRecord(r.id, r.weight, r.incident_nets[:7])
                for r in stream.records]
            stream.header.pins = sum(len(r.incident_nets)
                                     for r in stream.records)
        k = 4 if trial % 2 == 0 else 16
        for objective in ("connectivity", "cutnet"):
            config = FreightConfig(objective=objective, k=k)
            fast = run_freight(stream, config)
            slow = run_freight_reference(stream, config)
            assert fast.assignment == slow.assignment, \
                f"trial {trial} objective {objective} diverged"
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report("C1 freight-oracle-equivalence",
           f"{checked} runs bit-identical in {elapsed:.1f}s")


def test_c02_sorted_blocks_theorems():
    """1e5 random increments at k=1024: sorted order and exact min queries."""
    rng = random.Random(202)
    k = 1024
    sb = SortedBlocks(k)
    counts = [0] * k
    violations = 0
    for step in range(100_000):
        d = rng.randrange(k)
        sb.increment(d)
        counts[d] += 1
        if step % 1000 == 0:
            expected = sorted(counts)
            actual = [sb.cardinality(b) for b in sb.a]
            if actual != expected or \
                    sb.cardinality(sb.min_block()) != expected[0]:
                violations += 1
    cards = [sb.cardinality(b) for b in sb.a]
    assert cards == sorted(counts)
    assert sb.cardinality(sb.min_block()) == min(counts)
    assert violations == 0
    report("C2 sorted-blocks-theorems",
           "100000 increments, 100 resort checks, zero violations")


def test_c03_gen_fennel_additivity():
    """Contracting any node pair changes no per-block gain sum beyond 1e-9."""
    rng = random.Random(203)
    worst = 0.0
    for _ in range(50):
        n = rng.randint(20, 80)
        stream = random_graph(rng, n, rng.randint(n, 3 * n),
                              max_edge_weight=6, max_node_weight= 7)
        records = {r.id: r for r in stream}
        k = 8
        assignment = [rng.randrange(k) if rng.random() < 0.7 else -1
                      for _ in range(n)]
        u, w = rng.sample(range(n), 2)
        assignment[u] = assignment[w] = -1   # the pair being contracted
        params = FennelParams(alpha=rng.uniform(0.2, 2.0))

        def block_gains(node_ids, weight, block):
            degree = 0.0
            for nid in node_ids:
                for v, ew in records[nid].neighbors:
                    if v not in node_ids and assignment[v] == block:
                        degree += ew
            block_weight = sum(records[i].weight for i in range(n)
                               if assignment[i] == block)
            return fennel_gain(degree, weight, block_weight, params)

        wu = records[u].weight
        ww = records[w].weight
        for block in range(k):
            merged = block_gains({u, w}, wu + ww, block)
            split = block_gains({u}, wu, block) + block_gains({w}, ww, block)
            worst = max(worst, abs(merged - split))
            assert abs(merged - split) <= 1e-9
    report("C3 gen-fennel-additivity",
           f"50 weighted graphs, max per-block deviation {worst:.2e}")


def test_c04_oms_single_vs_multipass():
    """One-pass descent == layer-by-layer restreamed multi-section."""
    rng = random.Random(204)
    spec = HierarchySpec.parse("2:2:2", "1:10:100")
    runs = 0
    for trial in range(50):
        n = rng.randint(50, 500)
        stream = random_graph(rng, n, rng.randint(n, 4 * n))
        alpha = fennel_alpha(n, stream.header.m, spec.k)
        state = run_oms(stream, OmsConfig(scorer="fennel", epsilon=0.05),
                        spec=spec)
        multi = run_multisection_multipass(stream, state.tree, spec.k, 0.05,
                                           alpha, "fennel")
        assert state.assignment == multi, f"spec hierarchy trial {trial}"
        runs += 1
        for k, b in ((5, 2), (8, 4), (12, 4), (5, 4), (8, 2), (12, 2)):
            if trial % 8 != 0:
                continue
            config = OmsConfig(scorer="fennel", epsilon=0.05, base=b)
            st = run_oms(stream, config, k=k)
            alpha_k = fennel_alpha(n, stream.header.m, k)
            multi_k = run_multisection_multipass(stream, st.tree, k, 0.05,
                                                 alpha_k, "fennel")
            assert st.assignment == multi_k, f"nh-OMS k={k} b={b}"
            runs += 1
    report("C4 oms-singlepass-equivalence",
           f"{runs} runs node-for-node identical")


def test_c05_balance_guarantee():
    """Every algorithm, k in {2,8,32,128}, eps=0.03, unit weights: balanced."""
    rng = random.Random(205)
    graph = planted_partition_graph(rng, 4000, 16, 0.04, 3000)
    hyper = banded_matrix_hypergraph(random.Random(206), 6000, 4000,
                                     band=5, extra=10)
    total_runs = 0
    for k in (2, 8, 32, 128):
        states = []
        for algorithm in ("hashing", "ldg", "fennel"):
            st = PartitionState(4000, k, 0.03, 4000)
            run_onepass(graph, OnePassConfig(algorithm=algorithm), st)
            states.append((algorithm, st))
        for algorithm in ("ldg", "fennel"):
            st = PartitionState(4000, k, 0.03, 4000)
            run_restream(lambda: graph,
                         OnePassConfig(algorithm=algorithm, passes=2), st)
            states.append((f"re{algorithm}", st))
        for model in ("basic", "extended"):
            st = run_heistream(lambda: graph,
                               HeiStreamConfig(k=k, delta=1024, model=model,
                                               seed=1))
            states.append((f"heistream-{model}", st))
        st = run_heistream(lambda: graph,
                           HeiStreamConfig(k=k, delta=1024, seed=1, passes=2))
        states.append(("heistream-2pass", st))
        st = run_oms(graph, OmsConfig(epsilon=0.03), k=k)
        states.append(("nh-oms", st))
        for objective in ("connectivity", "cutnet"):
            st = run_freight(hyper, FreightConfig(objective=objective, k=k))
            states.append((f"freight-{objective}", st))
        if k == 128:
            st = run_oms(graph, OmsConfig(epsilon=0.03),
                         spec=HierarchySpec.parse("4:16:2", "1:10:100"))
            states.append(("oms-4:16:2", st))
        for name, st in states:
            assert st.max_block_weight() <= st.l_max, \
                f"{name} violated balance at k={k}"
            total_runs += 1
    report("C5 balance-guarantee",
           f"{total_runs} runs, every max block weight <= L_max")


def test_c06_quality_ordering_graphs(quality_graphs):
    """k=32: fennel < hashing on all; heistream <= fennel >=60%;
    2-pass <= 1-pass >=80%."""
    k = 32
    fennel_wins = 0
    heistream_le = 0
    restream_le = 0
    for name, g in quality_graphs:
        n = g.header.n
        hs = PartitionState(n, k, 0.03, n)
        run_onepass(g, OnePassConfig(algorithm="hashing"), hs)
        cut_hash = edge_cut(g, hs.assignment)
        fs = PartitionState(n, k, 0.03, n)
        run_onepass(g, OnePassConfig(algorithm="fennel"), fs)
        cut_fennel = edge_cut(g, fs.assignment)
        one = run_heistream(lambda: g, HeiStreamConfig(
            k=k, delta=2 ** 15, model="extended", seed=3))
        cut_one = edge_cut(g, one.assignment)
        two = run_heistream(lambda: g, HeiStreamConfig(
            k=k, delta=2 ** 15, model="extended", seed=3, passes=2))
        cut_two = edge_cut(g, two.assignment)
        fennel_wins += cut_fennel < cut_hash
        heistream_le += cut_one <= cut_fennel
        restream_le += cut_two <= cut_one
    total = len(quality_graphs)
    assert fennel_wins == total
    assert heistream_le / total >= 0.60
    assert restream_le / total >= 0.80
    report("C6 quality-ordering-graphs",
           f"fennel<hashing {fennel_wins}/{total}, "
           f"heistream<=fennel {heistream_le}/{total}, "
           f"2pass<=1pass {restream_le}/{total}")


def test_c07_quality_ordering_hypergraphs():
    """k=512 row-net instances: FREIGHT beats Hashing on both objectives."""
    k = 512
    seeds_and_shapes = [(301, 12000, 8000, 6, 12), (302, 9000, 7000, 5, 8),
                        (303, 15000, 9000, 6, 10), (304, 8000, 6000, 7, 14),
                        (305, 11000, 10000, 5, 10)]
    con_wins = cut_wins = 0
    for seed, rows, cols, band, extra in seeds_and_shapes:
        h = banded_matrix_hypergraph(random.Random(seed), rows, cols,
                                     band=band, extra=extra)
        hashing = [i % k for i in range(h.header.n)]
        _, conn_hash = cut_net_and_connectivity(h, hashing)
        cut_hash, _ = cut_net_and_connectivity(h, hashing)
        con = run_freight(h, FreightConfig(objective="connectivity", k=k))
        _, conn_freight = cut_net_and_connectivity(h, con.assignment)
        cut = run_freight(h, FreightConfig(objective="cutnet", k=k))
        cut_freight, _ = cut_net_and_connectivity(h, cut.assignment)
        con_wins += conn_freight < conn_hash
        cut_wins += cut_freight <= cut_hash
    assert con_wins == len(seeds_and_shapes)
    assert cut_wins == len(seeds_and_shapes)
    report("C7 quality-ordering-hypergraphs",
           f"freight-con wins {con_wins}/5, freight-cut wins {cut_wins}/5")


def test_c08_mapping_quality(quality_graphs):
    """OMS with adapted alpha beats Fennel+identity on comm cost >=70%."""
    spec = HierarchySpec.parse("4:16:2", "1:10:100")
    wins = 0
    for name, g in quality_graphs:
        n = g.header.n
        oms = run_oms(g, OmsConfig(scorer="fennel", epsilon=0.03), spec=spec)
        j_oms = comm_cost(g, oms.assignment, spec)
        fs = PartitionState(n, spec.k, 0.03, n)
        run_onepass(g, OnePassConfig(algorithm="fennel"), fs)
        j_fennel = comm_cost(g, fs.assignment, spec)
        wins += j_oms < j_fennel
    total = len(quality_graphs)
    assert wins / total >= 0.70
    report("C8 mapping-quality", f"OMS < fennel-identity on {wins}/{total}")


def _k_independence_stream():
    rng = random.Random(900)
    n, m = 20000, 500_000          # 1e6 pins, nets of size 2
    incident = [[] for _ in range(n)]
    adjacency = [[] for _ in range(n)]
    for e in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        while v == u:
            v = rng.randrange(n)
        incident[u].append((e, 1))
        incident[v].append((e, 1))
        adjacency[u].append(v)     # clique expansion of a size-2 net
        adjacency[v].append(u)
    records = [StreamedHyperNodeRecord(i, 1, incident[i]) for i in range(n)]
    stream = MemoryHypergraphStream(HypergraphStreamHeader(n, m, 2 * m),
                                    records)
    return stream, adjacency, n, m


def _naive_fennel_runtime(adjacency, n, m, k):
    alpha_gamma = fennel_alpha(n, m, k) * 1.5
    lmax = compute_lmax(n, k, 0.03)
    assign = [-1] * n
    weights = [0] * k
    sqrt = math.sqrt
    start = time.perf_counter()
    for u in range(n):
        gains = {}
        for v in adjacency[u]:
            b = assign[v]
            if b >= 0:
                gains[b] = gains.get(b, 0) + 1
        get = gains.get
        best = -1
        best_key = None
        for i in range(k):
            wi = weights[i]
            if wi + 1 > lmax:
                continue
            key = (get(i, 0) - alpha_gamma * sqrt(wi), -wi, -i)
            if best_key is None or key > best_key:
                best, best_key = i, key
        assign[u] = best
        weights[best] += 1
    return time.perf_counter() - start


def test_c09_freight_k_independence():
    """FREIGHT core runtime barely moves from k=512 to k=2560 while the naive
    O(nk) Fennel on the clique expansion is far slower and keeps growing.

    A naive implementation costs A + B*k with A the k-independent pin work,
    so its 512->2560 growth is mathematically capped below the raw k ratio
    of 5; the check contrast is therefore FREIGHT-relative, mirroring the
    reported many-fold speedups, with the raw growth reported alongside.
    """
    stream, adjacency, n, m = _k_independence_stream()
    freight_times = {}
    for k in (512, 2560):
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            run_freight(stream, FreightConfig(objective="connectivity", k=k))
            best = min(best, time.perf_counter() - start)
        freight_times[k] = best
    naive_times = {k: _naive_fennel_runtime(adjacency, n, m, k)
                   for k in (512, 2560)}

    freight_ratio = freight_times[2560] / freight_times[512]
    naive_growth = naive_times[2560] / naive_times[512]
    slowdown = naive_times[2560] / freight_times[2560]
    assert freight_ratio <= 1.5, f"FREIGHT ratio {freight_ratio:.2f}"
    assert slowdown >= 5.0, f"naive only {slowdown:.1f}x slower"
    assert naive_growth > freight_ratio
    report("C9 freight-k-independence",
           f"freight {freight_times[512]:.2f}s->{freight_times[2560]:.2f}s "
           f"(x{freight_ratio:.2f}), naive {naive_times[512]:.2f}s->"
           f"{naive_times[2560]:.2f}s (x{naive_growth:.2f}), "
           f"naive/freight at k=2560: {slowdown:.1f}x")


def test_c10_fennel_freight_equivalence_on_graphs():
    """Graphs as size-2-net hypergraphs: identical partitions."""
    rng = random.Random(210)
    for trial in range(20):
        n = rng.randint(50, 300)
        m = rng.randint(n, 3 * n)
        graph = random_graph(rng, n, m)
        hyper = graph_as_hypergraph(graph)
        k = 4 if trial % 2 == 0 else 8
        freight_state = run_freight(
            hyper, FreightConfig(objective="connectivity", k=k))
        fennel_state = run_fennel_twin(graph, k)
        assert freight_state.assignment == fennel_state.assignment, \
            f"trial {trial}"
    report("C10 fennel-freight-equivalence", "20 graphs identical")


def test_c11_distance_oracle():
    """All-pairs binary-notation distances == division-based oracle."""
    rng = random.Random(211)
    hierarchies = [HierarchySpec([8, 8, 8, 8], [1, 10, 100, 1000])]
    while len(hierarchies) < 20:
        layers = rng.randint(1, 4)
        fanouts = [rng.randint(2, 8) for _ in range(layers)]
        if math.prod(fanouts) > 4096:
            continue
        distances = sorted(rng.randint(1, 1000) for _ in range(layers))
        hierarchies.append(HierarchySpec(fanouts, distances))
    start = time.perf_counter()
    pairs = 0
    for spec in hierarchies:
        binary = spec.distance_matrix()
        division = spec.division_distance_matrix()
        assert np.array_equal(binary, division), spec.fanouts
        pairs += spec.k * spec.k
        for _ in range(50):   # scalar route agrees with the matrices
            a, b = rng.randrange(spec.k), rng.randrange(spec.k)
            assert spec.distance(a, b) == binary[a, b]
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    report("C11 distance-oracle",
           f"{pairs} pairs over 20 hierarchies, zero mismatches, "
           f"{elapsed:.1f}s")


def test_c12_fennel_k_independence(monkeypatch):
    """Graph Fennel scores only a node's neighbor blocks plus the lightest
    block, at k=512 as at k=4096, in the first and in a ReFennel pass.

    Counted, not timed: every ``fennel_gain`` call scores one block, so the
    check is exact where a wall-clock ratio would be noisy.
    """
    graph = random_graph(random.Random(212), 6000, 15000)
    n, m = graph.header.n, graph.header.m
    gain_calls = [0]
    gain = onepass.fennel_gain
    assign = onepass.fennel_assign

    def counting_gain(*args):
        gain_calls[0] += 1
        return gain(*args)

    def checked_assign(record, state, params):
        blocks = {state.assignment[v] for v, _ in record.neighbors}
        blocks.discard(UNASSIGNED)
        before = gain_calls[0]
        block = assign(record, state, params)
        assert gain_calls[0] - before <= len(blocks) + 1, \
            f"node {record.id} at k={state.k}"
        return block

    monkeypatch.setattr(onepass, "fennel_gain", counting_gain)
    monkeypatch.setattr(onepass, "fennel_assign", checked_assign)
    scored = {}
    for k in (512, 4096):
        gain_calls[0] = 0
        state = PartitionState(n, k, 0.03, n)
        run_restream(lambda: graph,
                     OnePassConfig(algorithm="fennel", passes=2), state)
        assert state.is_balanced()
        scored[k] = gain_calls[0]
        assert scored[k] <= 2 * (n + 2 * m)
    report("C12 fennel-k-independence",
           f"blocks scored over 2 passes: {scored[512]} at k=512, "
           f"{scored[4096]} at k=4096 (a full scan: {2 * n * 4096})")
