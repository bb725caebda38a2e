"""Differential test of every algorithm against an independent oracle.

Each case writes a random METIS graph or hMetis hypergraph (n <= 40, and
m <= 40 nets; fmt 0, 1, 10 or 11; edge and net weights up to 2**40, node
weights up to 50, ``%`` lines), runs the CLI through ``cli.main`` with
``SPOOL_CHUNK`` patched to 4, so the chunk kernels and HeiStream's batches
cross chunk edges, and checks the run against ``perfbench/oracle.py``,
which parses the file and recounts the partition without importing
``streamdecomp``:

* the run exits 0 and writes one block id in ``[0, k)`` per node;
* its ``edge_cut`` (``cut_net`` and ``connectivity`` for ``hpartition``),
  ``imbalance`` and (for ``map``) ``comm_cost`` equal the oracle's recount,
  and so does ``balanced``;
* ``violations == 0`` implies every block is within ``L_max`` (hashing,
  which ignores weights, is exempt), and FREIGHT on unit node weights,
  whose lightest block always has room, reports no violation;
* ``metrics`` on the written partition reports what the run reported.

The graph runs are every ``partition`` algorithm (OMS at bases 2 to 5
with 0 to 2 hashed bottom layers) and ``map``, also on hierarchies with a
fan-out-1 layer or a distance of 0, which the oracle's ``pe_distance``
does not collapse.  A hypergraph first goes through ``transpose``, whose
output must be the test's own node-major rendering.  ``bench`` rows must
equal the recounts of the matching ``partition --time-core`` runs.  And,
with no oracle, ``metrics`` on a graph relabeled by a seeded permutation,
with its partition permuted to match, reports what it reports on the
original.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import math
import os
import random

import pytest

from streamdecomp import streams
from streamdecomp.cli import main

_spec = importlib.util.spec_from_file_location(
    "perfbench_oracle", os.path.join(os.path.dirname(__file__), os.pardir,
                                     "perfbench", "oracle.py"))
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

FMTS = ("0", "1", "10", "11")
QUALITY = ("edge_cut", "cut_net", "connectivity", "imbalance", "comm_cost")


def write_graph(path, rng: random.Random, fmt: str) -> int:
    """A random graph as METIS text in ``fmt``, with ``%`` lines; its n."""
    n = rng.randint(1, 40)
    node_w, edge_w = fmt in ("10", "11"), fmt in ("1", "11")
    rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    m = 0
    density = rng.choice([0.0, 0.05, 0.15, 0.4])
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                w = rng.choice([1, rng.randint(1, 5), rng.randint(1, 2**40)]) \
                    if edge_w else 1
                rows[u].append((v, w))
                rows[v].append((u, w))
                m += 1
    lines = [f"{n} {m}" + ("" if fmt == "0" else f" {fmt}")]
    for u, row in enumerate(rows):
        if rng.random() < 0.1:
            lines.append("% a comment line")
        rng.shuffle(row)
        tokens = [str(rng.randint(1, 50))] if node_w else []
        for v, w in row:
            tokens += [str(v + 1), str(w)] if edge_w else [str(v + 1)]
        lines.append(" ".join(tokens))
    path.write_text("\n".join(lines) + "\n")
    return n


# Hierarchies with a fan-out-1 layer or a distance of 0: k of 1 to 12.
COLLAPSING = [("1:4", "5:10"), ("4:1", "1:7"), ("2:1:3", "0:4:9"),
              ("3:2", "0:6"), ("1:1", "3:5"), ("2:2:1", "1:0:8"),
              ("1:3:1", "2:5:0"), ("2:3", "4:0")]


def _cases() -> list[tuple]:
    """(case seed, fmt, command args, passes, time_core) of every case."""
    cases = []
    for algorithm in ("hashing", "ldg", "fennel"):
        for passes in (1, 2, 3):
            for core in (False, True):
                for fmt in FMTS:
                    cases.append((fmt, ["--algorithm", algorithm], passes,
                                  core))
    for delta in ("1", "2", "n", "n+2"):
        for model in ("basic", "extended"):
            for passes in (1, 2):
                for core in (False, True):
                    for fmt in FMTS:
                        cases.append((fmt, ["--algorithm", "heistream",
                                            "--delta", delta,
                                            "--model", model], passes, core))
    for core in (False, True):
        for fmt in FMTS:
            cases.append((fmt, ["--algorithm", "oms"], 1, core))
            for scorer in ("fennel", "ldg"):
                cases.append((fmt, ["map", "--algorithm", scorer], 1, core))
    # OMS bases and collapsing hierarchies: half the fmts with --time-core
    for base in ("2", "3", "4", "5"):
        for layers in ("0", "1", "2"):
            for fmt in FMTS:
                cases.append((fmt, ["--algorithm", "oms", "--base", base,
                                    "--hash-bottom-layers", layers], 1,
                              fmt in ("1", "10")))
    for i, (fanouts, distances) in enumerate(COLLAPSING):
        for scorer in ("fennel", "ldg"):
            for fmt in FMTS:
                cases.append((fmt, ["map", "--algorithm", scorer,
                                    "--hierarchy", fanouts,
                                    "--distances", distances,
                                    "--hash-bottom-layers", str(i % 2)],
                              1, fmt in ("0", "11")))
    return [(seed, *case) for seed, case in enumerate(cases)]


CASES = _cases()


def _id(case) -> str:
    seed, fmt, args, passes, core = case
    name = "-".join(a.lstrip("-") for a in args if a != "--algorithm")
    return f"{seed}-fmt{fmt}-{name}-p{passes}" + ("-tc" if core else "")


@pytest.mark.parametrize("case", CASES, ids=map(_id, CASES))
def test_run_matches_oracle(case, tmp_path, monkeypatch, capsys):
    seed, fmt, args, passes, core = case
    monkeypatch.setattr(streams, "SPOOL_CHUNK", 4)
    rng = random.Random(seed)
    graph = tmp_path / "g.graph"
    n = write_graph(graph, rng, fmt)
    epsilon = rng.choice(["0", "0.03", "0.5"])
    args = [{"n": str(n), "n+2": str(n + 2)}.get(a, a) for a in args]
    hierarchy = None
    if args[0] == "map" and "--hierarchy" in args:
        fanouts, distances = (
            [int(x) for x in args[args.index(flag) + 1].split(":")]
            for flag in ("--hierarchy", "--distances"))
        hierarchy = (fanouts, distances)
        k = math.prod(fanouts)
        shape = args[args.index("--hierarchy"):args.index("--distances") + 2]
        argv = args
    elif args[0] == "map":
        fanouts = [rng.randint(2, 3), rng.randint(2, 3)]
        distances = [rng.randint(1, 5), rng.randint(6, 20)]
        hierarchy = (fanouts, distances)
        k = fanouts[0] * fanouts[1]
        shape = ["--hierarchy", ":".join(map(str, fanouts)),
                 "--distances", ":".join(map(str, distances))]
        argv = [*args, *shape]
    else:
        k = rng.choice([2, 3, 4, 7])
        shape = ["--k", str(k)]
        argv = ["partition", *args, *shape, "--passes", str(passes),
                "--seed", str(seed)]
    part, run_json = tmp_path / "g.part", tmp_path / "run.json"
    argv += ["--input", str(graph), "--epsilon", epsilon,
             "--output", str(part), "--metrics-json", str(run_json)]
    assert main(argv + (["--time-core"] if core else [])) == 0, \
        capsys.readouterr().err

    truth = oracle.recount(oracle.Graph(str(graph)),
                           oracle.read_partition(str(part), n, k), k,
                           float(epsilon), hierarchy)
    report = json.loads(run_json.read_text())
    assert report["k"] == k
    for key in ("edge_cut", "imbalance", "balanced") + \
            (("comm_cost",) if hierarchy else ()):
        assert report[key] == truth[key], key
    if report["violations"] == 0 and "hashing" not in args:
        assert truth["max_weight"] <= truth["l_max"]

    metrics_json = tmp_path / "metrics.json"
    assert main(["metrics", "--input", str(graph), "--partition", str(part),
                 "--epsilon", epsilon, "--metrics-json", str(metrics_json),
                 *shape]) == 0, capsys.readouterr().err
    recount = json.loads(metrics_json.read_text())
    for key in QUALITY:
        assert recount[key] == report[key], key


def write_hmetis(path, rng: random.Random, fmt: str) -> tuple[int, str]:
    """A random hypergraph as hMetis (net-major) text in ``fmt``, with
    ``%`` lines; its n and the node-major text ``transpose`` must write."""
    n, m = rng.randint(1, 40), rng.randint(0, 40)
    node_w, net_w = fmt in ("10", "11"), fmt in ("1", "11")
    nets = [rng.sample(range(n), rng.randint(1, min(n, 8))) for _ in range(m)]
    net_weights = [rng.choice([1, rng.randint(1, 5), rng.randint(1, 2**40)])
                   if net_w else 1 for _ in range(m)]
    node_weights = [rng.randint(1, 50) for _ in range(n)]
    lines = [f"{m} {n}" + (f" {fmt}" if fmt != "0" or rng.random() < 0.5
                           else "")]
    for pins, w in zip(nets, net_weights):
        if rng.random() < 0.1:
            lines.append("% a comment line")
        lines.append(" ".join(map(str, ([w] if net_w else [])
                                  + [v + 1 for v in pins])))
    if node_w:
        lines += map(str, node_weights)
    path.write_text("\n".join(lines) + "\n")

    incident: list[list[int]] = [[] for _ in range(n)]
    for e, pins in enumerate(nets):
        for v in pins:
            incident[v].append(e)
    fmt_bits = 10 * node_w + net_w
    rendered = [f"{n} {m} {sum(map(len, nets))}"
                + (f" {fmt_bits}" if fmt_bits else "")]
    for v, nets_of_v in enumerate(incident):
        tokens = [node_weights[v]] if node_w else []
        for e in nets_of_v:
            tokens += [e + 1, net_weights[e]] if net_w else [e + 1]
        rendered.append(" ".join(map(str, tokens)))
    return n, "\n".join(rendered) + "\n"


HYPER_CASES = [(seed, fmt, objective, core)
               for seed in range(4) for fmt in FMTS
               for objective in ("con", "cut") for core in (False, True)]


@pytest.mark.parametrize(
    "case", HYPER_CASES,
    ids=[f"{seed}-fmt{fmt}-{objective}" + ("-tc" if core else "")
         for seed, fmt, objective, core in HYPER_CASES])
def test_hypergraph_run_matches_oracle(case, tmp_path, monkeypatch, capsys):
    seed, fmt, objective, core = case
    monkeypatch.setattr(streams, "SPOOL_CHUNK", 4)
    rng = random.Random(f"hyper-{seed}-{fmt}-{objective}-{core}")
    hmetis, hgr = tmp_path / "h.hmetis", tmp_path / "h.hgr"
    n, rendered = write_hmetis(hmetis, rng, fmt)
    assert main(["transpose", "--input", str(hmetis),
                 "--output", str(hgr)]) == 0, capsys.readouterr().err
    assert hgr.read_text() == rendered

    epsilon = rng.choice(["0", "0.03", "0.5"])
    k = rng.choice([2, 3, 4, 7])
    part, run_json = tmp_path / "h.part", tmp_path / "run.json"
    assert main(["hpartition", "--input", str(hgr), "--objective", objective,
                 "--k", str(k), "--epsilon", epsilon, "--output", str(part),
                 "--metrics-json", str(run_json)]
                + (["--time-core"] if core else [])) == 0, \
        capsys.readouterr().err
    truth = oracle.recount(oracle.Hypergraph(str(hgr)),
                           oracle.read_partition(str(part), n, k), k,
                           float(epsilon))
    report = json.loads(run_json.read_text())
    assert report["k"] == k
    for key in ("cut_net", "connectivity", "imbalance", "balanced"):
        assert report[key] == truth[key], key
    if fmt in ("0", "1"):   # unit nodes: the lightest block always has room
        assert report["violations"] == 0
    if report["violations"] == 0:
        assert truth["max_weight"] <= truth["l_max"]

    metrics_json = tmp_path / "metrics.json"
    assert main(["metrics", "--hypergraph", "--input", str(hgr),
                 "--partition", str(part), "--k", str(k), "--epsilon",
                 epsilon, "--metrics-json", str(metrics_json)]) == 0, \
        capsys.readouterr().err
    recount = json.loads(metrics_json.read_text())
    for key in QUALITY:
        assert recount[key] == report[key], key


BENCH_ALGORITHMS = ("hashing", "ldg", "fennel", "heistream")
BENCH_CASES = [(seed, fmt, options) for seed, fmt in enumerate(FMTS)
               for options in ([], ["--passes", "2", "--delta", "5"])]


@pytest.mark.parametrize(
    "case", BENCH_CASES,
    ids=[f"{seed}-fmt{fmt}" + ("-p2" if options else "")
         for seed, fmt, options in BENCH_CASES])
def test_bench_rows_match_partition(case, tmp_path, monkeypatch, capsys):
    seed, fmt, options = case
    monkeypatch.setattr(streams, "SPOOL_CHUNK", 4)
    rng = random.Random(f"bench-{seed}-{fmt}-{options}")
    graph = tmp_path / "g.graph"
    n = write_graph(graph, rng, fmt)
    k = rng.choice([2, 3, 4, 7])
    epsilon = rng.choice(["0", "0.03", "0.5"])
    shared = ["--input", str(graph), "--k", str(k), "--seed", str(seed),
              "--epsilon", epsilon, *options]
    rows = tmp_path / "rows.csv"
    assert main(["bench", "--algorithms", ",".join(BENCH_ALGORITHMS),
                 *shared, "--output", str(rows)]) == 0, \
        capsys.readouterr().err

    expected, reports = {}, {}
    for algorithm in BENCH_ALGORITHMS:
        part, run_json = tmp_path / f"{algorithm}.part", tmp_path / "run.json"
        assert main(["partition", "--algorithm", algorithm, *shared,
                     "--time-core", "--output", str(part),
                     "--metrics-json", str(run_json)]) == 0, \
            capsys.readouterr().err
        reports[algorithm] = json.loads(run_json.read_text())
        truth = oracle.recount(oracle.Graph(str(graph)),
                               oracle.read_partition(str(part), n, k), k,
                               float(epsilon))
        # balance is owed only where a run reports no violation
        expected[algorithm] = (k, truth, algorithm == "hashing"
                               or reports[algorithm]["violations"] > 0)
    assert oracle.check_bench_rows(str(rows), expected) == []
    with open(rows, newline="") as fh:
        for row in csv.DictReader(fh):
            report = reports[row["algorithm"]]
            assert (int(row["edge_cut"]), float(row["imbalance"])) == \
                (report["edge_cut"], report["imbalance"])


def relabeled(graph, perm: list[int], fmt: str) -> str:
    """``graph`` (an ``oracle.Graph``) as METIS text in ``fmt`` with node
    ``u`` renamed ``perm[u]``."""
    node_w, edge_w = fmt in ("10", "11"), fmt in ("1", "11")
    rows: list[list[tuple[int, int]]] = [[] for _ in range(graph.n)]
    for u, v, w in graph.edges:
        rows[perm[u]].append((perm[v], w))
        rows[perm[v]].append((perm[u], w))
    weights = [0] * graph.n
    for u, w in enumerate(graph.node_weights):
        weights[perm[u]] = w
    lines = [f"{graph.n} {graph.m}" + ("" if fmt == "0" else f" {fmt}")]
    for x, row in enumerate(rows):
        tokens = [weights[x]] if node_w else []
        for v, w in row:
            tokens += [v + 1, w] if edge_w else [v + 1]
        lines.append(" ".join(map(str, tokens)))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", range(8))
def test_relabeling_keeps_the_metrics(seed, tmp_path, capsys):
    # metamorphic, with no oracle: a graph relabeled by a seeded
    # permutation, with its partition permuted to match, has the metrics
    # of the original
    rng = random.Random(f"relabel-{seed}")
    fmt = FMTS[seed % len(FMTS)]
    graph = tmp_path / "g.graph"
    n = write_graph(graph, rng, fmt)
    perm = list(range(n))
    rng.shuffle(perm)
    moved = tmp_path / "moved.graph"
    moved.write_text(relabeled(oracle.Graph(str(graph)), perm, fmt))
    shape = ["--hierarchy", "2:2", "--distances", "1:10"] if seed % 2 \
        else ["--k", str(rng.choice([2, 3, 7]))]
    k = 4 if seed % 2 else int(shape[1])
    blocks = [rng.randrange(k) for _ in range(n)]
    moved_blocks = [0] * n
    for u, b in enumerate(blocks):
        moved_blocks[perm[u]] = b
    reports = []
    for path, assignment in ((graph, blocks), (moved, moved_blocks)):
        part, out = tmp_path / "p.part", tmp_path / "m.json"
        streams.write_partition(str(part), assignment)
        assert main(["metrics", "--input", str(path), "--partition",
                     str(part), *shape, "--metrics-json", str(out)]) == 0, \
            capsys.readouterr().err
        report = json.loads(out.read_text())
        reports.append({key: report[key] for key in QUALITY})
    assert reports[0] == reports[1]
    assert (reports[0]["comm_cost"] is None) == (seed % 2 == 0)
