"""Differential test of every graph algorithm against an independent oracle.

Each case writes a random METIS graph (n <= 40; fmt 0, 1, 10 or 11; edge
weights up to 2**40, node weights up to 50, ``%`` lines), runs one
``partition`` or ``map`` through ``cli.main`` with ``SPOOL_CHUNK`` patched
to 4, so the chunk kernels and HeiStream's batches cross chunk edges, and
checks the run against ``perfbench/oracle.py``, which parses the file and
recounts the partition without importing ``streamdecomp``:

* the run exits 0 and writes one block id in ``[0, k)`` per node;
* its ``edge_cut``, ``imbalance`` and (for ``map``) ``comm_cost`` equal the
  oracle's recount, and so does ``balanced``;
* ``violations == 0`` implies every block is within ``L_max`` (hashing,
  which ignores weights, is exempt);
* ``metrics`` on the written partition reports what the run reported.
"""

from __future__ import annotations

import importlib.util
import json
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
    if args[0] == "map":
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
