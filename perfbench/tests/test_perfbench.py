"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q

The end-to-end cases run ``run.py`` on shrunken inputs (``--scale``), so
they check plumbing, seeding, the oracle and the trace, not speed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import oracle
import run
import spans
from plan import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
SMOKE_SCALE = "0.04"


def bench(workload: str, seed: int, trace: int = 0, root: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.1",
         "--trace", str(trace), "--scale", SMOKE_SCALE],
        cwd=root, capture_output=True, text=True, timeout=170)
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


QUALITY = ("edge_cut_ratio", "hyper_objective_ratio", "comm_cost_per_edge")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric(workload):
    out = result(bench(workload, 11))
    assert out["correct"] is True
    assert out["attempted"] >= len(WORKLOADS[workload]["ops"])
    if not WORKLOADS[workload]["probe"]:
        assert out["failed"] == 0
    names = {m["name"]: m["unit"] for m in declared()["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == names
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_seed_reaches_the_generator():
    first = result(bench("narrow-k-restream", 5))["metrics"]
    again = result(bench("narrow-k-restream", 5))["metrics"]
    other = result(bench("narrow-k-restream", 6))["metrics"]
    assert [first[q]["value"] for q in QUALITY] == \
        [again[q]["value"] for q in QUALITY]
    assert [first[q]["value"] for q in QUALITY] != \
        [other[q]["value"] for q in QUALITY]


@pytest.mark.parametrize("workload, layer", [
    ("wide-k", "onepass.fennel_assign_calls"),
    ("narrow-k-restream", "onepass.run_restream_s"),
    ("buffered", "heistream.coarsen_s")])
def test_traced_run_prints_every_per_layer_metric(workload, layer):
    out = result(bench(workload, 3, trace=1))
    names = {m["name"]: m["unit"] for m in declared()["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == names
    assert set(names) == set(run.per_layer_names())
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert metrics[layer] > 0
    assert metrics["streams.graph_records"] > 0
    assert metrics["metrics.edge_cut_s"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("wide-k", 1, root=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _graph(tmp_path, text: str) -> oracle.Graph:
    path = tmp_path / "g.graph"
    path.write_text(text)
    return oracle.Graph(str(path))


def test_oracle_recounts_and_flags_disagreement(tmp_path):
    # path 1-2-3-4 with node weights 1, 1, 1, 3
    graph = _graph(tmp_path, "4 3 10\n1 2\n1 1 3\n1 2 4\n3 3\n")
    truth = oracle.recount(graph, [0, 0, 1, 1], 2, 0.03,
                           hierarchy=([2], [7]))
    assert truth["edge_cut"] == 1 and truth["comm_cost"] == 7
    assert truth["max_weight"] == 4 and truth["l_max"] == 4
    report = {"k": 2, "edge_cut": 1, "comm_cost": 7,
              "imbalance": truth["imbalance"], "balanced": True}
    assert oracle.check_report(report, truth, 2, False) == []
    assert oracle.check_report(dict(report, edge_cut=2), truth, 2, False)
    assert oracle.check_report(dict(report, balanced=False), truth, 2, False)
    heavy = oracle.recount(graph, [0, 1, 1, 1], 2, 0.03)
    assert not heavy["balanced"]
    report = {"k": 2, "edge_cut": 1, "imbalance": heavy["imbalance"],
              "balanced": False}
    assert oracle.check_report(report, heavy, 2, True) == []
    assert oracle.check_report(report, heavy, 2, False)


def test_oracle_hypergraph_objectives(tmp_path):
    path = tmp_path / "h.hgr"
    # nets: {0,1,2}, {2,3}; node-major with node weights
    path.write_text("4 2 5 10\n1 1\n1 1\n1 1 2\n2 2\n")
    hyper = oracle.Hypergraph(str(path))
    truth = oracle.recount(hyper, [0, 1, 2, 2], 3, 0.5)
    assert (truth["cut_net"], truth["connectivity"]) == (1, 2)


def test_tracer_self_time_excludes_children():
    tracer = spans.Tracer()
    inner = tracer.timed("inner", lambda: sum(range(20000)))
    outer = tracer.timed("outer", lambda: [inner() for _ in range(3)])
    outer()
    count, total, self_s = tracer.stats["outer"]
    assert count == 1 and tracer.stats["inner"][0] == 3
    assert self_s == pytest.approx(total - tracer.stats["inner"][1])
