import json
import math
import random
from pathlib import Path

import pytest

from streamdecomp.bench import geometric_mean, read_rows, summarize, write_rows
from streamdecomp.cli import main
from streamdecomp.partition import compute_lmax
from streamdecomp.streams import read_partition, write_graph

from generators import random_graph, random_hypergraph


@pytest.fixture
def graph_file(tmp_path):
    rng = random.Random(7)
    stream = random_graph(rng, 60, 150)
    path = str(tmp_path / "g.graph")
    edges = []
    seen = set()
    for record in stream:
        for v, w in record.neighbors:
            key = (min(record.id, v), max(record.id, v))
            if key not in seen:
                seen.add(key)
                edges.append((key[0], key[1], w))
    write_graph(path, 60, edges)
    return path


@pytest.fixture
def hmetis_file(tmp_path):
    rng = random.Random(8)
    stream = random_hypergraph(rng, 30, 25, max_pins=5)
    nets = {}
    for record in stream:
        for e, _ in record.incident_nets:
            nets.setdefault(e, []).append(record.id + 1)
    path = tmp_path / "h.hgr"
    lines = [f"{len(nets)} 30"]
    for e in sorted(nets):
        lines.append(" ".join(map(str, nets[e])))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestGeometricMean:
    def test_single_row(self):
        assert geometric_mean([42.0]) == pytest.approx(42.0)

    def test_1_and_100(self):
        assert geometric_mean([1.0, 100.0]) == pytest.approx(10.0)

    def test_zero_falls_back_to_arithmetic(self):
        assert geometric_mean([0.0, 10.0]) == pytest.approx(5.0)


class TestSummarize:
    def test_matches_manual_recomputation(self):
        rows = []
        rng = random.Random(1)
        for algorithm in ("fennel", "hashing"):
            for k in (2, 4):
                for seed in range(5):
                    rows.append({
                        "edge_cut": rng.randint(1, 100),
                        "cut_net": None, "connectivity": None,
                        "imbalance": 0.01, "comm_cost": None,
                        "runtime_ms": rng.uniform(0.1, 3.0),
                        "algorithm": algorithm, "k": k,
                        "epsilon": 0.03, "seed": seed,
                    })
        # 30-row fixture through the CSV round trip
        import tempfile, os
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "rows.csv")
            write_rows(path, rows)
            loaded = read_rows(path)
        summary = summarize(loaded)
        assert len(summary) == 4
        by_key = {(s["algorithm"], s["k"]): s for s in summary}
        for algorithm in ("fennel", "hashing"):
            for k in (2, 4):
                group = [r for r in rows
                         if r["algorithm"] == algorithm and r["k"] == k]
                cuts = [r["edge_cut"] for r in group]
                expected = math.exp(sum(math.log(c) for c in cuts) / len(cuts))
                assert by_key[(algorithm, str(k))]["edge_cut"] == \
                    pytest.approx(expected)
                assert by_key[(algorithm, str(k))]["runs"] == 5


class TestCliPartition:
    def test_partition_writes_files(self, graph_file, tmp_path, capsys):
        out = str(tmp_path / "part.txt")
        mjson = str(tmp_path / "metrics.json")
        code = main(["partition", "--input", graph_file, "--algorithm",
                     "fennel", "--k", "4", "--output", out,
                     "--metrics-json", mjson, "--seed", "1"])
        assert code == 0
        blocks = read_partition(out)
        assert len(blocks) == 60
        assert all(0 <= b < 4 for b in blocks)
        payload = json.loads(Path(mjson).read_text())
        for key in ("edge_cut", "cut_net", "connectivity", "imbalance",
                    "comm_cost", "runtime_ms", "algorithm", "k", "epsilon",
                    "seed"):
            assert key in payload
        assert payload["algorithm"] == "fennel"
        assert payload["runspec"]["seed"] == 1

    def test_metrics_idempotence(self, graph_file, tmp_path, capsys):
        out = str(tmp_path / "part.txt")
        mjson = str(tmp_path / "metrics.json")
        assert main(["partition", "--input", graph_file, "--algorithm", "ldg",
                     "--k", "4", "--output", out, "--metrics-json", mjson]) == 0
        first = json.loads(Path(mjson).read_text())
        mjson2 = str(tmp_path / "metrics2.json")
        assert main(["metrics", "--input", graph_file, "--partition", out,
                     "--k", "4", "--metrics-json", mjson2]) == 0
        second = json.loads(Path(mjson2).read_text())
        assert second["edge_cut"] == first["edge_cut"]
        assert second["imbalance"] == pytest.approx(first["imbalance"])

    def test_all_graph_algorithms_run(self, graph_file, tmp_path, capsys):
        for algorithm in ("hashing", "ldg", "fennel", "heistream", "oms"):
            out = str(tmp_path / f"{algorithm}.txt")
            code = main(["partition", "--input", graph_file, "--algorithm",
                         algorithm, "--k", "4", "--output", out,
                         "--delta", "16"])
            assert code == 0, algorithm
            assert len(read_partition(out)) == 60

    def test_partition_time_core(self, graph_file, tmp_path, capsys):
        mjson = str(tmp_path / "m.json")
        assert main(["partition", "--input", graph_file, "--k", "2",
                     "--time-core", "--metrics-json", mjson]) == 0
        payload = json.loads(Path(mjson).read_text())
        assert payload["runtime_core_ms"] <= payload["runtime_total_ms"]


class TestCliHpartitionAndMap:
    def test_transpose_then_hpartition(self, hmetis_file, tmp_path, capsys):
        nodemajor = str(tmp_path / "nodes.hgr")
        assert main(["transpose", "--input", hmetis_file,
                     "--output", nodemajor]) == 0
        out = str(tmp_path / "part.txt")
        mjson = str(tmp_path / "m.json")
        code = main(["hpartition", "--input", nodemajor, "--objective", "con",
                     "--k", "4", "--output", out, "--metrics-json", mjson])
        assert code == 0
        payload = json.loads(Path(mjson).read_text())
        assert payload["cut_net"] is not None
        assert payload["connectivity"] >= payload["cut_net"]
        assert payload["algorithm"] == "freight-con"

    def test_map_reports_comm_cost(self, graph_file, tmp_path, capsys):
        mjson = str(tmp_path / "m.json")
        code = main(["map", "--input", graph_file, "--hierarchy", "2:2",
                     "--distances", "1:10", "--metrics-json", mjson])
        assert code == 0
        payload = json.loads(Path(mjson).read_text())
        assert payload["comm_cost"] is not None
        assert payload["k"] == 4

    def test_env_seed_fallback(self, graph_file, tmp_path, capsys,
                               monkeypatch):
        monkeypatch.setenv("STREAMDECOMP_SEED", "77")
        mjson = str(tmp_path / "m.json")
        assert main(["partition", "--input", graph_file, "--k", "2",
                     "--metrics-json", mjson]) == 0
        assert json.loads(Path(mjson).read_text())["seed"] == 77


class TestCliErrors:
    def test_usage_error_is_exit_1(self, capsys):
        assert main(["partition", "--input", "x"]) == 1   # missing --k

    def test_missing_file_is_exit_2(self, capsys, tmp_path):
        assert main(["partition", "--input", str(tmp_path / "nope.graph"),
                     "--k", "2"]) == 2

    def test_malformed_file_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.graph"
        bad.write_text("3 5\n2\n1 3\n2\n")   # edge count mismatch
        assert main(["partition", "--input", str(bad), "--k", "2"]) == 2


class TestCliBench:
    def test_bench_grid_and_summary(self, graph_file, tmp_path, capsys):
        out = str(tmp_path / "rows.csv")
        summary_path = str(tmp_path / "summary.json")
        code = main(["bench", "--input", graph_file, "--algorithms",
                     "hashing,ldg,fennel", "--k", "2,4", "--repeats", "2",
                     "--output", out, "--summary", summary_path])
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 3 * 2 * 2   # algorithms x k x repeats
        assert {r["algorithm"] for r in rows} == {"hashing", "ldg", "fennel"}
        summary = json.loads(Path(summary_path).read_text())
        assert len(summary) == 6
        # fennel should not cut more than hashing on this seeded instance
        by_key = {(s["algorithm"], s["k"]): s for s in summary}
        assert by_key[("fennel", "4")]["edge_cut"] <= \
            by_key[("hashing", "4")]["edge_cut"]


def _weighted_graph_file(tmp_path, edge_weights: bool) -> tuple[str, list[int]]:
    rng = random.Random(12 if edge_weights else 11)
    stream = random_graph(rng, 300, 900, max_edge_weight=9 if edge_weights
                          else 1, max_node_weight=20)
    edges = [(r.id, v, w) for r in stream for v, w in r.neighbors if r.id < v]
    weights = [r.weight for r in stream]
    path = str(tmp_path / f"w{int(edge_weights)}.graph")
    write_graph(path, 300, edges, weights)
    return path, weights


def _weighted_hypergraph_file(tmp_path) -> tuple[str, list[int]]:
    stream = random_hypergraph(random.Random(13), 300, 250, max_pins=6,
                               max_node_weight=20)
    lines = [f"300 250 {sum(len(r.incident_nets) for r in stream)} 10"]
    for r in stream:
        lines.append(" ".join([str(r.weight)] +
                              [str(e + 1) for e, _ in r.incident_nets]))
    path = tmp_path / "w.hgr"
    path.write_text("\n".join(lines) + "\n")
    return str(path), [r.weight for r in stream]


class TestCliWeightedInputs:
    """c(V) comes from the node weights: every algorithm keeps the bound."""

    def _check(self, tmp_path, argv, weights, k, exempt=False):
        out, mjson = str(tmp_path / "part.txt"), str(tmp_path / "m.json")
        assert main(argv + ["--output", out, "--metrics-json", mjson]) == 0
        payload = json.loads(Path(mjson).read_text())
        loads = [0] * k
        for node, block in enumerate(read_partition(out)):
            loads[block] += weights[node]
        fits = max(loads) <= compute_lmax(sum(weights), k, 0.03)
        assert payload["balanced"] == fits
        if not exempt:
            assert fits and payload["violations"] == 0
        return payload

    @pytest.mark.parametrize("edge_weights", [False, True])
    def test_graph_algorithms_and_map(self, tmp_path, edge_weights):
        path, weights = _weighted_graph_file(tmp_path, edge_weights)
        with open(path) as fh:
            assert fh.readline().split()[2] == ("11" if edge_weights else "10")
        for algorithm in ("ldg", "fennel", "heistream", "oms"):
            for passes in ((1, 3) if algorithm in ("ldg", "fennel") else (1,)):
                self._check(tmp_path, ["partition", "--input", path, "--k",
                                       "8", "--algorithm", algorithm,
                                       "--passes", str(passes),
                                       "--delta", "64"], weights, 8)
        # hashing ignores weights and overloads a block here; it must say so
        payload = self._check(
            tmp_path, ["partition", "--input", path, "--k", "8",
                       "--algorithm", "hashing"], weights, 8, exempt=True)
        assert payload["balanced"] is False
        self._check(tmp_path, ["map", "--input", path, "--hierarchy", "2:4",
                               "--distances", "1:10"], weights, 8)

    def test_bench_rows_match_partition(self, tmp_path):
        path, weights = _weighted_graph_file(tmp_path, True)
        rows_path = str(tmp_path / "rows.csv")
        assert main(["bench", "--input", path, "--algorithms",
                     "hashing,ldg,fennel,heistream,oms", "--k", "8",
                     "--delta", "64", "--output", rows_path]) == 0
        for row in read_rows(rows_path):
            payload = self._check(
                tmp_path, ["partition", "--input", path, "--k", "8",
                           "--algorithm", row["algorithm"], "--delta", "64"],
                weights, 8, exempt=row["algorithm"] == "hashing")
            assert int(row["edge_cut"]) == payload["edge_cut"]
            assert float(row["imbalance"]) == \
                pytest.approx(payload["imbalance"])

    @pytest.mark.parametrize("objective", ["con", "cut"])
    def test_hpartition(self, tmp_path, objective):
        path, weights = _weighted_hypergraph_file(tmp_path)
        self._check(tmp_path, ["hpartition", "--input", path, "--k", "8",
                               "--objective", objective], weights, 8)
