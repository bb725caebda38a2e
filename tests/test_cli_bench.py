import gc
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import streamdecomp
from streamdecomp import cli
from streamdecomp.bench import (CSV_COLUMNS, geometric_mean, read_rows,
                                summarize, write_rows)
from streamdecomp.cli import main
from streamdecomp.multisection import HierarchySpec
from streamdecomp.partition import UNASSIGNED, PartitionState, compute_lmax
from streamdecomp.streams import read_partition, write_graph

from generators import random_graph, random_hypergraph
from reference import stream_records


@pytest.fixture
def graph_file(tmp_path):
    rng = random.Random(7)
    stream = random_graph(rng, 60, 150)
    path = str(tmp_path / "g.graph")
    edges = []
    seen = set()
    for record in stream_records(stream):
        for v, w in zip(record.ids, record.weights):
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
    for record in stream_records(stream):
        for e in record.ids:
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

    @pytest.mark.parametrize("values", [[12681.0], [5.0, 5.0, 5.0],
                                        [0.03200000000000003], [0.0, 0.0]])
    def test_equal_values_give_that_value(self, values):
        # exp(mean(log v)) misses by an ulp: 12680.99999999999 for 12681
        assert geometric_mean(values) == values[0]


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
        blocks = read_partition(out, 60)
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
            assert len(read_partition(out, 60, 4)) == 60

    def test_main_calls_share_no_defaults(self, graph_file, tmp_path,
                                          capsys, monkeypatch):
        # main() keeps one parser per process; parsing must leave no state
        monkeypatch.delenv("STREAMDECOMP_SEED", raising=False)
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["partition", "--input", graph_file, "--k", "3",
                     "--algorithm", "ldg", "--passes", "2", "--alpha", "2",
                     "--seed", "5", "--metrics-json", str(first)]) == 0
        assert main(["partition", "--input", graph_file, "--k", "2",
                     "--metrics-json", str(second)]) == 0
        spec = json.loads(second.read_text())["runspec"]
        assert (spec["algorithm"], spec["passes"], spec["k"]) == \
            ("fennel", 1, 2)
        assert spec["alpha"] is None and spec["seed"] == 0
        assert json.loads(first.read_text())["runspec"]["seed"] == 5
        assert cli._parser() is cli._parser()

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


QUALITY_KEYS = ["edge_cut", "cut_net", "connectivity", "imbalance",
                "comm_cost"]


@pytest.mark.parametrize("command, metrics_args, present", [
    ("partition", None, {"edge_cut", "imbalance"}),
    ("hpartition", None, {"cut_net", "connectivity", "imbalance"}),
    ("map", None, {"edge_cut", "imbalance", "comm_cost"}),
    ("partition", ["--k", "4"], {"edge_cut", "imbalance"}),
    ("hpartition", ["--k", "4", "--hypergraph"],
     {"cut_net", "connectivity", "imbalance"}),
    ("map", ["--hierarchy", "2:2", "--distances", "1:10"],
     {"edge_cut", "imbalance", "comm_cost"}),
])
def test_quality_keys_lead_the_metrics_json(graph_file, hmetis_file,
                                            tmp_path, capsys, command,
                                            metrics_args, present):
    """The five quality keys come first, in one order, with null where the
    command (or ``metrics`` on its partition) has no such metric."""
    nodemajor = str(tmp_path / "nodes.hgr")
    assert main(["transpose", "--input", hmetis_file,
                 "--output", nodemajor]) == 0
    path = nodemajor if command == "hpartition" else graph_file
    part, mjson = str(tmp_path / "p.txt"), tmp_path / "m.json"
    args = ["--hierarchy", "2:2", "--distances", "1:10"] \
        if command == "map" else ["--k", "4"]
    assert main([command, "--input", path, *args, "--output", part,
                 "--metrics-json", str(mjson)]) == 0
    if metrics_args is not None:
        assert main(["metrics", "--input", path, "--partition", part,
                     *metrics_args, "--metrics-json", str(mjson)]) == 0
    payload = json.loads(mjson.read_text())
    assert list(payload)[:5] == QUALITY_KEYS
    assert {key for key in QUALITY_KEYS if payload[key] is not None} \
        == present


@pytest.mark.parametrize("command", ["partition", "hpartition", "map",
                                     "metrics"])
def test_metrics_csv_is_the_metrics_json_row(graph_file, hmetis_file,
                                             tmp_path, capsys, command):
    """``--metrics-csv`` writes the CSV columns and one row whose every
    value, apart from the run time, is the metrics JSON's."""
    nodemajor = str(tmp_path / "nodes.hgr")
    assert main(["transpose", "--input", hmetis_file,
                 "--output", nodemajor]) == 0
    part = str(tmp_path / "p.txt")
    mjson, mcsv = tmp_path / "m.json", str(tmp_path / "m.csv")
    outputs = ["--metrics-json", str(mjson), "--metrics-csv", mcsv]
    if command == "metrics":
        assert main(["partition", "--input", graph_file, "--k", "4",
                     "--output", part]) == 0
        argv = ["metrics", "--input", graph_file, "--partition", part,
                "--k", "4"]
    elif command == "hpartition":
        argv = ["hpartition", "--input", nodemajor, "--k", "4"]
    elif command == "map":
        argv = ["map", "--input", graph_file, "--hierarchy", "2:2",
                "--distances", "1:10"]
    else:
        argv = ["partition", "--input", graph_file, "--k", "4"]
    assert main(argv + outputs) == 0
    with open(mcsv, newline="") as fh:
        assert fh.readline().strip() == ",".join(CSV_COLUMNS)
    rows = read_rows(mcsv)
    assert len(rows) == 1
    payload = json.loads(mjson.read_text())
    for column in CSV_COLUMNS:
        if column != "runtime_ms":
            value = payload[column]
            assert rows[0][column] == ("" if value is None else str(value))


def _run_argv(algorithm, graph, hypergraph):
    """Arguments that run one ``cli.ALGORITHMS`` entry at k = 4."""
    if algorithm.startswith("freight-"):
        return ["hpartition", "--input", hypergraph, "--k", "4",
                "--objective", algorithm.split("-")[1]]
    if algorithm.startswith("oms-"):
        return ["map", "--input", graph, "--hierarchy", "2:2",
                "--distances", "1:10", "--algorithm", algorithm.split("-")[1]]
    return ["partition", "--input", graph, "--k", "4",
            "--algorithm", algorithm]


# Every run command checks --alpha and --gamma (map has no --gamma flag),
# NaN and infinity included.  Gamma is checked before the default alpha is
# computed, which for -1000 would divide by an underflowed n ** gamma, and
# 1000 overflows the penalty.  The one-pass algorithms check --alpha-growth;
# partition --algorithm oms and map also check --hash-bottom-layers, and
# heistream checks its round counts.
BAD_PENALTIES = [
    (algorithm, flag, value)
    for algorithm in cli.ALGORITHMS
    for flag, value in (("--alpha", "-1"), ("--alpha", "nan"),
                        ("--alpha", "inf"), ("--gamma", "0.5"),
                        ("--gamma", "1"), ("--gamma", "nan"),
                        ("--gamma", "inf"), ("--gamma", "-1000"),
                        ("--gamma", "1000"),
                        ("--alpha-growth", "0.5"),
                        ("--alpha-growth", "nan"), ("--alpha-growth", "inf"),
                        ("--hash-bottom-layers", "-3"),
                        ("--coarsen-rounds", "-1"),
                        ("--localsearch-rounds", "-1"))
    if not (flag == "--gamma" and algorithm.startswith("oms-"))
    and (flag != "--alpha-growth" or algorithm in ("hashing", "ldg", "fennel"))
    and (flag != "--hash-bottom-layers" or algorithm.startswith("oms"))
    and (not flag.endswith("-rounds") or algorithm == "heistream")]


class TestCliErrors:
    @pytest.mark.parametrize("algorithm,flag,value", BAD_PENALTIES)
    def test_bad_penalty_is_exit_2(self, graph_file, tmp_path, capsys,
                                   algorithm, flag, value):
        hypergraph = tmp_path / "nodes.hgr"
        hypergraph.write_text("4 2 4\n1\n1 2\n2\n\n")
        argv = _run_argv(algorithm, graph_file, str(hypergraph))
        assert main(argv + [flag, value]) == 2
        assert "input error" in capsys.readouterr().err
        assert main(argv) == 0      # the same run with default penalties

    # A gamma whose penalty overflows a float at the weight c(V) + n is
    # rejected before any node is placed: at the default alpha (whose
    # k ** (gamma - 1) overflows first) and at alpha 1, where the blocks'
    # own weights would reach bw ** (gamma - 1) overflow during the run.
    @pytest.mark.parametrize("algorithm", ["hashing", "ldg", "fennel",
                                           "heistream", "oms"])
    @pytest.mark.parametrize("penalty", [["--gamma", "1000"],
                                         ["--gamma", "250", "--alpha", "1"]])
    def test_overflowing_gamma_is_exit_2(self, graph_file, capsys,
                                         algorithm, penalty):
        argv = ["partition", "--input", graph_file, "--k", "2",
                "--algorithm", algorithm]
        assert main(argv + penalty) == 2
        assert "input error: --gamma " in capsys.readouterr().err
        assert main(argv + ["--gamma", "100", "--alpha", "1"]) == 0

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.5"])
    def test_bad_epsilon_is_exit_2_on_every_command(self, graph_file,
                                                    tmp_path, capsys, value):
        hypergraph = tmp_path / "nodes.hgr"
        hypergraph.write_text("4 2 4\n1\n1 2\n2\n\n")
        part = tmp_path / "p.txt"
        part.write_text("0\n1\n" * 30)
        for argv in (_run_argv("fennel", graph_file, None),
                     _run_argv("freight-con", None, str(hypergraph)),
                     _run_argv("oms-fennel", graph_file, None),
                     ["metrics", "--input", graph_file, "--partition",
                      str(part)],
                     ["bench", "--input", graph_file, "--algorithms",
                      "ldg", "--k", "2", "--output",
                      str(tmp_path / "rows.csv")]):
            assert main(argv + [f"--epsilon={value}"]) == 2, argv[0]
            assert "input error: epsilon must be finite and >= 0" in \
                capsys.readouterr().err
        assert not (tmp_path / "rows.csv").exists()

    @pytest.mark.parametrize("growth", [["--passes", "1100",
                                         "--alpha-growth", "2"],
                                        ["--passes", "40",
                                         "--alpha-growth", "1e10"]])
    def test_overflowing_alpha_growth_is_exit_2(self, tmp_path, capsys,
                                                growth):
        # ReFennel's last pass scales alpha by growth ** (passes - 1); a
        # scale or penalty that overflows is rejected before any node is
        # placed, by the bound --gamma has
        graph = tmp_path / "tiny.graph"
        graph.write_text("4 4\n2 4\n1 3\n2 4\n1 3\n")
        argv = ["partition", "--input", str(graph), "--k", "2"]
        assert main(argv + growth) == 2
        assert "input error: --alpha-growth " in capsys.readouterr().err
        assert main(argv + growth + ["--algorithm", "ldg"]) == 0
        assert main(argv + ["--passes", "1000", "--alpha-growth", "2"]) == 0

    def test_usage_error_is_exit_1(self, capsys):
        assert main(["partition", "--input", "x"]) == 1   # missing --k

    # A path that cannot be opened as asked is an input error naming the
    # path: missing, a directory, or under a regular file.
    @pytest.mark.parametrize("argv, path", [
        ("partition --input nope.graph --k 2", "nope.graph"),
        ("partition --input dir --k 2", "dir"),
        ("partition --input tiny.graph --k 2 --output dir", "dir"),
        ("partition --input tiny.graph --k 2 --metrics-json dir", "dir"),
        ("metrics --input tiny.graph --partition dir", "dir"),
        ("transpose --input tiny.hgr --output dir", "dir"),
        ("partition --input tiny.graph --k 2 --output tiny.graph/x.part",
         "tiny.graph/x.part"),
    ], ids=["missing-input", "dir-input", "dir-output", "dir-metrics-json",
            "dir-partition", "dir-transpose-output", "output-under-file"])
    def test_unopenable_path_is_exit_2(self, tmp_path, capsys, argv, path):
        (tmp_path / "dir").mkdir()
        (tmp_path / "tiny.graph").write_text("4 4\n2 4\n1 3\n2 4\n1 3\n")
        (tmp_path / "tiny.hgr").write_text("2 3\n1 2\n2 3\n")
        argv = [str(tmp_path / token) if token.startswith(("nope", "dir",
                                                           "tiny"))
                else token for token in argv.split()]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ")
        assert str(tmp_path / path) in err

    def test_malformed_file_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.graph"
        bad.write_text("3 5\n2\n1 3\n2\n")   # edge count mismatch
        assert main(["partition", "--input", str(bad), "--k", "2"]) == 2

    @pytest.mark.parametrize("command, text, message", [
        ("partition", "3 2\n2\n1 3\n2\n4\n", "more lines than the 3"),
        ("partition", "2 1\n2\nx\n", "node 1: 'x' is not an integer"),
        ("partition", "2 1 11\nw 2 1\n1 1 1\n",
         "node 0: 'w' is not an integer"),
        ("transpose", "1 3\n1 2\n2 3\n", "more lines than the 1 net"),
        ("transpose", "2 3 1\n5\n1 2 3\n", "net 0: no pins"),
        # the file is well formed; the arguments give a negative PE
        # distance, which would make comm cost negative
        ("map", "4 4\n2 4\n1 3\n2 4\n1 3\n", "distances must be >= 0"),
        ("metrics", "4 4\n2 4\n1 3\n2 4\n1 3\n",
         "distances must be >= 0"),
    ])
    def test_malformed_line_is_exit_2(self, tmp_path, capsys, command, text,
                                      message):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        part = tmp_path / "p.txt"
        part.write_text("0\n1\n2\n3\n")
        args = {"partition": ["--k", "2"],
                "transpose": ["--output", str(tmp_path / "out.hgr")],
                "map": ["--hierarchy", "8:8", "--distances=1:-10"],
                "metrics": ["--partition", str(part), "--hierarchy", "8:8",
                            "--distances=-1:-10"]}[command]
        assert main([command, "--input", str(bad), *args]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["map", "metrics"])
    @pytest.mark.parametrize("hierarchy,distances,message", [
        ("8:x", "1:10", "--hierarchy '8:x': 'x' is not an integer"),
        ("8:", "1:10", "--hierarchy '8:': '' is not an integer"),
        ("8:8", "1:1e3", "--distances '1:1e3': '1e3' is not an integer"),
    ])
    def test_malformed_hierarchy_is_exit_2(self, graph_file, tmp_path,
                                           capsys, command, hierarchy,
                                           distances, message):
        part = tmp_path / "p.txt"
        part.write_text("0\n" * 60)
        args = ["--partition", str(part)] if command == "metrics" else []
        assert main([command, "--input", graph_file, *args, "--hierarchy",
                     hierarchy, "--distances", distances]) == 2
        assert message in capsys.readouterr().err

    def test_asymmetric_adjacency_is_exit_2(self, tmp_path, capsys):
        # node 1 lists node 2 but node 2 lists node 3: the degree sum still
        # matches m, and the verification pass finds an odd doubled cut
        bad = tmp_path / "asym_w.graph"
        bad.write_text("3 1 1\n2 2\n1 3\n\n")
        part = tmp_path / "p.txt"
        part.write_text("0\n1\n0\n")
        assert main(["metrics", "--input", str(bad), "--partition",
                     str(part)]) == 2
        # comm cost is verified in the same pass as the cut
        assert main(["metrics", "--input", str(bad), "--partition",
                     str(part), "--hierarchy", "2", "--distances", "1"]) == 2
        assert "asymmetric adjacency" in capsys.readouterr().err
        bad = tmp_path / "asym.graph"
        bad.write_text("3 1\n2\n3\n\n")
        assert main(["partition", "--input", str(bad), "--algorithm",
                     "heistream", "--passes", "2", "--k", "2"]) == 2
        assert "asymmetric adjacency" in capsys.readouterr().err
        # node 1 lists node 0 and node 2 lists node 1; the map places nodes
        # 0 and 1 together and node 2 apart
        bad.write_text("3 1\n\n1\n2\n")
        out = tmp_path / "map.part"
        assert main(["map", "--input", str(bad), "--hierarchy", "2",
                     "--distances", "1", "--output", str(out)]) == 2
        assert read_partition(str(out), 3, 2) == [0, 0, 1]
        assert "asymmetric adjacency" in capsys.readouterr().err

    def test_inconsistent_net_weight_is_exit_2(self, tmp_path, capsys):
        # net 1 weighs 3 at node 1 and 5 at node 2
        bad = tmp_path / "nodes.hgr"
        bad.write_text("2 1 2 1\n1 3\n1 5\n")
        part = tmp_path / "p.txt"
        part.write_text("0\n1\n")
        assert main(["metrics", "--input", str(bad), "--partition",
                     str(part), "--hypergraph", "--k", "2"]) == 2
        assert main(["hpartition", "--input", str(bad), "--k", "2"]) == 2
        err = capsys.readouterr().err
        assert err.count("node 1: net 1 weighs 5 here but 3 at an earlier "
                         "pin") == 2

    @pytest.mark.parametrize("lines", [["0"] * 59, ["0"] * 61,
                                       ["0"] * 59 + ["4"]])
    def test_bad_partition_file_is_exit_2(self, graph_file, tmp_path, lines,
                                          capsys):
        part = tmp_path / "p.txt"
        part.write_text("\n".join(lines) + "\n")
        assert main(["metrics", "--input", graph_file, "--partition",
                     str(part), "--k", "4"]) == 2
        assert "block id" in capsys.readouterr().err

    @pytest.mark.parametrize("k", [[], ["--k", "4"]])
    def test_negative_block_id_is_named(self, graph_file, tmp_path, capsys,
                                        k):
        part = tmp_path / "p.txt"
        part.write_text("0\n" * 59 + "-1\n")
        assert main(["metrics", "--input", graph_file, "--partition",
                     str(part), *k]) == 2
        assert capsys.readouterr().err == \
            f"input error: {part}: node 59: block id -1 is negative\n"

    def test_metrics_k_must_match_hierarchy(self, graph_file, tmp_path,
                                            capsys):
        part = tmp_path / "p.txt"
        part.write_text("0\n" * 60)
        assert main(["metrics", "--input", graph_file, "--partition",
                     str(part), "--k", "2", "--hierarchy", "2:2",
                     "--distances", "1:10"]) == 1

    @pytest.mark.parametrize("given, missing", [
        (["--hierarchy", "8:8"], "--distances"),
        (["--distances", "1:10"], "--hierarchy")])
    def test_metrics_needs_hierarchy_and_distances_together(
            self, graph_file, tmp_path, capsys, given, missing):
        part = tmp_path / "p.txt"
        part.write_text("0\n" * 60)
        assert main(["metrics", "--input", graph_file, "--partition",
                     str(part), *given]) == 1
        assert f"usage error: comm cost needs {missing} too" in \
            capsys.readouterr().err

    def test_index_error_inside_an_algorithm_is_exit_3(self, graph_file,
                                                       monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise IndexError("list index out of range")
        monkeypatch.setattr(cli, "run_onepass", broken)
        assert main(["partition", "--input", graph_file, "--k", "2"]) == 3
        assert "internal invariant failure" in capsys.readouterr().err

    def test_heistream_runs_with_cyclic_gc_paused(self, graph_file,
                                                  monkeypatch, capsys):
        # paused for the run only, and resumed when the run fails
        seen = []

        def run(*args):
            seen.append(gc.isenabled())
            raise ZeroDivisionError("injected")
        monkeypatch.setattr(cli, "run_heistream", run)
        assert gc.isenabled()
        assert main(["partition", "--input", graph_file, "--k", "2",
                     "--algorithm", "heistream"]) == 3
        assert seen == [False] and gc.isenabled()

    @pytest.mark.parametrize("error", [ZeroDivisionError, TypeError])
    def test_any_other_exception_is_exit_3(self, graph_file, monkeypatch,
                                           capsys, error):
        # not the usage-error code 1 with a traceback
        def broken(*args, **kwargs):
            raise error("injected")
        monkeypatch.setattr(cli, "run_onepass", broken)
        assert main(["partition", "--input", graph_file, "--k", "2"]) == 3
        assert (f"internal invariant failure: {error.__name__}('injected')"
                in capsys.readouterr().err)

    # Internal invariants raise AssertionError, a fault of the program
    # (exit 3) that no input can trigger: a runner that places a node twice
    # or removes one that is not placed, OMS handed a hierarchy of another
    # k, and a metric handed an assignment with a node left out.
    @pytest.mark.parametrize("runner, algorithm, fault, message", [
        ("run_onepass", "fennel", "place twice", "node 0 already assigned"),
        ("run_restream", "fennel", "remove unplaced", "node 0 not assigned"),
        ("run_heistream", "heistream", "place twice",
         "node 0 already assigned"),
        ("run_oms", "oms", "place twice", "node 0 already assigned"),
        ("run_oms", "oms-fennel", "other k", "hierarchy has k=8, state k=4"),
        ("run_freight", "freight-con", "place twice",
         "node 0 already assigned"),
        ("run_onepass", "fennel", "leave out", "node 0 unassigned"),
        ("run_oms", "oms-ldg", "leave out", "node 0 unassigned"),
        ("run_freight", "freight-cut", "leave out", "node 0 unassigned"),
    ])
    def test_internal_invariant_is_exit_3(self, graph_file, tmp_path,
                                          monkeypatch, capsys, runner,
                                          algorithm, fault, message):
        run = getattr(cli, runner)

        def faulty(*args):
            state = next(a for a in args if isinstance(a, PartitionState))
            if fault == "remove unplaced":
                state.unassign(0)
            if fault == "other k":
                args = (*args[:4], HierarchySpec.parse("2:4", "1:10"))
            run(*args)
            if fault == "place twice":
                state.assign(0, 0)
            if fault == "leave out":
                state.assignment[0] = UNASSIGNED
            return state
        monkeypatch.setattr(cli, runner, faulty)
        hypergraph = tmp_path / "nodes.hgr"
        hypergraph.write_text("4 2 4\n1\n1 2\n2\n\n")
        argv = _run_argv(algorithm, graph_file, str(hypergraph))
        if runner == "run_restream":
            argv += ["--passes", "2"]
        assert main(argv) == 3
        assert (f"internal invariant failure: AssertionError('{message}')"
                in capsys.readouterr().err)

    # The reported imbalance and balance are recounted by the verification,
    # not read from the run's block weights: a runner whose bookkeeping is
    # off by 5 after the run still reports those of the partition it wrote.
    @pytest.mark.parametrize("core", [[], ["--time-core"]],
                             ids=["file", "time-core"])
    @pytest.mark.parametrize("node_weights", [False, True],
                             ids=["unit", "weighted"])
    @pytest.mark.parametrize("runner, algorithm", [
        ("run_onepass", "fennel"), ("run_heistream", "heistream"),
        ("run_oms", "oms-ldg"), ("run_freight", "freight-con")])
    def test_imbalance_is_recounted_not_bookkept(self, tmp_path, monkeypatch,
                                                 runner, algorithm,
                                                 node_weights, core):
        run = getattr(cli, runner)

        def off_by_five(*args):
            state = run(*args)
            state.block_weight[0] += 5
            return state
        monkeypatch.setattr(cli, runner, off_by_five)
        n = 40
        weights = [1 + v * 7 % 9 for v in range(n)] if node_weights \
            else [1] * n
        graph = tmp_path / "g.graph"
        write_graph(str(graph), n, [(u, (u + d) % n, 1) for u in range(n)
                                    for d in (1, 3)],
                    weights if node_weights else None)
        hypergraph = tmp_path / "h.hgr"   # node v in nets v // 2, v // 2 + 7
        hypergraph.write_text(
            f"{n} 20 {2 * n}" + (" 10" if node_weights else "") + "\n"
            + "".join((f"{weights[v]} " if node_weights else "")
                      + f"{v // 2 + 1} {(v // 2 + 7) % 20 + 1}\n"
                      for v in range(n)))
        part, report = tmp_path / "p.part", tmp_path / "p.json"
        assert main([*_run_argv(algorithm, str(graph), str(hypergraph)),
                     *core, "--output", str(part),
                     "--metrics-json", str(report)]) == 0
        recount = [0] * 4
        for v, block in enumerate(read_partition(str(part), n, 4)):
            recount[block] += weights[v]
        reported = json.loads(report.read_text())
        assert reported["imbalance"] == max(recount) * 4 / sum(recount) - 1.0
        assert reported["balanced"] is (
            max(recount) <= compute_lmax(sum(recount), 4, reported["epsilon"]))

    def test_map_warns_on_capacity_violations(self, tmp_path, capsys):
        # c(V) = 4, k = 2, eps = 0: L_max = 2, so the weight-3 node overloads
        graph = tmp_path / "w.graph"
        graph.write_text("2 0 10\n3\n1\n")
        mjson = str(tmp_path / "m.json")
        assert main(["map", "--input", str(graph), "--hierarchy", "2",
                     "--distances", "1", "--epsilon", "0",
                     "--metrics-json", mjson]) == 0
        assert json.loads(Path(mjson).read_text())["violations"] == 1
        assert "warning: 1 capacity violations" in capsys.readouterr().err


def test_runtime_does_not_import_numpy():
    src = os.path.dirname(os.path.dirname(streamdecomp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = "import sys, streamdecomp.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


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
        # the rows summarized in memory give the summary of the CSV
        assert summary == summarize(rows)
        # fennel should not cut more than hashing on this seeded instance
        by_key = {(s["algorithm"], s["k"]): s for s in summary}
        assert by_key[("fennel", "4")]["edge_cut"] <= \
            by_key[("hashing", "4")]["edge_cut"]

    def test_summary_of_one_row_groups_is_the_row(self, graph_file, tmp_path,
                                                   capsys):
        out = str(tmp_path / "rows.csv")
        summary_path = str(tmp_path / "summary.json")
        assert main(["bench", "--input", graph_file, "--algorithms",
                     "hashing,ldg,fennel,heistream", "--k", "3,5",
                     "--output", out, "--summary", summary_path]) == 0
        rows = {(r["algorithm"], r["k"]): r for r in read_rows(out)}
        summary = json.loads(Path(summary_path).read_text())
        assert len(summary) == len(rows) == 8
        for group in summary:
            row = rows[group["algorithm"], group["k"]]
            assert group["runs"] == 1
            for metric in ("edge_cut", "imbalance", "runtime_ms"):
                assert group[metric] == float(row[metric])

    def test_bench_takes_the_partition_defaults(self, graph_file, tmp_path,
                                                capsys):
        def rows(*options):
            out = str(tmp_path / "rows.csv")
            assert main(["bench", "--input", graph_file, "--algorithms",
                         ",".join(cli.GRAPH_ALGOS), "--k", "2,5", *options,
                         "--output", out]) == 0
            return [dict(row, runtime_ms=None) for row in read_rows(out)]
        assert rows() == rows("--epsilon", "0.03", "--delta", "32768",
                              "--model", "extended", "--passes", "1",
                              "--base", "4")
        assert {row["epsilon"] for row in rows("--epsilon", "0.1")} == \
            {"0.1"}
        capsys.readouterr()
        for flag, value, message in (
                ("--epsilon", "x", "invalid float value: 'x'"),
                ("--model", "flat", "invalid choice: 'flat'"),
                ("--passes", "1.5", "invalid int value: '1.5'")):
            assert main(["bench", "--input", graph_file, "--algorithms",
                         "fennel", "--k", "2", flag, value, "--output",
                         str(tmp_path / "bad.csv")]) == 1
            err = capsys.readouterr().err
            assert f"argument {flag}: {message}" in err

    @pytest.mark.parametrize("repeats", ["0", "-2"])
    def test_bench_needs_a_repeat(self, graph_file, tmp_path, capsys,
                                  repeats):
        # no run would fill the CSV and the summary: an input error, with
        # nothing written
        out, summary = tmp_path / "rows.csv", tmp_path / "summary.json"
        assert main(["bench", "--input", graph_file, "--algorithms", "fennel",
                     "--k", "2", "--repeats", repeats, "--output", str(out),
                     "--summary", str(summary)]) == 2
        assert capsys.readouterr().err == \
            "input error: --repeats must be >= 1\n"
        assert not out.exists() and not summary.exists()

    @pytest.mark.parametrize("algorithms, bad", [
        ("fennel,bogus", "bogus"), ("bogus,fennel", "bogus"),
        ("ldg,,fennel", ""), ("fennel,ldg,Fennel", "Fennel")])
    def test_bench_checks_every_algorithm_first(self, graph_file, tmp_path,
                                                capsys, monkeypatch,
                                                algorithms, bad):
        # a usage error naming --algorithms and the first bad name, before
        # any cell runs and with nothing written
        calls = []
        monkeypatch.setattr(cli, "execute", lambda spec: calls.append(spec))
        out, summary = tmp_path / "rows.csv", tmp_path / "summary.json"
        assert main(["bench", "--input", graph_file, "--algorithms",
                     algorithms, "--k", "2", "--output", str(out),
                     "--summary", str(summary)]) == 1
        assert calls == []
        assert capsys.readouterr().err == \
            f"usage error: argument --algorithms: invalid choice: {bad!r} " \
            f"(choose from hashing, ldg, fennel, heistream, oms)\n"
        assert not out.exists() and not summary.exists()

    def test_non_integers_name_their_source(self, graph_file, tmp_path,
                                            capsys, monkeypatch):
        out = tmp_path / "rows.csv"
        argv = ["bench", "--input", graph_file, "--algorithms", "fennel",
                "--output", str(out)]
        assert main([*argv, "--k", "2,x"]) == 2
        assert capsys.readouterr().err == \
            "input error: --k '2,x': 'x' is not an integer\n"
        monkeypatch.setenv("STREAMDECOMP_SEED", "abc")
        assert main([*argv, "--k", "2"]) == 2
        assert capsys.readouterr().err == \
            "input error: STREAMDECOMP_SEED 'abc' is not an integer\n"
        assert not out.exists()


def _weighted_graph_file(tmp_path, edge_weights: bool) -> tuple[str, list[int]]:
    rng = random.Random(12 if edge_weights else 11)
    stream = random_graph(rng, 300, 900, max_edge_weight=9 if edge_weights
                          else 1, max_node_weight=20)
    edges = [(r.id, v, w) for r in stream_records(stream)
             for v, w in zip(r.ids, r.weights) if r.id < v]
    weights = [r.weight for r in stream_records(stream)]
    path = str(tmp_path / f"w{int(edge_weights)}.graph")
    write_graph(path, 300, edges, weights)
    return path, weights


def _weighted_hypergraph_file(tmp_path) -> tuple[str, list[int]]:
    stream = random_hypergraph(random.Random(13), 300, 250, max_pins=6,
                               max_node_weight=20)
    lines = [f"300 250 {sum(len(r.ids) for r in stream_records(stream))} 10"]
    for r in stream_records(stream):
        lines.append(" ".join([str(r.weight)] +
                              [str(e + 1) for e in r.ids]))
    path = tmp_path / "w.hgr"
    path.write_text("\n".join(lines) + "\n")
    return str(path), [r.weight for r in stream_records(stream)]


class TestCliWeightedInputs:
    """c(V) comes from the node weights: every algorithm keeps the bound."""

    def _check(self, tmp_path, argv, weights, k, exempt=False):
        out, mjson = str(tmp_path / "part.txt"), str(tmp_path / "m.json")
        assert main(argv + ["--output", out, "--metrics-json", mjson]) == 0
        payload = json.loads(Path(mjson).read_text())
        loads = [0] * k
        for node, block in enumerate(read_partition(out, len(weights), k)):
            loads[block] += weights[node]
        fits = max(loads) <= compute_lmax(sum(weights), k, 0.03)
        assert payload["balanced"] == fits
        if not exempt:
            assert fits and payload["violations"] == 0
        return payload

    @pytest.mark.parametrize("edge_weights", [False, True])
    def test_graph_algorithms_and_map(self, tmp_path, capsys, edge_weights):
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
        capsys.readouterr()
        payload = self._check(
            tmp_path, ["partition", "--input", path, "--k", "8",
                       "--algorithm", "hashing"], weights, 8, exempt=True)
        assert payload["balanced"] is False and payload["violations"] > 0
        assert f"warning: {payload['violations']} capacity violations" in \
            capsys.readouterr().err
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
