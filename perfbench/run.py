"""streamdecomp benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/streamdecomp`` must exist).
The run

1. generates the workload's inputs from ``--seed`` in a separate process
   (``gen.py``), before any timing starts;
2. measures set-up ``SETUP_REPS`` times, each in a fresh interpreter
   (``setup_time.py``: import plus the ``transpose`` command) and keeps the
   median;
3. runs the ops in one separate process (``ops.py``): a closed loop, one op
   at a time, through ``streamdecomp.cli.main``, whole rounds until
   ``--seconds`` have passed;
4. verifies every op with ``oracle.py`` and prints one JSON object as the
   last stdout line.  With ``--trace 0`` it carries the end-to-end metrics,
   with ``--trace 1`` the per-layer metrics of the traced rounds.

Each ``<command>_nodes_per_s`` is the input nodes of that command's ops
over the sum of their op times, each op's time being the median across
rounds of its wall time scaled to the reference machine speed
(``speed.py``); a ``bench`` op counts its input once per result row.
``setup_s`` is the median of the scaled set-up times.  Quality metrics are
geometric means over the timed ops of one round, recounted by the oracle.
The node-weighted probe (``wide-k`` only) is untimed and counts toward
``failed`` and ``verified_ops_ratio`` only; ``correct`` covers the timed
ops.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import oracle
import speed
from plan import PROBE_OPS, WORKLOADS, heistream_delta

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_REPS = 5
MAX_ROUNDS = 40
EPSILON = "0.03"
RUN_LIMIT_S = 170
COMMANDS = ("partition", "hpartition", "map", "bench")

# Per-layer span totals reported as <name>_s, and kernels also as _calls.
SPANS = ("streams.graph_parse", "streams.hyper_parse",
         "streams.write_partition",
         "onepass.fennel_assign", "onepass.ldg_assign",
         "onepass.run_onepass", "onepass.run_restream",
         "freight.freight_assign", "freight.run_freight",
         "multisection.oms_assign", "multisection.build_tree",
         "multisection.run_oms",
         "heistream.load_batch", "heistream.build_model", "heistream.coarsen",
         "heistream.initial_partition", "heistream.uncoarsen_refine",
         "heistream.commit_batch", "heistream.run_heistream",
         "metrics.edge_cut", "metrics.cut_net_and_connectivity",
         "metrics.comm_cost")
CALLS = ("onepass.fennel_assign", "onepass.ldg_assign",
         "freight.freight_assign", "multisection.oms_assign")
COUNTERS = ("streams.graph_records", "streams.hyper_records",
            "heistream.batches", "heistream.levels", "heistream.model_nodes",
            "heistream.model_adj_entries", "heistream.coarsest_nodes",
            "heistream.ghost_inflation")


def per_layer_names() -> list[str]:
    """Every metric name a traced run prints."""
    return ([s + "_s" for s in SPANS] + [c + "_calls" for c in CALLS]
            + list(COUNTERS)
            + ["streams.transpose_s", "cli.self_s", "partition.violations",
               "partition.max_imbalance", "trace.overhead_ratio"])


class Inputs:
    """Generated files of one run, their sizes and their parsed contents."""

    def __init__(self, work: str, manifest: dict):
        self.work = work
        self.files = manifest["files"]
        self._parsed: dict = {}

    def path(self, key: str) -> str:
        if key == "hyper":
            return os.path.join(self.work, "hyper.hgr")
        ext = ".graph" if self.files[key]["kind"] == "graph" else ".hgr"
        return os.path.join(self.work, key + ext)

    def info(self, key: str) -> dict:
        return self.files["hyper_nets" if key == "hyper" else key]

    def parsed(self, key: str):
        if key not in self._parsed:
            cls = oracle.Graph if self.info(key)["kind"] == "graph" \
                else oracle.Hypergraph
            self._parsed[key] = cls(self.path(key))
        return self._parsed[key]


def _arg(args: list[str], flag: str) -> str | None:
    return args[args.index(flag) + 1] if flag in args else None


def _levels(op: dict, flag: str) -> list[int]:
    return [int(t) for t in _arg(op["args"], flag).split(":")]


def op_k(op: dict) -> int:
    if "--hierarchy" in op["args"]:
        return math.prod(_levels(op, "--hierarchy"))
    return int(_arg(op["args"], "--k"))


def op_argv(op: dict, out: str, inputs: Inputs) -> list[str]:
    delta = str(heistream_delta(inputs.info(op["input"])["n"]))
    argv = [op["command"], "--input", inputs.path(op["input"]),
            *(a.replace("{delta}", delta) for a in op["args"]),
            "--seed", "0", "--epsilon", EPSILON]
    if op["command"] == "bench":
        return argv + ["--output", out + ".csv"]
    return argv + ["--output", out + ".part", "--metrics-json", out + ".json"]


def op_nodes(op: dict, inputs: Inputs) -> int:
    rows = len(op.get("rows", {})) or 1
    return inputs.info(op["input"])["n"] * rows


class Verifier:
    """Runs the oracle over every op of every round."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self._cache: dict = {}

    def truth(self, op: dict, out: str) -> dict:
        """Recount of an op's partition file (cached by file content)."""
        with open(out + ".part", "rb") as fh:
            digest = hashlib.sha1(fh.read()).hexdigest()
        key = (op["name"], digest)
        if key not in self._cache:
            inp = self.inputs.parsed(op["input"])
            blocks = oracle.read_partition(out + ".part", inp.n, op_k(op))
            hierarchy = None
            if op["command"] == "map":
                hierarchy = (_levels(op, "--hierarchy"),
                             _levels(op, "--distances"))
            self._cache[key] = oracle.recount(inp, blocks, op_k(op),
                                              float(EPSILON), hierarchy)
        return self._cache[key]

    def round(self, ops: list[dict], records: list[dict], outs: list[str],
              truths: dict) -> list[list[str]]:
        """Problems per op; fills ``truths`` (op name -> recount)."""
        problems: list[list[str]] = [[] for _ in ops]
        # bench rows are compared with the partition ops' recounts
        order = sorted(range(len(ops)),
                       key=lambda i: ops[i]["command"] == "bench")
        for i in order:
            op, rec, out = ops[i], records[i], outs[i]
            if rec["rc"] != 0:
                problems[i].append(f"exit status {rec['rc']}")
                continue
            try:
                if op["command"] == "bench":
                    expected = {algo: (op_k(op), truths.get(name),
                                       algo == "hashing")
                                for algo, name in op["rows"].items()}
                    problems[i] += oracle.check_bench_rows(out + ".csv",
                                                           expected)
                    continue
                truth = self.truth(op, out)
                with open(out + ".json") as fh:
                    report = json.load(fh)
            except (OSError, ValueError, KeyError) as exc:
                problems[i].append(f"unreadable output: {exc!r}")
                continue
            truths[op["name"]] = dict(truth,
                                      violations=report.get("violations", 0))
            exempt = _arg(op["args"], "--algorithm") == "hashing"
            problems[i] += oracle.check_report(report, truth, op_k(op), exempt)
        return problems


def geomean(values: list[float]) -> float:
    if not values or min(values) <= 0:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], deadline: float) -> str:
    """Run a helper script to completion and return its stdout.

    Its stderr (the CLI's warnings and input errors) is kept out of the
    benchmark's own output unless the helper itself fails.
    """
    proc = subprocess.run([sys.executable, *argv], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{os.path.basename(argv[0])} exited "
                           f"{proc.returncode}")
    return proc.stdout


def set_up(args, work: str, deadline: float) -> tuple[Inputs, list[dict]]:
    """Generate the inputs, then time set-up SETUP_REPS times (scaled)."""
    run_child([os.path.join(HERE, "gen.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--out", work,
               "--scale", str(args.scale)], deadline)
    with open(os.path.join(work, "manifest.json")) as fh:
        inputs = Inputs(work, json.load(fh))
    setups = []
    for _ in range(SETUP_REPS):
        out = run_child([os.path.join(HERE, "setup_time.py"),
                         inputs.path("hyper_nets"), inputs.path("hyper"),
                         str(args.trace)], deadline)
        setup = json.loads(out.strip().splitlines()[-1])
        if setup["rc"] != 0:
            raise RuntimeError(f"transpose exited {setup['rc']}")
        setups.append({key: speed.scaled(setup[key], *setup["calib"])
                       for key in ("import_s", "transpose_s",
                                   "transpose_span_s") if key in setup})
    return inputs, setups


def run_ops(args, inputs: Inputs, probe: list[dict], deadline: float):
    """Run the op process; returns its result and each op's output stems."""
    spec = WORKLOADS[args.workload]
    outs: dict[str, list[list[str]]] = {"timed": [], "probe": []}
    plan = {"seconds": args.seconds, "trace": args.trace,
            "ops": [], "probe_ops": []}
    for r in range(MAX_ROUNDS):
        os.makedirs(os.path.join(inputs.work, f"r{r}"))
        for key, plan_key, ops in (("timed", "ops", spec["ops"]),
                                   ("probe", "probe_ops", probe)):
            stems = [os.path.join(inputs.work, f"r{r}", op["name"])
                     for op in ops]
            outs[key].append(stems)
            plan[plan_key].append([{"name": op["name"],
                                    "argv": op_argv(op, stem, inputs)}
                                   for op, stem in zip(ops, stems)])
    plan_path = os.path.join(inputs.work, "plan.json")
    result_path = os.path.join(inputs.work, "result.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    run_child([os.path.join(HERE, "ops.py"), plan_path, result_path],
              deadline)
    with open(result_path) as fh:
        return json.load(fh), outs


def measure(args, work: str, deadline: float) -> dict:
    spec = WORKLOADS[args.workload]
    probe = PROBE_OPS if spec["probe"] else []
    inputs, setups = set_up(args, work, deadline)
    result, outs = run_ops(args, inputs, probe, deadline)

    verifier = Verifier(inputs)
    attempted = failed = timed_failed = 0
    first_truths: dict = {}
    # scaled seconds of each timed op, per op name, untraced / traced rounds
    op_times: dict[bool, dict[str, list[float]]] = {False: {}, True: {}}
    raw_traced = scaled_traced = 0.0
    for r, rnd in enumerate(result["rounds"]):
        for key, ops in (("probe", probe), ("timed", spec["ops"])):
            truths: dict = {}
            problems = verifier.round(ops, rnd[key], outs[key][r], truths)
            for op, bad in zip(ops, problems):
                attempted += 1
                if bad:
                    failed += 1
                    timed_failed += key == "timed"
                    if r == 0:
                        print(f"FAILED {op['name']}: {'; '.join(bad)}",
                              file=sys.stderr)
            if r == 0 and key == "timed":
                first_truths = truths
        for rec in rnd["timed"]:
            seconds = speed.scaled(rec["seconds"], *rec["calib"])
            op_times[rnd["traced"]].setdefault(rec["name"], []).append(seconds)
            if rnd["traced"]:
                raw_traced += rec["seconds"]
                scaled_traced += seconds

    def median_time(traced: bool, ops: list[dict]) -> float:
        return sum(statistics.median(op_times[traced][op["name"]])
                   for op in ops)

    def quality(commands, numerator) -> float:
        return geomean([numerator(op, first_truths[op["name"]])
                        / inputs.info(op["input"])["m"]
                        for op in spec["ops"]
                        if op["command"] in commands
                        and op["name"] in first_truths])

    metrics = {}
    if not args.trace:
        for cmd in COMMANDS:
            ops = [op for op in spec["ops"] if op["command"] == cmd]
            metrics[f"{cmd}_nodes_per_s"] = (
                sum(op_nodes(op, inputs) for op in ops)
                / median_time(False, ops), "nodes/s")
        metrics["edge_cut_ratio"] = (quality(
            ("partition", "map"), lambda op, t: t["edge_cut"]), "ratio")
        metrics["hyper_objective_ratio"] = (quality(
            ("hpartition",),
            lambda op, t: t["connectivity" if "con" in op["args"]
                            else "cut_net"]), "ratio")
        metrics["comm_cost_per_edge"] = (quality(
            ("map",), lambda op, t: t["comm_cost"]), "cost/edge")
        metrics["verified_ops_ratio"] = ((attempted - failed) / attempted,
                                         "ratio")
        metrics["peak_rss_mb"] = (result["peak_rss_kb"] / 1024.0, "MB")
        metrics["setup_s"] = (statistics.median(
            s["import_s"] + s["transpose_s"] for s in setups), "s")
    else:
        traced = sum(1 for rnd in result["rounds"] if rnd["traced"])
        spans, counters = result["spans"], result["counters"]
        # span totals cover all traced rounds in raw seconds: report them
        # per round, at the traced ops' average machine-speed factor
        factor = scaled_traced / raw_traced / traced
        for name in SPANS:
            metrics[name + "_s"] = (spans.get(name, [0, 0.0])[1] * factor,
                                    "s")
        for name in CALLS:
            metrics[name + "_calls"] = (spans.get(name, [0])[0] / traced,
                                        "count")
        for name in COUNTERS:
            metrics[name] = (counters.get(name, 0) / traced, "count")
        metrics["streams.transpose_s"] = (statistics.median(
            s["transpose_span_s"] for s in setups), "s")
        metrics["cli.self_s"] = (spans["cli.main"][2] * factor, "s")
        metrics["partition.violations"] = (sum(
            t["violations"] for t in first_truths.values()), "count")
        metrics["partition.max_imbalance"] = (max(
            (t["imbalance"] for t in first_truths.values()), default=0.0),
            "ratio")
        metrics["trace.overhead_ratio"] = (
            median_time(True, spec["ops"]) / median_time(False, spec["ops"]),
            "ratio")

    rounds = result["rounds"]
    print(f"{len(rounds)} rounds of {len(spec['ops'])} timed ops, "
          f"{sum(r['seconds'] for rnd in rounds for r in rnd['timed']):.1f} "
          "s of op wall time")
    return {"correct": timed_failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description="streamdecomp benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink every input (smoke tests)")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "streamdecomp", "cli.py")):
        print(f"error: no streamdecomp sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    # on SIGTERM unwind normally, so the running child is killed and waited
    # for and the scratch directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + RUN_LIMIT_S
    base = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(base, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        report = measure(args, work, deadline)
    except (subprocess.SubprocessError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
