"""Unified command-line front end.

Commands: partition (graphs), hpartition (hypergraphs), map (process
mapping), metrics (recompute quality of an existing partition), transpose
(hMetis net-major to node-major), bench (algorithm/k grids to CSV).

Exit codes: 0 ok, 1 usage error, 2 input error, 3 internal invariant failure.
The seed falls back to the STREAMDECOMP_SEED environment variable, then 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

from . import bench as bench_mod
from . import metrics as metrics_mod
from .freight import FreightConfig, run_freight
from .heistream import HeiStreamConfig, run_heistream
from .multisection import HierarchySpec, OmsConfig, run_oms
from .onepass import FennelParams, OnePassConfig, fennel_alpha, run_onepass, \
    run_restream
from .partition import PartitionState
from .streams import FormatError, MemoryGraphStream, MemoryHypergraphStream, \
    open_graph_stream, open_hypergraph_node_stream, read_partition, \
    total_node_weight, transpose_hmetis, write_partition

GRAPH_ALGOS = ("hashing", "ldg", "fennel", "heistream", "oms")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class RunSpec:
    command: str
    algorithm: str = ""
    input: str = ""
    k: int = 2
    hierarchy: str = ""
    distances: str = ""
    epsilon: float = 0.03
    seed: int = 0
    repeats: int = 1
    output: str = ""
    metrics_json: str = ""
    metrics_csv: str = ""
    extra: dict = field(default_factory=dict)


def _resolve_seed(value: Optional[int]) -> int:
    if value is not None:
        return value
    env = os.environ.get("STREAMDECOMP_SEED")
    return int(env) if env else 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True)
    p.add_argument("--epsilon", type=float, default=0.03)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", default="")
    p.add_argument("--metrics-json", default="")
    p.add_argument("--metrics-csv", default="")
    p.add_argument("--time-core", action="store_true",
                   help="preload the stream and report compute time separately")


def build_parser() -> _Parser:
    parser = _Parser(prog="streamdecomp")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="streaming graph partitioning")
    _add_common(p)
    p.add_argument("--algorithm", choices=GRAPH_ALGOS, default="fennel")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--passes", type=int, default=1)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--alpha-growth", type=float, default=2.0)
    p.add_argument("--gamma", type=float, default=1.5)
    p.add_argument("--delta", type=int, default=32768)
    p.add_argument("--model", choices=("basic", "extended"), default="extended")
    p.add_argument("--x", type=int, default=4)
    p.add_argument("--coarsen-rounds", type=int, default=5)
    p.add_argument("--localsearch-rounds", type=int, default=5)
    p.add_argument("--base", type=int, default=4)
    p.add_argument("--hash-bottom-layers", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("hpartition", help="streaming hypergraph partitioning")
    _add_common(p)
    p.add_argument("--objective", choices=("con", "cut"), default="con")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--gamma", type=float, default=1.5)

    p = sub.add_parser("map", help="streaming process mapping")
    _add_common(p)
    p.add_argument("--hierarchy", required=True, help="fan-outs, e.g. 4:16:2")
    p.add_argument("--distances", required=True, help="distances, e.g. 1:10:100")
    p.add_argument("--algorithm", choices=("fennel", "ldg"), default="fennel")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--hash-bottom-layers", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("metrics", help="recompute metrics for a partition")
    p.add_argument("--input", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--hypergraph", action="store_true")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=0.03)
    p.add_argument("--hierarchy", default="")
    p.add_argument("--distances", default="")
    p.add_argument("--metrics-json", default="")
    p.add_argument("--metrics-csv", default="")

    p = sub.add_parser("transpose", help="hMetis net-major to node-major")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)

    p = sub.add_parser("bench", help="run an algorithm/k grid")
    p.add_argument("--input", required=True, nargs="+")
    p.add_argument("--algorithms", required=True,
                   help="comma list drawn from " + ",".join(GRAPH_ALGOS))
    p.add_argument("--k", required=True, help="comma list of block counts")
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--epsilon", type=float, default=0.03)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--delta", type=int, default=32768)
    p.add_argument("--model", choices=("basic", "extended"), default="extended")
    p.add_argument("--passes", type=int, default=1)
    p.add_argument("--base", type=int, default=4)
    p.add_argument("--output", required=True)
    p.add_argument("--summary", default="")
    return parser


def _graph_stream_factory(path: str, preload: bool):
    if preload:
        mem = MemoryGraphStream.load(path)
        return lambda: mem
    return lambda: open_graph_stream(path)


def _total_weight(path: str, header) -> int:
    """c(V): one weight pre-pass for node-weighted inputs, else n."""
    return total_node_weight(path) if header.has_node_weights else header.n


def _run_graph_algorithm(args, seed: int) -> tuple[PartitionState, float, float]:
    """Returns (state, total_seconds, core_seconds)."""
    t0 = time.perf_counter()
    factory = _graph_stream_factory(args.input, args.time_core)
    header = factory().header
    total_weight = _total_weight(args.input, header)
    t1 = time.perf_counter()

    algo = args.algorithm
    if algo == "heistream":
        config = HeiStreamConfig(
            k=args.k, delta=args.delta, model=args.model,
            coarsen_rounds=args.coarsen_rounds,
            localsearch_rounds=args.localsearch_rounds, x=args.x,
            passes=args.passes, epsilon=args.epsilon, alpha=args.alpha,
            gamma=args.gamma, seed=seed)
        state = run_heistream(factory, config, total_weight)
    elif algo == "oms":
        config = OmsConfig(scorer="fennel", epsilon=args.epsilon,
                           base=args.base, alpha=args.alpha, gamma=args.gamma,
                           hash_bottom_layers=args.hash_bottom_layers,
                           threads=args.threads, seed=seed)
        state = run_oms(factory(), config, k=args.k, total_weight=total_weight)
    else:
        config = OnePassConfig(algorithm=algo, passes=args.passes,
                               restream_alpha_growth=args.alpha_growth,
                               seed=seed)
        state = PartitionState(header.n, args.k, args.epsilon, total_weight)
        params = None
        if algo == "fennel":
            alpha = args.alpha if args.alpha is not None else \
                fennel_alpha(header.n, header.m, args.k, args.gamma)
            params = FennelParams(gamma=args.gamma, alpha=alpha)
        if args.passes > 1 and algo != "hashing":
            run_restream(factory, config, state, params)
        else:
            run_onepass(factory(), config, state, params)
    t2 = time.perf_counter()
    return state, t2 - t0, t2 - t1


def _emit(report: dict, spec: RunSpec, json_path: str, csv_path: str) -> None:
    payload = dict(report)
    payload["runspec"] = {k: v for k, v in asdict(spec).items() if v != ""}
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    if csv_path:
        bench_mod.write_rows(csv_path, [report])


def _graph_report(args, state, seed, total_s, core_s, algorithm,
                  hierarchy=None) -> dict:
    cut = metrics_mod.edge_cut(open_graph_stream(args.input), state.assignment)
    comm = None
    if hierarchy is not None:
        comm = metrics_mod.comm_cost(open_graph_stream(args.input),
                                     state.assignment, hierarchy)
    runtime_ms = (core_s if args.time_core else total_s) * 1000.0
    return {
        "edge_cut": cut,
        "cut_net": None,
        "connectivity": None,
        "imbalance": metrics_mod.imbalance(state.block_weight, state.k),
        "comm_cost": comm,
        "runtime_ms": runtime_ms,
        "algorithm": algorithm,
        "k": state.k,
        "epsilon": state.epsilon,
        "seed": seed,
        "runtime_total_ms": total_s * 1000.0,
        "runtime_core_ms": core_s * 1000.0,
        "balanced": state.is_balanced(),
        "violations": state.violations,
    }


def cmd_partition(args) -> int:
    seed = _resolve_seed(args.seed)
    state, total_s, core_s = _run_graph_algorithm(args, seed)
    if args.output:
        write_partition(args.output, state.assignment)
    report = _graph_report(args, state, seed, total_s, core_s, args.algorithm)
    spec = RunSpec(command="partition", algorithm=args.algorithm,
                   input=args.input, k=args.k, epsilon=args.epsilon,
                   seed=seed, output=args.output,
                   metrics_json=args.metrics_json, metrics_csv=args.metrics_csv,
                   extra={"passes": args.passes, "delta": args.delta,
                          "model": args.model, "base": args.base})
    _emit(report, spec, args.metrics_json, args.metrics_csv)
    if state.violations:
        print(f"warning: {state.violations} capacity violations", file=sys.stderr)
    return 0


def cmd_hpartition(args) -> int:
    seed = _resolve_seed(args.seed)
    objective = "connectivity" if args.objective == "con" else "cutnet"
    t0 = time.perf_counter()
    if args.time_core:
        mem = MemoryHypergraphStream.load(args.input)
        factory = lambda: mem
    else:
        factory = lambda: open_hypergraph_node_stream(args.input)
    stream = factory()
    total_weight = _total_weight(args.input, stream.header)
    t1 = time.perf_counter()
    config = FreightConfig(objective=objective, k=args.k,
                           epsilon=args.epsilon, gamma=args.gamma,
                           alpha=args.alpha, seed=seed)
    state = run_freight(stream, config, total_weight)
    t2 = time.perf_counter()
    if args.output:
        write_partition(args.output, state.assignment)
    cut, conn = metrics_mod.cut_net_and_connectivity(
        factory(), state.assignment)
    report = {
        "edge_cut": None,
        "cut_net": cut,
        "connectivity": conn,
        "imbalance": metrics_mod.imbalance(state.block_weight, state.k),
        "comm_cost": None,
        "runtime_ms": ((t2 - t1) if args.time_core else (t2 - t0)) * 1000.0,
        "algorithm": f"freight-{args.objective}",
        "k": state.k,
        "epsilon": state.epsilon,
        "seed": seed,
        "runtime_total_ms": (t2 - t0) * 1000.0,
        "runtime_core_ms": (t2 - t1) * 1000.0,
        "balanced": state.is_balanced(),
        "violations": state.violations,
    }
    spec = RunSpec(command="hpartition", algorithm=f"freight-{args.objective}",
                   input=args.input, k=args.k, epsilon=args.epsilon, seed=seed,
                   output=args.output, metrics_json=args.metrics_json,
                   metrics_csv=args.metrics_csv)
    _emit(report, spec, args.metrics_json, args.metrics_csv)
    if state.violations:
        print(f"warning: {state.violations} capacity violations", file=sys.stderr)
    return 0


def cmd_map(args) -> int:
    seed = _resolve_seed(args.seed)
    hierarchy = HierarchySpec.parse(args.hierarchy, args.distances)
    t0 = time.perf_counter()
    stream = _graph_stream_factory(args.input, args.time_core)()
    total_weight = _total_weight(args.input, stream.header)
    t1 = time.perf_counter()
    config = OmsConfig(scorer=args.algorithm, epsilon=args.epsilon,
                       alpha=args.alpha,
                       hash_bottom_layers=args.hash_bottom_layers,
                       threads=args.threads, seed=seed)
    state = run_oms(stream, config, spec=hierarchy, total_weight=total_weight)
    t2 = time.perf_counter()
    if args.output:
        write_partition(args.output, state.assignment)
    report = _graph_report(args, state, seed, t2 - t0, t2 - t1,
                           f"oms-{args.algorithm}", hierarchy)
    spec = RunSpec(command="map", algorithm=f"oms-{args.algorithm}",
                   input=args.input, k=hierarchy.k, hierarchy=args.hierarchy,
                   distances=args.distances, epsilon=args.epsilon, seed=seed,
                   output=args.output, metrics_json=args.metrics_json,
                   metrics_csv=args.metrics_csv)
    _emit(report, spec, args.metrics_json, args.metrics_csv)
    return 0


def cmd_metrics(args) -> int:
    assignment = read_partition(args.partition)
    k = args.k if args.k is not None else (max(assignment) + 1 if assignment else 1)
    weights = [0] * k
    quality = metrics_mod.QualityReport()
    if args.hypergraph:
        stream = open_hypergraph_node_stream(args.input)
        for record in stream:
            weights[assignment[record.id]] += record.weight
        quality.cut_net, quality.connectivity = \
            metrics_mod.cut_net_and_connectivity(
                open_hypergraph_node_stream(args.input), assignment)
    else:
        for record in open_graph_stream(args.input):
            weights[assignment[record.id]] += record.weight
        quality.edge_cut = metrics_mod.edge_cut(
            open_graph_stream(args.input), assignment)
    if args.hierarchy:
        hierarchy = HierarchySpec.parse(args.hierarchy, args.distances)
        quality.comm_cost = metrics_mod.comm_cost(
            open_graph_stream(args.input), assignment, hierarchy)
    quality.imbalance = metrics_mod.imbalance(weights, k)
    report = quality.as_dict()
    report.update({
        "runtime_ms": None,
        "algorithm": "metrics",
        "k": k,
        "epsilon": args.epsilon,
        "seed": None,
    })
    spec = RunSpec(command="metrics", input=args.input, k=k,
                   epsilon=args.epsilon)
    _emit(report, spec, args.metrics_json, args.metrics_csv)
    return 0


def cmd_transpose(args) -> int:
    header = transpose_hmetis(args.input, args.output)
    print(f"wrote {args.output}: n={header.n} m={header.m} pins={header.pins}")
    return 0


def cmd_bench(args) -> int:
    base_seed = _resolve_seed(args.seed)
    algorithms = args.algorithms.split(",")
    ks = [int(t) for t in args.k.split(",")]
    rows = []
    for path in args.input:
        for algorithm in algorithms:
            if algorithm not in GRAPH_ALGOS:
                raise UsageError(f"unknown algorithm {algorithm!r}")
            for k in ks:
                for rep in range(args.repeats):
                    seed = base_seed + rep
                    sub = argparse.Namespace(
                        input=path, algorithm=algorithm, k=k,
                        epsilon=args.epsilon, seed=seed, passes=args.passes,
                        alpha=None, alpha_growth=2.0, gamma=1.5,
                        delta=args.delta, model=args.model, x=4,
                        coarsen_rounds=5, localsearch_rounds=5,
                        base=args.base, hash_bottom_layers=0, threads=1,
                        time_core=True, output="", metrics_json="",
                        metrics_csv="")
                    state, total_s, core_s = _run_graph_algorithm(sub, seed)
                    rows.append(_graph_report(sub, state, seed, total_s,
                                              core_s, algorithm))
    bench_mod.write_rows(args.output, rows)
    if args.summary:
        summary = bench_mod.summarize(bench_mod.read_rows(args.output))
        with open(args.summary, "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    print(f"wrote {len(rows)} rows to {args.output}")
    return 0


COMMANDS = {
    "partition": cmd_partition,
    "hpartition": cmd_hpartition,
    "map": cmd_map,
    "metrics": cmd_metrics,
    "transpose": cmd_transpose,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (FormatError, FileNotFoundError, ValueError, IndexError,
            KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
