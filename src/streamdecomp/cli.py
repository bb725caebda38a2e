"""Unified command-line front end.

Commands: partition (graphs), hpartition (hypergraphs), map (process
mapping), metrics (recompute quality of an existing partition), transpose
(hMetis net-major to node-major), bench (algorithm/k grids to CSV).

partition, hpartition, map and every bench cell run through one function,
:func:`execute`; the parsed arguments are the run description.

Exit codes: 0 ok, 1 usage error, 2 input error, 3 internal invariant failure.
The seed falls back to the STREAMDECOMP_SEED environment variable, then 0.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import json
import math
import os
import sys
import time
from contextlib import closing, contextmanager
from operator import itemgetter
from pathlib import Path

from . import bench as bench_mod
from . import metrics as metrics_mod
from .freight import run_freight
from .heistream import HeiStreamConfig, run_heistream
from .multisection import HierarchySpec, OmsConfig, int_list, run_oms
from .onepass import FennelParams, OnePassConfig, run_onepass, run_restream
from .partition import PartitionState
from .streams import MemoryStream, open_graph_stream, \
    open_hypergraph_node_stream, read_partition, transpose_hmetis, \
    write_partition

GRAPH_ALGOS = ("hashing", "ldg", "fennel", "heistream", "oms")
BENCH_FORWARDED = ("epsilon", "delta", "model", "passes", "base")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


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
    p.set_defaults(gamma=1.5)

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
    p.add_argument("--seed", type=int, default=None)
    # BENCH_FORWARDED: each cell takes partition's default unless given
    p.add_argument("--epsilon", type=float, default=argparse.SUPPRESS)
    p.add_argument("--delta", type=int, default=argparse.SUPPRESS)
    p.add_argument("--model", choices=("basic", "extended"),
                   default=argparse.SUPPRESS)
    p.add_argument("--passes", type=int, default=argparse.SUPPRESS)
    p.add_argument("--base", type=int, default=argparse.SUPPRESS)
    p.add_argument("--output", required=True)
    p.add_argument("--summary", default="")
    return parser


@functools.cache
def _parser() -> _Parser:
    """The process's one parser: building it takes about a millisecond, a
    few percent of a small run, and parsing leaves no state in it."""
    return build_parser()


def _hierarchy(spec) -> HierarchySpec:
    return HierarchySpec.parse(spec.hierarchy, spec.distances)


# Run functions: (spec, stream, state, params, hierarchy) -> the state,
# filled in.  Restreaming runs read the stream's chunks() once per pass.
# Each names its run_* as a module global, looked up when it is called.

def _onepass(spec, stream, state, params, hierarchy):
    config = OnePassConfig(algorithm=spec.algorithm, passes=spec.passes,
                           restream_alpha_growth=spec.alpha_growth)
    if spec.passes > 1:
        return run_restream(stream, config, state, params)
    return run_onepass(stream, config, state, params)


def _heistream(spec, stream, state, params, hierarchy):
    config = HeiStreamConfig(
        delta=spec.delta, model=spec.model,
        coarsen_rounds=spec.coarsen_rounds,
        localsearch_rounds=spec.localsearch_rounds, x=spec.x,
        passes=spec.passes, seed=spec.seed)
    # The batch models' (id, weight) tuples form no reference cycle.
    with _gc_paused():
        return run_heistream(stream, config, state, params)


def _oms(spec, stream, state, params, hierarchy):
    config = OmsConfig(scorer="fennel", base=spec.base,
                       hash_bottom_layers=spec.hash_bottom_layers)
    return run_oms(stream, config, state, params)


def _map(spec, stream, state, params, hierarchy):
    config = OmsConfig(scorer=spec.algorithm,
                       hash_bottom_layers=spec.hash_bottom_layers)
    return run_oms(stream, config, state, params, hierarchy)


def _freight(spec, stream, state, params, hierarchy):
    return run_freight(stream, state, params,
                       "connectivity" if spec.objective == "con" else "cutnet")


# Reported algorithm name -> (stream kind, run function).
ALGORITHMS = {
    **{name: ("graph", _onepass) for name in ("hashing", "ldg", "fennel")},
    "heistream": ("graph", _heistream),
    "oms": ("graph", _oms),
    "oms-fennel": ("graph", _map),
    "oms-ldg": ("graph", _map),
    "freight-con": ("hypergraph", _freight),
    "freight-cut": ("hypergraph", _freight),
}


def _algorithm(spec) -> str:
    if spec.command == "hpartition":
        return f"freight-{spec.objective}"
    if spec.command == "map":
        return f"oms-{spec.algorithm}"
    return spec.algorithm


def _verify(stream, assignment, k: int, hypergraph: bool,
            hierarchy) -> tuple[dict, list[int]]:
    """Quality from a separate pass over ``stream``: the objective (edge cut,
    or cut-net and connectivity), comm cost with a hierarchy (in the same
    pass as the edge cut) and the imbalance of recounted block weights.  The
    report starts with these five keys in order, ``None`` for one it lacks;
    the recounted block weights come with it."""
    edge_cut = cut_net = connectivity = comm_cost = None
    if hypergraph:
        cut_net, connectivity = \
            metrics_mod.cut_net_and_connectivity(stream, assignment)
    elif hierarchy is not None:
        edge_cut, comm_cost = \
            metrics_mod.comm_cost(stream, assignment, hierarchy)
    else:
        edge_cut = metrics_mod.edge_cut(stream, assignment)
    weights = metrics_mod.block_weights(stream, assignment, k)
    return {"edge_cut": edge_cut, "cut_net": cut_net,
            "connectivity": connectivity,
            "imbalance": metrics_mod.imbalance(weights),
            "comm_cost": comm_cost}, weights


@contextmanager
def _gc_paused():
    """No cyclic garbage collection inside the block.  For work that
    allocates many long-lived objects but forms no reference cycle: the
    collections its allocations trigger would pass over them and free
    nothing."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def execute(spec) -> dict:
    """One partition, hpartition or map run, from input file to report.

    The one place that sets up a run: it resolves k (``--k``, or the
    hierarchy's for ``map``), opens the run's one stream (or preloads it
    with ``time_core``), takes c(V) and builds the run's PartitionState and
    FennelParams.  It then runs and times the algorithm, writes the
    partition, verifies the objective in a separate pass over the same
    stream (which replays the spool the first pass wrote) and warns about
    capacity violations.  The stream's spool is closed on every exit.
    """
    algorithm = _algorithm(spec)
    kind, run = ALGORITHMS[algorithm]
    hierarchy = _hierarchy(spec) if spec.command == "map" else None
    k = hierarchy.k if hierarchy is not None else spec.k
    t0 = time.perf_counter()
    opener = open_graph_stream if kind == "graph" else open_hypergraph_node_stream
    # A preload keeps the parse's chunks in memory, so it writes no spool.
    with closing(opener(spec.input, spool=not spec.time_core)) as stream:
        if spec.time_core:
            stream = MemoryStream(stream.header, list(stream.chunks()))
        header = stream.header
        # c(V) fixes L_max before the run: on node-weighted input it sums
        # the node weights of the first pass, which the run then replays.
        total_weight = header.n if not header.has_node_weights else \
            sum(map(sum, map(itemgetter(4), stream.chunks())))
        state = PartitionState(header.n, k, spec.epsilon, total_weight)
        params = FennelParams.for_stream(header.n, header.m, k, spec.gamma,
                                         spec.alpha, total_weight)
        t1 = time.perf_counter()
        state = run(spec, stream, state, params, hierarchy)
        t2 = time.perf_counter()

        if spec.output:
            write_partition(spec.output, state.assignment)
        if state.violations:
            print(f"warning: {state.violations} capacity violations",
                  file=sys.stderr)
        report, weights = _verify(stream, state.assignment, k,
                                  kind == "hypergraph", hierarchy)
    report.update({
        "runtime_ms": ((t2 - t1) if spec.time_core else (t2 - t0)) * 1000.0,
        "algorithm": algorithm,
        "k": state.k,
        "epsilon": state.epsilon,
        "seed": spec.seed,
        "runtime_total_ms": (t2 - t0) * 1000.0,
        "runtime_core_ms": (t2 - t1) * 1000.0,
        "balanced": max(weights) <= state.l_max,
        "violations": state.violations,
    })
    return report


def _emit(report: dict, spec) -> None:
    payload = dict(report, runspec={k: v for k, v in vars(spec).items()
                                    if v != ""})
    text = json.dumps(payload, indent=2) + "\n"
    if spec.metrics_json:
        Path(spec.metrics_json).write_text(text)
    else:
        sys.stdout.write(text)
    if spec.metrics_csv:
        bench_mod.write_rows(spec.metrics_csv, [report])


def cmd_run(args) -> int:
    _emit(execute(args), args)
    return 0


def cmd_metrics(args) -> int:
    k, hierarchy = args.k, None
    if bool(args.hierarchy) != bool(args.distances):
        missing = "--distances" if args.hierarchy else "--hierarchy"
        raise UsageError(f"comm cost needs {missing} too")
    if args.hierarchy:
        if args.hypergraph:
            raise UsageError("--hierarchy (comm cost) needs a graph input")
        hierarchy = _hierarchy(args)
        if k not in (None, hierarchy.k):
            raise UsageError(f"--k {k} disagrees with the hierarchy's "
                             f"k={hierarchy.k}")
        k = hierarchy.k
    opener = open_hypergraph_node_stream if args.hypergraph \
        else open_graph_stream
    with closing(opener(args.input)) as stream:
        assignment = read_partition(args.partition, stream.header.n, k)
        if k is None:
            k = max(assignment) + 1
        report, _ = _verify(stream, assignment, k, args.hypergraph,
                            hierarchy)
    report.update({"runtime_ms": None, "algorithm": "metrics", "k": k,
                   "epsilon": args.epsilon, "seed": None})
    _emit(report, args)
    return 0


def cmd_transpose(args) -> int:
    header = transpose_hmetis(args.input, args.output)
    print(f"wrote {args.output}: n={header.n} m={header.m} pins={header.pins}")
    return 0


def cmd_bench(args) -> int:
    """Each grid cell is a ``partition --time-core`` run parsed by the
    partition subparser, so the cells share its defaults; every algorithm
    name is checked before the first cell runs."""
    if args.repeats < 1:
        raise ValueError("--repeats must be >= 1")
    parser = _parser()
    forwarded = [f"--{f}={getattr(args, f)}" for f in BENCH_FORWARDED if f in args]
    ks = int_list(args.k, "--k", ",")
    algorithms = args.algorithms.split(",")
    if bad := [name for name in algorithms if name not in GRAPH_ALGOS]:
        raise UsageError(f"argument --algorithms: invalid choice: {bad[0]!r} "
                         f"(choose from {', '.join(GRAPH_ALGOS)})")
    rows = []
    for path, algorithm, k, rep in itertools.product(
            args.input, algorithms, ks, range(args.repeats)):
        rows.append(execute(parser.parse_args([
            "partition", "--input", path, "--algorithm", algorithm,
            "--k", str(k), "--seed", str(args.seed + rep), *forwarded,
            "--time-core"])))
    bench_mod.write_rows(args.output, rows)
    if args.summary:
        summary = bench_mod.summarize(rows)
        Path(args.summary).write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {len(rows)} rows to {args.output}")
    return 0


COMMANDS = {
    "partition": cmd_run,
    "hpartition": cmd_run,
    "map": cmd_run,
    "metrics": cmd_metrics,
    "transpose": cmd_transpose,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if "seed" in args and args.seed is None:
            seed = os.environ.get("STREAMDECOMP_SEED") or "0"
            try:
                args.seed = int(seed)
            except ValueError:
                raise ValueError(f"STREAMDECOMP_SEED {seed!r} is not an "
                                 "integer") from None
        if not 0.0 <= getattr(args, "epsilon", 0.0) < math.inf:   # NaN too
            raise ValueError("epsilon must be finite and >= 0")
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError,
            PermissionError, ValueError) as exc:   # FormatError is a ValueError
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:   # a fault of the program, not of its input
        print(f"internal invariant failure: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
