"""Output oracle: re-reads inputs and partition files and recounts quality.

Independent of ``streamdecomp``: it parses the input files itself and
recounts block weights, edge cut, cut-net, connectivity and communication
cost from each op's partition file.  An op passes when

* its partition file has one block id in ``[0, k)`` per node,
* ``max c(V_i) <= ceil((1+eps) * c(V) / k)`` with ``c(V)`` from the true
  node weights (hashing is exempt from this bound),
* and every quality field and ``balanced`` in its metrics JSON agree with
  the recount.

``bench`` writes no partition file, so each of its CSV rows must equal the
recount of the partition op with the same configuration.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction


def _fmt_bits(token: str) -> tuple[bool, bool]:
    value = int(token)
    return (value // 10) % 10 == 1, value % 10 == 1


class Graph:
    """METIS graph: node weights and each undirected edge once (u < v)."""

    def __init__(self, path: str):
        with open(path) as fh:
            lines = [line for line in fh if not line.startswith("%")]
        head = lines[0].split()
        self.n, self.m = int(head[0]), int(head[1])
        node_w, edge_w = _fmt_bits(head[2]) if len(head) > 2 else (False, False)
        self.node_weights = [1] * self.n
        self.edges: list[tuple[int, int, int]] = []
        step = 2 if edge_w else 1
        for u in range(self.n):
            parts = [int(t) for t in lines[1 + u].split()]
            if node_w:
                self.node_weights[u] = parts[0]
                parts = parts[1:]
            for j in range(0, len(parts), step):
                v = parts[j] - 1
                if v > u:
                    self.edges.append((u, v, parts[j + 1] if edge_w else 1))
        if len(self.edges) != self.m:
            raise ValueError(f"{path}: {len(self.edges)} edges, header says {self.m}")


class Hypergraph:
    """Node-major hypergraph: node weights, and pins and weight per net."""

    def __init__(self, path: str):
        with open(path) as fh:
            lines = fh.read().split("\n")
        head = lines[0].split()
        self.n, self.m = int(head[0]), int(head[1])
        node_w, net_w = _fmt_bits(head[3]) if len(head) > 3 else (False, False)
        self.node_weights = [1] * self.n
        self.pins: list[list[int]] = [[] for _ in range(self.m)]
        self.net_weights = [1] * self.m
        step = 2 if net_w else 1
        for v in range(self.n):
            parts = [int(t) for t in lines[1 + v].split()]
            if node_w:
                self.node_weights[v] = parts[0]
                parts = parts[1:]
            for j in range(0, len(parts), step):
                e = parts[j] - 1
                self.pins[e].append(v)
                if net_w:
                    self.net_weights[e] = parts[j + 1]


def pe_distance(fanouts: list[int], distances: list[int], a: int, b: int) -> int:
    """Distance of the highest hierarchy layer on which two PEs differ."""
    strides = [math.prod(fanouts[:i]) for i in range(len(fanouts))]
    for i in range(len(fanouts) - 1, -1, -1):
        if a // strides[i] != b // strides[i]:
            return distances[i]
    return 0


def read_partition(path: str, n: int, k: int) -> list[int]:
    with open(path) as fh:
        blocks = [int(t) for t in fh.read().split()]
    if len(blocks) != n:
        raise ValueError(f"partition has {len(blocks)} entries for {n} nodes")
    if any(b < 0 or b >= k for b in blocks):
        raise ValueError(f"block id outside [0, {k})")
    return blocks


def recount(inp, blocks: list[int], k: int, epsilon: float,
            hierarchy=None) -> dict:
    """Quality of one partition of a Graph or Hypergraph, from scratch."""
    weights = [0] * k
    for v, b in enumerate(blocks):
        weights[b] += inp.node_weights[v]
    total = sum(inp.node_weights)
    l_max = math.ceil((1 + Fraction(str(epsilon))) * total / k)
    out = {"max_weight": max(weights), "l_max": l_max,
           "balanced": max(weights) <= l_max,
           "imbalance": max(weights) * k / total - 1.0}
    if isinstance(inp, Graph):
        out["edge_cut"] = sum(w for u, v, w in inp.edges if blocks[u] != blocks[v])
        if hierarchy is not None:
            fanouts, distances = hierarchy
            out["comm_cost"] = sum(
                w * pe_distance(fanouts, distances, blocks[u], blocks[v])
                for u, v, w in inp.edges if blocks[u] != blocks[v])
    else:
        cut = connectivity = 0
        for pins, w in zip(inp.pins, inp.net_weights):
            lam = len({blocks[v] for v in pins})
            if lam > 1:
                cut += w
                connectivity += (lam - 1) * w
        out["cut_net"] = cut
        out["connectivity"] = connectivity
    return out


def _close(a, b) -> bool:
    return a is not None and abs(float(a) - b) <= 1e-9 * max(1.0, abs(b))


def check_report(report: dict, truth: dict, k: int, bound_exempt: bool) -> list[str]:
    """Disagreements between a metrics JSON and the recount."""
    problems = []
    if report.get("k") != k:
        problems.append(f"k {report.get('k')} != {k}")
    for key in ("edge_cut", "cut_net", "connectivity", "comm_cost"):
        if key in truth and report.get(key) != truth[key]:
            problems.append(f"{key} {report.get(key)} != recount {truth[key]}")
    if not _close(report.get("imbalance"), truth["imbalance"]):
        problems.append(f"imbalance {report.get('imbalance')} != "
                        f"recount {truth['imbalance']}")
    if report.get("balanced") != truth["balanced"]:
        problems.append(f"balanced {report.get('balanced')} != recount "
                        f"{truth['balanced']} (max {truth['max_weight']}, "
                        f"L_max {truth['l_max']})")
    if not bound_exempt and not truth["balanced"]:
        problems.append(f"max block weight {truth['max_weight']} > "
                        f"L_max {truth['l_max']}")
    return problems


def check_bench_rows(csv_path: str, expected: dict) -> list[str]:
    """Each bench row must equal the recount of its matching partition op.

    ``expected`` maps algorithm -> (k, recount or None, bound_exempt).
    """
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if sorted(r["algorithm"] for r in rows) != sorted(expected):
        problems.append(f"rows {[r['algorithm'] for r in rows]} != "
                        f"{sorted(expected)}")
    for row in rows:
        if row["algorithm"] not in expected:
            continue
        k, truth, exempt = expected[row["algorithm"]]
        if truth is None:
            problems.append(f"{row['algorithm']}: no verified partition to "
                            "compare with")
            continue
        if int(row["k"]) != k:
            problems.append(f"{row['algorithm']}: k {row['k']} != {k}")
        if row["edge_cut"] == "" or int(row["edge_cut"]) != truth["edge_cut"]:
            problems.append(f"{row['algorithm']}: edge_cut {row['edge_cut']} "
                            f"!= recount {truth['edge_cut']}")
        if not _close(row["imbalance"] or None, truth["imbalance"]):
            problems.append(f"{row['algorithm']}: imbalance {row['imbalance']}"
                            f" != recount {truth['imbalance']}")
        if not exempt and not truth["balanced"]:
            problems.append(f"{row['algorithm']}: max block weight "
                            f"{truth['max_weight']} > L_max {truth['l_max']}")
    return problems
