"""Workload definitions: input sizes and the CLI ops each round runs.

Every workload drives all four CLI commands (``partition``, ``hpartition``,
``map``, ``bench``) so each end-to-end metric exists on each workload; the
workloads differ in k, in algorithm and in which layer dominates:

* ``wide-k``: k=256.  The O(k) block scan of Fennel/LDG dominates, while
  FREIGHT and OMS are already k-independent.  Also runs the node-weighted
  correctness probe.
* ``narrow-k-restream``: k=8 with 3-pass ReFennel/ReLDG.  Parsing dominates,
  and restreaming exercises the unassign/decrement path.  At k=4 the
  restreamed cut falls into one of two regimes depending on the seed
  (edge_cut/m 0.21-0.44 instead of 0.48 on 5 of 18 seeds), too unsteady
  for a bounded quality metric; at k=8 it stays within 0.59-0.60.
* ``buffered``: HeiStream at k=16 with the extended model and about seven
  batches, one pass and two passes.  Coarsening and refinement dominate.

The ``map`` op of the last two maps onto an 8:8 hierarchy: with 2:2 or 4:4
the mapping cost swings by up to 2x between seeds.

Input sizes keep each timed op between about 0.1 and 0.5 s on an idle
2-core x86 host, so that a run holds several rounds even when the host is
busy: on a shared host the median of many short ops is steadier than a few
long ones.  FREIGHT and OMS get larger inputs than the graph partitioning
ops.  A command with one short op per round spread by 9-21% between runs
in busy periods, so ``narrow-k-restream`` runs ``hpartition`` con and cut
and maps a larger graph, and ``wide-k`` and ``narrow-k-restream`` run
``bench`` once per algorithm.  ``buffered`` runs con only: the cut
objective at k=16 varies by 3% between seeds.  ``scale`` shrinks every
input for smoke tests.
"""

from __future__ import annotations

# op fields: command, input file key, extra CLI arguments, and for bench ops
# the partition ops (by name) whose verified results each row must equal.
WORKLOADS = {
    "wide-k": {
        "why": "k=256: the per-node O(k) Fennel/LDG block scan dominates; "
               "FREIGHT and OMS are k-independent; runs the weighted probe",
        "probe": True,
        "graphs": {"graph": (3000, 10), "map_graph": (7000, 10)},
        "hypergraph": (20000, 6, 40),
        "ops": [
            {"name": "fennel", "command": "partition", "input": "graph",
             "args": ["--algorithm", "fennel", "--k", "256"]},
            {"name": "ldg", "command": "partition", "input": "graph",
             "args": ["--algorithm", "ldg", "--k", "256"]},
            {"name": "map", "command": "map", "input": "map_graph",
             "args": ["--hierarchy", "4:8:8", "--distances", "1:10:100"]},
            {"name": "freight-con", "command": "hpartition", "input": "hyper",
             "args": ["--objective", "con", "--k", "256"]},
            {"name": "freight-cut", "command": "hpartition", "input": "hyper",
             "args": ["--objective", "cut", "--k", "256"]},
            {"name": "bench-fennel", "command": "bench", "input": "graph",
             "args": ["--algorithms", "fennel", "--k", "256"],
             "rows": {"fennel": "fennel"}},
            {"name": "bench-ldg", "command": "bench", "input": "graph",
             "args": ["--algorithms", "ldg", "--k", "256"],
             "rows": {"ldg": "ldg"}},
        ],
    },
    "narrow-k-restream": {
        "why": "k=8 with 3-pass restreaming: the parser dominates and the "
               "unassign path runs; a block-scan change should not move it",
        "probe": False,
        "graphs": {"graph": (8000, 10), "map_graph": (16000, 10)},
        "hypergraph": (20000, 6, 40),
        "ops": [
            {"name": "hashing", "command": "partition", "input": "graph",
             "args": ["--algorithm", "hashing", "--k", "8"]},
            {"name": "refennel", "command": "partition", "input": "graph",
             "args": ["--algorithm", "fennel", "--k", "8", "--passes", "3"]},
            {"name": "reldg", "command": "partition", "input": "graph",
             "args": ["--algorithm", "ldg", "--k", "8", "--passes", "3"]},
            {"name": "map", "command": "map", "input": "map_graph",
             "args": ["--hierarchy", "8:8", "--distances", "1:10"]},
            {"name": "freight-con", "command": "hpartition", "input": "hyper",
             "args": ["--objective", "con", "--k", "8"]},
            {"name": "freight-cut", "command": "hpartition", "input": "hyper",
             "args": ["--objective", "cut", "--k", "8"]},
            *({"name": f"bench-{algo}", "command": "bench", "input": "graph",
               "args": ["--algorithms", algo, "--k", "8", "--passes", "3"],
               "rows": {algo: name}}
              for algo, name in (("hashing", "hashing"), ("ldg", "reldg"),
                                 ("fennel", "refennel"))),
        ],
    },
    "buffered": {
        "why": "HeiStream k=16, extended model, ~7 batches, 1 and 2 passes: "
               "coarsening and refinement dominate; no other workload runs it",
        "probe": False,
        "graphs": {"graph": (4000, 10)},
        "hypergraph": (20000, 6, 40),
        "ops": [
            {"name": "heistream", "command": "partition", "input": "graph",
             "args": ["--algorithm", "heistream", "--k", "16",
                      "--delta", "{delta}", "--model", "extended"]},
            {"name": "heistream-2pass", "command": "partition",
             "input": "graph",
             "args": ["--algorithm", "heistream", "--k", "16",
                      "--delta", "{delta}", "--model", "extended",
                      "--passes", "2"]},
            {"name": "map", "command": "map", "input": "graph",
             "args": ["--hierarchy", "8:8", "--distances", "1:10"]},
            {"name": "freight-con", "command": "hpartition", "input": "hyper",
             "args": ["--objective", "con", "--k", "16"]},
            {"name": "bench", "command": "bench", "input": "graph",
             "args": ["--algorithms", "heistream", "--k", "16",
                      "--delta", "{delta}", "--model", "extended"],
             "rows": {"heistream": "heistream"}},
        ],
    },
}

# Node-weighted probe, run once per round of the workloads that have
# ``probe``; every graph algorithm and every command on a small input.
PROBE_K = 8
PROBE_N = 2000
PROBE_OPS = [
    *({"name": f"probe-{algo}", "command": "partition",
       "input": "probe_graph",
       "args": ["--algorithm", algo, "--k", str(PROBE_K)]}
      for algo in ("hashing", "ldg", "fennel", "heistream", "oms")),
    {"name": "probe-map", "command": "map", "input": "probe_graph",
     "args": ["--hierarchy", "2:4", "--distances", "1:10"]},
    {"name": "probe-freight-con", "command": "hpartition",
     "input": "probe_hyper", "args": ["--objective", "con", "--k", str(PROBE_K)]},
    {"name": "probe-freight-cut", "command": "hpartition",
     "input": "probe_hyper", "args": ["--objective", "cut", "--k", str(PROBE_K)]},
    {"name": "probe-bench", "command": "bench", "input": "probe_graph",
     "args": ["--algorithms", "hashing,ldg,fennel", "--k", str(PROBE_K)],
     "rows": {"hashing": "probe-hashing", "ldg": "probe-ldg",
              "fennel": "probe-fennel"}},
]


def input_sizes(workload: str, scale: float) -> dict:
    spec = WORKLOADS[workload]
    graphs = {name: (max(300, int(n * scale)), deg)
              for name, (n, deg) in spec["graphs"].items()}
    n_h, pins, band = spec["hypergraph"]
    return {"graphs": graphs,
            "hypergraph": (max(300, int(n_h * scale)), pins, band),
            "probe_n": PROBE_N}


def heistream_delta(n: int) -> int:
    """About seven batches per pass."""
    return -(-n // 7)
