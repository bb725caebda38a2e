"""Seeded input generator for the streamdecomp benchmark.

Writes every input file a workload needs into one directory, plus
``manifest.json`` describing them.  Runs as its own process so that its
memory never shows up in the peak RSS of the process that runs the ops.

    python3 perfbench/gen.py --workload wide-k --seed 1 --out DIR [--scale 1.0]

Graphs keep stream-order locality: about 90% of the edges join ids at most
200 apart, the rest join uniformly random ids.  The hypergraph is the
row-net model of a banded sparse matrix (one net per row, one node per
column) written net-major in hMetis format; the benchmark converts it with
the ``transpose`` command during set-up.  The probe files are small and
node-weighted: a METIS fmt-11 graph and a node-major fmt-10 hypergraph,
generated from a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import os
import random

from plan import WORKLOADS, input_sizes

LOCAL_SHARE = 0.9
SPAN = 200


def local_edges(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """m distinct undirected edges, LOCAL_SHARE of them within +-SPAN ids."""
    edges = set()
    while len(edges) < m:
        u = rng.randrange(n)
        if rng.random() < LOCAL_SHARE:
            v = u + rng.randint(1, SPAN)
            if v >= n:
                v = u - rng.randint(1, SPAN)
        else:
            v = rng.randrange(n)
        if 0 <= v != u:
            edges.add((u, v) if u < v else (v, u))
    return sorted(edges)


def write_metis(path: str, n: int, edges, node_weights=None,
                edge_weights=None) -> dict:
    adj: list[list[int]] = [[] for _ in range(n)]
    for idx, (u, v) in enumerate(edges):
        adj[u].append(idx)
        adj[v].append(idx)
    fmt = (10 if node_weights else 0) + (1 if edge_weights else 0)
    with open(path, "w") as out:
        out.write(f"{n} {len(edges)}" + (f" {fmt}" if fmt else "") + "\n")
        for u in range(n):
            fields = [str(node_weights[u])] if node_weights else []
            for idx in adj[u]:
                a, b = edges[idx]
                fields.append(str((b if a == u else a) + 1))
                if edge_weights:
                    fields.append(str(edge_weights[idx]))
            out.write(" ".join(fields) + "\n")
    return {"kind": "graph", "n": n, "m": len(edges),
            "total_weight": sum(node_weights) if node_weights else n}


def banded_nets(rng: random.Random, n: int, pins_per_net: int,
                band: int) -> list[list[int]]:
    """Row-net model of a banded n x n matrix: the diagonal plus mostly
    in-band columns, a LOCAL_SHARE-complement of them random."""
    nets = []
    for row in range(n):
        cols = {row}
        while len(cols) < pins_per_net:
            if rng.random() < LOCAL_SHARE:
                c = row + rng.randint(-band, band)
                if 0 <= c < n:
                    cols.add(c)
            else:
                cols.add(rng.randrange(n))
        nets.append(sorted(cols))
    return nets


def write_hmetis(path: str, n: int, nets: list[list[int]]) -> dict:
    with open(path, "w") as out:
        out.write(f"{len(nets)} {n}\n")
        for pins in nets:
            out.write(" ".join(str(v + 1) for v in pins) + "\n")
    return {"kind": "hmetis", "n": n, "m": len(nets),
            "pins": sum(len(p) for p in nets), "total_weight": n}


def write_node_major(path: str, n: int, nets: list[list[int]],
                     node_weights: list[int]) -> dict:
    incident: list[list[int]] = [[] for _ in range(n)]
    for e, pins in enumerate(nets):
        for v in pins:
            incident[v].append(e)
    pins_total = sum(len(p) for p in nets)
    with open(path, "w") as out:
        out.write(f"{n} {len(nets)} {pins_total} 10\n")
        for v in range(n):
            out.write(" ".join([str(node_weights[v])]
                               + [str(e + 1) for e in incident[v]]) + "\n")
    return {"kind": "hyper", "n": n, "m": len(nets), "pins": pins_total,
            "total_weight": sum(node_weights)}


def generate(workload: str, seed: int, out_dir: str, scale: float) -> dict:
    """Write the workload's inputs and return the manifest."""
    os.makedirs(out_dir, exist_ok=True)
    sizes = input_sizes(workload, scale)
    rng = random.Random(f"{workload}:{seed}")
    files = {}
    for name, (n, avg_degree) in sizes["graphs"].items():
        files[name] = write_metis(os.path.join(out_dir, name + ".graph"), n,
                                  local_edges(rng, n, n * avg_degree // 2))
    n_h, pins_per_net, band = sizes["hypergraph"]
    files["hyper_nets"] = write_hmetis(
        os.path.join(out_dir, "hyper_nets.hgr"), n_h,
        banded_nets(rng, n_h, pins_per_net, band))
    if WORKLOADS[workload]["probe"]:
        # A fixed fixture, the same for every seed, so that the probe's
        # outcome (and the failure count it adds) never varies between runs.
        prng = random.Random("probe")
        n_p = sizes["probe_n"]
        edges = local_edges(prng, n_p, n_p * 5)
        files["probe_graph"] = write_metis(
            os.path.join(out_dir, "probe_graph.graph"), n_p, edges,
            node_weights=[prng.randint(1, 20) for _ in range(n_p)],
            edge_weights=[prng.randint(1, 5) for _ in edges])
        files["probe_hyper"] = write_node_major(
            os.path.join(out_dir, "probe_hyper.hgr"), n_p,
            banded_nets(prng, n_p, 4, 50),
            [prng.randint(1, 20) for _ in range(n_p)])
    manifest = {"workload": workload, "seed": seed, "scale": scale,
                "files": files}
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--scale", type=float, default=1.0)
    args = ap.parse_args()
    generate(args.workload, args.seed, args.out, args.scale)


if __name__ == "__main__":
    main()
