"""Reference implementations used as oracles by the tests.

These deliberately avoid the production fast paths: the FREIGHT reference
and the Fennel and LDG scans score every block per node, the Fennel twin
reads neighbor assignments straight off the graph, and the multi-pass
multi-section reference restreams once per tree layer with per-layer weight
tables instead of descending a tree.
"""

from __future__ import annotations

import math

from streamdecomp.freight import (FreightConfig, NetTracker, SortedBlocks,
                                  naive_freight_assign, select_block)
from streamdecomp.onepass import FennelParams, fennel_alpha, fennel_gain
from streamdecomp.partition import UNASSIGNED, PartitionState


def _neighbor_gains(record, assignment) -> dict[int, float]:
    gains: dict[int, float] = {}
    for v, w in record.neighbors:
        block = assignment[v]
        if block != UNASSIGNED:
            gains[block] = gains.get(block, 0.0) + w
    return gains


def _exhaustion_fallback(state: PartitionState) -> int:
    # No feasible block: place on the globally lightest one and flag it.
    state.violations += 1
    return min(range(state.k), key=lambda i: (state.block_weight[i], i))


def scan_fennel_assign(record, state: PartitionState,
                       params: FennelParams) -> int:
    """Fennel by scoring all k blocks: the oracle of ``fennel_assign``."""
    gains = _neighbor_gains(record, state.assignment)
    best = None
    best_key = None
    for i in range(state.k):
        bw = state.block_weight[i]
        if params.hard_balance and bw + record.weight > state.l_max:
            continue
        score = fennel_gain(gains.get(i, 0.0), record.weight, bw, params)
        key = (score, -bw, -i)
        if best_key is None or key > best_key:
            best, best_key = i, key
    if best is None:
        best = _exhaustion_fallback(state)
    state.assign(record.id, best, record.weight)
    return best


def scan_ldg_assign(record, state: PartitionState) -> int:
    """LDG by scoring all k blocks: the oracle of ``ldg_assign``."""
    gains = _neighbor_gains(record, state.assignment)
    best = None
    best_key = None
    for i in range(state.k):
        bw = state.block_weight[i]
        if bw + record.weight > state.l_max:
            continue
        score = gains.get(i, 0.0) * (1.0 - bw / state.l_max)
        key = (score, -state.block_count[i], -i)
        if best_key is None or key > best_key:
            best, best_key = i, key
    if best is None:
        best = _exhaustion_fallback(state)
    state.assign(record.id, best, record.weight)
    return best


def run_freight_reference(stream, config: FreightConfig,
                          total_weight=None) -> PartitionState:
    """FREIGHT by full per-node scans over all k blocks (O(nk))."""
    header = stream.header
    if total_weight is None:
        total_weight = header.n
    state = PartitionState(header.n, config.k, config.epsilon, total_weight)
    tracker = NetTracker(header.m)
    blocks = SortedBlocks(config.k)
    alpha = config.alpha
    if alpha is None:
        alpha = fennel_alpha(header.n, header.m, config.k, config.gamma)
    params = FennelParams(gamma=config.gamma, alpha=alpha)
    for record in stream:
        naive_freight_assign(record, state, tracker, blocks, config, params)
    return state


def run_fennel_twin(graph_stream, k: int, epsilon: float = 0.03,
                    alpha=None) -> PartitionState:
    """Fennel over a graph stream with FREIGHT's canonical tie policy.

    Gains come from neighbor assignments directly (no net tracker); the shared
    block selector makes the tie handling identical, so on size-2-net inputs
    this is the graph-side half of the Fennel/FREIGHT equivalence.
    """
    header = graph_stream.header
    state = PartitionState(header.n, k, epsilon, header.n)
    blocks = SortedBlocks(k)
    if alpha is None:
        alpha = fennel_alpha(header.n, header.m, k)
    params = FennelParams(alpha=alpha)
    for record in graph_stream:
        gains: dict[int, float] = {}
        counts: dict[int, int] = {}
        for v, w in record.neighbors:
            b = state.assignment[v]
            if b != UNASSIGNED:
                gains[b] = gains.get(b, 0.0) + w
                counts[b] = counts.get(b, 0) + 1
        best = select_block(gains, counts, record.weight, state, params,
                            blocks)
        state.assign(record.id, best, record.weight)
        blocks.increment(best)
    return state


def run_multisection_multipass(graph_stream, tree, k: int, epsilon: float,
                               alpha: float, scorer: str = "fennel",
                               gamma: float = 1.5) -> list[int]:
    """Layer-by-layer restreamed multi-section (one pass per tree layer).

    Pass j refines every node's block to one child of its layer-(j-1) block,
    keeping plain per-node weight tables rather than tree node state.
    """
    n = graph_stream.header.n
    l_max = tree.l_max
    # current tree node per graph node; start with everyone at the root
    position = [tree.root] * n
    depth = 0
    while any(p.children for p in set(position)):
        new_weights: dict[int, float] = {}
        for record in graph_stream:
            node = position[record.id]
            if not node.children:
                new_weights[id(node)] = new_weights.get(id(node), 0) + record.weight
                continue
            best = None
            best_key = None
            for idx, child in enumerate(node.children):
                cw = new_weights.get(id(child), 0)
                if cw + record.weight > child.t * l_max:
                    continue
                gain = 0.0
                for v, w in record.neighbors:
                    other = position[v]
                    # neighbor counts only when the neighbor has already been
                    # restreamed in this pass (deeper position inside child)
                    if other.lo >= child.lo and other.hi <= child.hi:
                        gain += w
                if scorer == "fennel":
                    a = alpha / math.sqrt(child.t)
                    score = gain - record.weight * a * gamma * cw ** (gamma - 1.0)
                else:
                    score = gain * (1.0 - cw / (child.t * l_max))
                key = (score, -cw, -idx)
                if best_key is None or key > best_key:
                    best, best_key = child, key
            if best is None:
                best = min(node.children, key=lambda c: new_weights.get(id(c), 0))
            position[record.id] = best
            new_weights[id(best)] = new_weights.get(id(best), 0) + record.weight
        depth += 1
        if depth > 64:
            raise AssertionError("multi-pass reference failed to converge")
    return [p.lo for p in position]
