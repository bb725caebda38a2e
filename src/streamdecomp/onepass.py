"""One-pass streaming graph partitioners and restreaming drivers.

Implements Hashing, LDG and a weighted generalization of Fennel, plus the
restreaming variants ReLDG (per-pass block weights) and ReFennel (penalty
scale grows per pass).  All assignment loops are strictly sequential: every
decision reads the state left behind by the previous one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .partition import UNASSIGNED, PartitionState


def fennel_alpha(n: int, m: int, k: int, gamma: float = 1.5) -> float:
    """Classic Fennel penalty scale m * k^(gamma-1) / n^gamma.

    Edgeless graphs would give 0; a tiny positive floor keeps the score a
    pure (and working) balance objective there.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return max(m * k ** (gamma - 1.0) / n ** gamma, 1e-12)


@dataclass
class FennelParams:
    gamma: float = 1.5
    alpha: float = 1.0
    hard_balance: bool = True

    def __post_init__(self):
        if self.gamma <= 1.0:
            raise ValueError("gamma must be > 1")
        if self.alpha <= 0.0:
            raise ValueError("alpha must be > 0")


@dataclass
class OnePassConfig:
    algorithm: str = "fennel"           # hashing | ldg | fennel
    passes: int = 1
    restream_alpha_growth: float = 2.0  # ReFennel multiplier per extra pass
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ("hashing", "ldg", "fennel"):
            raise ValueError(f"unknown one-pass algorithm {self.algorithm!r}")
        if self.passes < 1:
            raise ValueError("passes must be >= 1")
        if self.restream_alpha_growth < 1.0:
            raise ValueError("restream_alpha_growth must be >= 1")


def hashing_assign(node_id: int, k: int) -> int:
    """Deterministic hash of the node id into [0, k); ignores the neighborhood."""
    return node_id % k


def fennel_gain(weighted_degree_to_block: float, node_weight: int,
                block_weight: float, params: FennelParams) -> float:
    """Generalized Fennel score of putting a node into one block.

    ``weighted_degree_to_block`` is the total edge weight from the node to
    nodes already in the block.  With unit weights this reduces to the
    classic |V_i n N(u)| - alpha*gamma*|V_i|^(gamma-1).
    """
    penalty = params.alpha * params.gamma * block_weight ** (params.gamma - 1.0)
    return weighted_degree_to_block - node_weight * penalty


def _gains_per_block(record, assignment) -> dict[int, float]:
    gains: dict[int, float] = {}
    for v, w in record.neighbors:
        block = assignment[v]
        if block != UNASSIGNED:
            gains[block] = gains.get(block, 0.0) + w
    return gains


def fennel_assign(record, state: PartitionState, params: FennelParams) -> int:
    """Pick the feasible block maximizing the generalized Fennel score.

    Ties go to the lightest block, then the lowest index.  Only the blocks of
    assigned neighbors and the lightest block are scored: every other block
    scores ``-c(u)*pen(c(V_i))``, which the lightest block (lowest index
    first) matches or beats, so per-node work does not depend on k.
    """
    gains = _gains_per_block(record, state.assignment)
    lightest = state.by_weight().min_block()
    if lightest not in gains:
        gains[lightest] = 0.0
    weight = record.weight
    block_weight = state.block_weight
    best = None
    best_key = None
    for i, g in gains.items():
        bw = block_weight[i]
        if params.hard_balance and bw + weight > state.l_max:
            continue
        key = (fennel_gain(g, weight, bw, params), -bw, -i)
        if best_key is None or key > best_key:
            best, best_key = i, key
    if best is None:
        # The lightest block is full, so every block is: place it there, flagged.
        state.violations += 1
        best = lightest
    state.assign(record.id, best, weight)
    return best


def ldg_assign(record, state: PartitionState) -> int:
    """Linear deterministic greedy: affinity times (1 - c(V_i)/L_max).

    Ties go to the block with fewer nodes (as LDG defines), then lowest index.
    With edge weights >= 1 a feasible neighbor block scores > 0 and every
    other block 0, so only neighbor blocks are scored; without a feasible
    one the answer is the fewest-nodes block, lowest index first.
    """
    gains = _gains_per_block(record, state.assignment)
    weight = record.weight
    l_max = state.l_max
    best = None
    best_key = None
    for i, g in gains.items():
        bw = state.block_weight[i]
        if bw + weight > l_max:
            continue
        key = (g * (1.0 - bw / l_max), -state.block_count[i], -i)
        if best_key is None or key > best_key:
            best, best_key = i, key
    if best is None:
        best = state.by_count().min_block()
        if state.block_weight[best] + weight > l_max:
            best = _fewest_feasible(record, state)
    state.assign(record.id, best, weight)
    return best


def _fewest_feasible(record, state: PartitionState) -> int:
    # The fewest-nodes block is full.  With unit weights every block is; with
    # weighted nodes a block with more nodes may still fit, so scan.
    feasible = [i for i in range(state.k)
                if state.block_weight[i] + record.weight <= state.l_max]
    if feasible:
        return min(feasible, key=lambda i: (state.block_count[i], i))
    # No feasible block: place on the globally lightest one and flag it.
    state.violations += 1
    return min(range(state.k), key=lambda i: (state.block_weight[i], i))


@dataclass
class PassStats:
    pass_index: int
    assigned: int = 0


def run_onepass(stream, config: OnePassConfig, state: PartitionState,
                params: Optional[FennelParams] = None) -> PartitionState:
    """One full pass assigning every streamed node. Returns the final state."""
    if params is None and config.algorithm == "fennel":
        h = stream.header
        params = FennelParams(alpha=fennel_alpha(h.n, h.m, state.k))
    stats = PassStats(pass_index=0)
    for record in stream:
        if config.algorithm == "hashing":
            state.assign(record.id, hashing_assign(record.id, state.k),
                         record.weight)
        elif config.algorithm == "ldg":
            ldg_assign(record, state)
        else:
            fennel_assign(record, state, params)
        stats.assigned += 1
    state.pass_stats = [stats]
    return state


def run_restream(stream_factory, config: OnePassConfig, state: PartitionState,
                 params: Optional[FennelParams] = None) -> PartitionState:
    """Multi-pass drivers ReLDG / ReFennel.

    ``stream_factory()`` must return a fresh stream over the same node order
    for every pass.  ReLDG scores against block weights accumulated in the
    current pass only; ReFennel subtracts the node's own weight before
    scoring and multiplies alpha by ``restream_alpha_growth`` each pass.
    """
    if config.algorithm == "hashing":
        raise ValueError("restreaming hashing is pointless; use passes=1")
    stream = stream_factory()
    if params is None and config.algorithm == "fennel":
        h = stream.header
        params = FennelParams(alpha=fennel_alpha(h.n, h.m, state.k))
    run_onepass(stream, config, state, params)
    all_stats = list(state.pass_stats)

    node_weights = {}
    for p in range(1, config.passes):
        stats = PassStats(pass_index=p)
        if config.algorithm == "ldg":
            # Current-pass weights start from zero; the assignment array keeps
            # serving neighbor lookups across passes.
            current = PartitionState(state.n, state.k, state.epsilon,
                                     state.total_weight)
            current.assignment = state.assignment
            for record in stream_factory():
                state.unassign(record.id, record.weight)
                new = ldg_assign(record, current)
                # current shares the assignment array and already wrote it
                state.assignment[record.id] = UNASSIGNED
                state.assign(record.id, new, record.weight)
                stats.assigned += 1
            state.violations += current.violations
        else:
            pass_params = FennelParams(
                gamma=params.gamma,
                alpha=params.alpha * config.restream_alpha_growth ** p,
                hard_balance=params.hard_balance)
            for record in stream_factory():
                state.unassign(record.id, record.weight)
                fennel_assign(record, state, pass_params)
                stats.assigned += 1
        all_stats.append(stats)
    state.pass_stats = all_stats
    return state
