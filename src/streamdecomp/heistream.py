"""Buffered streaming graph partitioning with a multilevel scheme per batch.

Each batch of delta nodes becomes a small model graph: the batch subgraph,
one fixed artificial node per block representing everything already assigned
(it weighs what the block holds, which ``state.block_weight`` keeps), and
(extended model) future neighbors contracted into random in-batch hosts
with their edge weights halved.  The model is coarsened by size-constrained
label propagation, whose cluster cap counts only the weight that can be
committed while the batch's clusters exist (``cluster_cap``), the coarsest
level is partitioned by one-pass Fennel's k-independent block selection,
and label propagation driven by the same Fennel gain refines every level
on the way back up.  Pass 1 refines its coarsest level strictly, taking
only moves of positive gain, which keeps the ties initial partitioning
broke: a one-node batch of the basic model is placed as Fennel places it.
A later pass unassigns each batch and models it around everything
else, as the first pass does; the batch's previous blocks replace initial
partitioning, cut edges are barred from contraction, and refinement
improves them.

Refinement keeps two caches, and both give the floats a rebuild would:

* Each batch node's block-gain dict, built from its row in row order.  The
  dict depends only on the blocks of the nodes the row lists, so it is
  dropped exactly when one of those nodes moves; the nodes to drop come
  from the transpose of the rows ("who lists v"), which stays exact when an
  edge is listed at one end only.  A kept dict therefore has the contents
  and key order of a rebuild, and the candidate order, ``rng`` calls and
  assignments stay those of rebuilding it on every visit.
* One Fennel penalty per block, ``(alpha * gamma) * bw[b] ** (gamma - 1)``
  as ``fennel_penalties`` computes it, recomputed whenever ``bw[b]``
  changes.

The batch kernels also rest on three facts, each pinned by a test:

* Every model row lists each id once, in ascending order, and artificial
  ids follow the batch ids.  A row's batch part is therefore its prefix up
  to ``bisect_left(row, (num_batch,))``, which label propagation and the
  setup of refinement slice instead of testing entry by entry.
* Label propagation sums a row's weights as floats: a cluster's first term
  is ``0.0 + w``, so every sum is the float one, also past 2**53, where an
  int sum would differ.  Model building and contraction sum from the int
  ``0``, whose first term is ``w`` itself.
* ``_shuffle`` is ``random.Random.shuffle`` with its ``getrandbits`` draws
  inlined: it makes the same swaps and leaves ``rng`` in the same state.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import namedtuple
from dataclasses import dataclass
from itertools import chain, count, repeat
from typing import Iterator, Optional

from .onepass import FennelParams, fennel_block, fennel_penalties
from .partition import UNASSIGNED, MinBlockHeap, PartitionState


@dataclass
class HeiStreamConfig:
    delta: int = 32768
    model: str = "extended"         # basic | extended
    coarsen_rounds: int = 5         # label propagation rounds per level
    localsearch_rounds: int = 5
    x: int = 4                      # coarsest-size parameter
    passes: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.delta < 1 or self.x < 1 or self.passes < 1:
            raise ValueError("delta, x and passes must be >= 1")
        if self.model not in ("basic", "extended"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.coarsen_rounds < 0 or self.localsearch_rounds < 0:
            raise ValueError("coarsen_rounds and localsearch_rounds must be >= 0")


class BatchModel:
    """Model graph of one batch: batch nodes first, artificial nodes last.

    Batch node i is the batch's i-th streamed node; artificial node
    ``num_batch + j`` stands for block j and is fixed.  It is an id only:
    its weight is ``state.block_weight[j]``, so ``weight`` and
    ``true_weight`` list the batch nodes alone.  Adjacency is stored
    on batch nodes only (artificial nodes never move, so their own lists are
    never read), each row a list of ``(id, weight)`` sorted by id with no id
    twice, so its batch entries come first.  Ghost contraction may leave
    fractional edge weights; they exist only inside the model.
    """

    def __init__(self, num_batch: int, num_art: int):
        self.num_batch = num_batch
        self.num_art = num_art
        self.weight: list[float] = [0] * num_batch   # scored, ghost-inflated
        self.true_weight: list[int] = [0] * num_batch   # capacity, committed
        self.adj: list[list[tuple[int, float]]] = [[] for _ in range(num_batch)]
        self.blocks: Optional[list[int]] = None   # previous pass's blocks
        self.ghost_inflation = 0                  # total contracted ghost weight

    @property
    def size(self) -> int:
        return self.num_batch + self.num_art


def load_batch(chunks: Iterator[tuple], delta: int,
               rest: list) -> Optional[tuple]:
    """The next up-to-delta nodes of ``chunks`` as one chunk, ``(start,
    degrees, ids, weights, node_weight)``, or None at the end.  ``rest``,
    empty at first, carries the chunk a batch ends in and the offsets of
    the node and the id the next batch starts at."""
    parts = []
    while delta:
        if not rest:
            rest[:] = next(chunks, None), 0, 0
        if rest[0] is None:   # the stream is exhausted
            break
        (start, degrees, ids, weights, node_weight), node, pos = rest
        end = min(node + delta, len(degrees))
        stop = pos + sum(degrees[node:end])
        parts.append((start + node, degrees[node:end], ids[pos:stop],
                      weights and weights[pos:stop],
                      node_weight and node_weight[node:end]))
        rest[:] = [] if end == len(degrees) else [rest[0], end, stop]
        delta -= end - node
    if not parts:
        return None
    start, *columns = zip(*parts)
    return (start[0], *(None if column[0] is None
                        else list(chain.from_iterable(column))
                        for column in columns))


def build_model(batch: tuple, state: PartitionState, config: HeiStreamConfig,
                rng: random.Random,
                blocks: Optional[list[int]] = None) -> BatchModel:
    """Assemble the batch model; see the module docstring for the shapes.

    ``batch`` is one chunk (a None column: unit weights).  ``blocks``, the
    previous pass's blocks, also says every outside node must be assigned.
    """
    start, degrees, ids, weights, node_weight = batch
    nb = len(degrees)
    end = start + nb
    assignment = state.assignment

    # Artificial nodes once any node is placed, told by the batch's
    # position: pass 1 has placed every node before the batch, a later
    # pass every node outside it.
    num_art = state.k if (nb < state.n if blocks is not None else start) else 0
    model = BatchModel(nb, num_art)
    model.blocks = blocks
    model.weight[:] = model.true_weight[:] = \
        [1] * nb if node_weight is None else node_weight

    # One int per model node, shared by every row entry that names it.
    model_id = list(range(nb + num_art))
    edges: list = [dict() for _ in range(nb)]
    ghosts: dict[int, list[tuple[int, int]]] = {}
    extended = config.model == "extended"
    stop = 0
    for local, degree in zip(model_id, degrees):
        pos, stop = stop, stop + degree
        row = edges[local]
        for v, w in zip(ids[pos:stop], repeat(1) if weights is None
                        else weights[pos:stop]):
            if start <= v < end:
                u = model_id[v - start]
            elif (block := assignment[v]) != UNASSIGNED:
                u = model_id[nb + block]
            elif blocks is not None:
                raise AssertionError("outside node unassigned on a later pass")
            else:
                if extended:
                    ghosts.setdefault(v, []).append((local, w))
                continue   # basic model: edges to future nodes are dropped
            if u in row:
                row[u] += w
            else:
                row[u] = w

    for ghost_neighbors in ghosts.values():
        host = ghost_neighbors[rng.randrange(len(ghost_neighbors))][0]
        model.weight[host] += 1   # streamed weight of a future node is unknown
        model.ghost_inflation += 1
        for local, w in ghost_neighbors:
            if local == host:
                continue
            half = w / 2
            edges[local][host] = edges[local].get(host, 0) + half
            edges[host][local] = edges[host].get(local, 0) + half

    model.adj = _sort_rows(edges)
    return model


def _sort_rows(edges: list) -> list:
    """Turn each accumulation dict of ``edges`` into its sorted row, in
    place, so a level's dicts and rows never all exist at once."""
    for i, d in enumerate(edges):
        edges[i] = sorted(d.items())
    return edges


# One coarsening level: a contracted model plus the map down to it.
_Level = namedtuple("_Level", "model cluster_map")


def _shuffle(rng: random.Random, x: list) -> None:
    """``rng.shuffle(x)`` with its ``_randbelow`` inlined: the same swaps
    and the same ``getrandbits`` draws, so the same list and ``rng`` state."""
    getrandbits = rng.getrandbits
    for i in reversed(range(1, len(x))):
        bits = (i + 1).bit_length()
        j = getrandbits(bits)
        while j > i:
            j = getrandbits(bits)
        x[i], x[j] = x[j], x[i]


def _propagate_labels(model: BatchModel, cap: int, rounds: int,
                      rng: random.Random) -> list[int]:
    """Size-constrained label propagation clustering of the batch nodes.

    Artificial nodes and their edges are invisible here.  On a later pass
    (``model.blocks`` set), nodes only join clusters inside their own
    block, which keeps every cut edge uncontracted.
    """
    nb = model.num_batch
    true_weight = model.true_weight
    blocks = model.blocks
    # Rows of the visible edges, once per level: the batch prefix of each
    # sorted row.
    if blocks is None:
        rows = model.adj if not model.num_art else \
            [row[:bisect_left(row, (nb,))] for row in model.adj]
    else:
        rows = [[e for e in row[:bisect_left(row, (nb,))]
                 if blocks[e[0]] == own_block]
                for row, own_block in zip(model.adj, blocks)]
    cluster = list(range(nb))
    cluster_weight = true_weight[:]
    order = list(range(nb))
    for _ in range(rounds):
        _shuffle(rng, order)
        moved = False
        for v in order:
            row = rows[v]
            if not row:
                continue
            conn: dict[int, float] = {}
            for u, w in row:
                c = cluster[u]
                if c in conn:
                    conn[c] += w
                else:
                    conn[c] = 0.0 + w   # a float sum, as from 0.0
            own = cluster[v]
            room = cap - true_weight[v]
            own_conn = conn.get(own, 0.0)
            best_conn = own_conn
            # The candidates in conn order: best alone, or ties when several.
            best = -1
            ties: Optional[list[int]] = None
            for c, strength in conn.items():
                if c == own or cluster_weight[c] > room:
                    continue
                if strength > best_conn:
                    best_conn = strength
                    best = c
                    ties = None
                elif strength == best_conn:
                    if best < 0:
                        best = c
                    elif ties is None:
                        ties = [best, c]
                    else:
                        ties.append(c)
            if best < 0:
                continue
            if best_conn == own_conn and rng.random() >= 0.5:
                continue  # zero-gain move declined
            target = best if ties is None else rng.choice(ties)
            wv = true_weight[v]
            cluster_weight[own] -= wv
            cluster_weight[target] += wv
            cluster[v] = target
            moved = True
        if not moved:
            break
    return cluster


def _contract(model: BatchModel, cluster: list[int]) -> tuple[BatchModel, list[int]]:
    """Contract a clustering; artificial nodes carry over one-to-one."""
    # Numbering clusters in the order of their first node keeps ids
    # deterministic.
    remap = dict.fromkeys(cluster)
    for i, c in enumerate(remap):
        remap[c] = i
    coarse_nb = len(remap)
    coarse = BatchModel(coarse_nb, model.num_art)
    coarse.ghost_inflation = model.ghost_inflation
    cluster_map = [remap[c] for c in cluster]

    weight, true_weight = coarse.weight, coarse.true_weight
    for cv, w, t in zip(cluster_map, model.weight, model.true_weight):
        weight[cv] += w
        true_weight[cv] += t

    # Coarse id of every fine node: artificial num_batch + j is coarse_nb + j.
    coarse_id = cluster_map + list(range(coarse_nb, coarse_nb + model.num_art))
    edges: list = [dict() for _ in range(coarse_nb)]
    for cv, row in zip(cluster_map, model.adj):
        out = edges[cv]
        for u, w in row:
            cu = coarse_id[u]
            if cu == cv:
                continue
            if cu in out:
                out[cu] += w
            else:
                out[cu] = w
    coarse.adj = _sort_rows(edges)

    if model.blocks is not None:
        coarse.blocks = [0] * coarse_nb
        for cv, b in zip(cluster_map, model.blocks):
            coarse.blocks[cv] = b
    return coarse, cluster_map


def cluster_cap(state: PartitionState, weight: int) -> int:
    """Largest cluster weight that can never strand during greedy assignment.

    ``weight`` (W) is all the weight that can be committed while a batch's
    clusters exist: the committed block weights plus the batch's own true
    weight.  The lightest block then holds at most (W - s)/k when a cluster
    of weight s is placed, so s <= (k*L_max - W)/(k-1) finds a feasible
    block at any point of the batch.  Capping clusters here keeps the hard
    balance constraint satisfiable all the way through initial partitioning
    and refinement.  Early batches commit little and get a large cap; a
    later pass unassigns the batch around everything else, so W is c(V).
    """
    return max(1, (state.k * state.l_max - weight) // max(state.k - 1, 1))


def coarsen(model: BatchModel, config: HeiStreamConfig,
            state: PartitionState, rng: random.Random) -> list[_Level]:
    """Cluster and contract until the model is below max(|B|/(2xk), xk)."""
    cap = cluster_cap(state, sum(state.block_weight) + sum(model.true_weight))
    threshold = max(model.size // (2 * config.x * state.k),
                    config.x * state.k)
    levels: list[_Level] = []
    current = model
    while current.size > threshold:
        cluster = _propagate_labels(current, cap, config.coarsen_rounds, rng)
        if len(set(cluster)) == current.num_batch:
            break   # nothing merged, stop
        coarse, cluster_map = _contract(current, cluster)
        levels.append(_Level(current, cluster_map))
        current = coarse
    levels.append(_Level(current, list(range(current.num_batch))))
    return levels


def initial_partition(model: BatchModel, state: PartitionState,
                      params: FennelParams) -> list[int]:
    """Generalized Fennel on the coarsest model, by ``fennel_block``.

    Block weights start from the committed ones in ``state``; nodes are
    visited in ascending id order; ties break to the lightest block, then
    the lowest index.  Scores see the ghost-inflated weights, but the hard
    capacity check only counts weight that will be committed, so ghosts can
    never unbalance the real partition.  The penalty table of ``bw`` is
    rewritten for the block each node joins.
    """
    nb = model.num_batch
    bw, true_bw = _seed_block_weights(model, [], state)
    by_bw = MinBlockHeap(bw)
    pen = fennel_penalties(bw, params)
    ag = params.alpha * params.gamma
    gm1 = params.gamma - 1.0
    blocks = [UNASSIGNED] * nb
    for v in range(nb):
        gains: dict[int, float] = {}
        for u, w in model.adj[v]:
            b = blocks[u] if u < nb else u - nb
            if b != UNASSIGNED:
                gains[b] = gains.get(b, 0.0) + w
        wv = model.weight[v]
        tv = model.true_weight[v]
        best = fennel_block(gains, bw, pen, true_bw, state.l_max - tv, wv,
                            by_bw.min_block())
        if best < 0:
            state.violations += 1
            best = min(range(state.k), key=lambda i: (true_bw[i], i))
        blocks[v] = best
        bw[best] += wv
        pen[best] = ag * bw[best] ** gm1
        true_bw[best] += tv
        by_bw.update(best)
    return blocks


def _refine_level(model: BatchModel, blocks: list[int], bw: list[float],
                  true_bw: list[int], state: PartitionState,
                  params: FennelParams, rounds: int,
                  rng: random.Random, strict: bool = False) -> float:
    """Fennel-gain label propagation over adjacent blocks; artificial fixed.

    Returns the total applied gain (each accepted move contributes its score
    improvement; zero-gain moves are taken with probability one half, or
    never when ``strict``).  Block gains are cached per node and penalties
    per block, as the module docstring describes.
    """
    nb = model.num_batch
    adj = model.adj
    weight = model.weight
    true_weight = model.true_weight
    l_max = state.l_max
    ag = params.alpha * params.gamma
    gm1 = params.gamma - 1.0
    pen = fennel_penalties(bw, params)
    # Block of every model node; artificial node nb + j sits in block j.
    label = blocks + list(range(model.num_art))
    listed_by: list[list[int]] = [[] for _ in range(nb)]
    for v, row in enumerate(adj):
        for u, _ in row[:bisect_left(row, (nb,))]:
            listed_by[u].append(v)
    cache: list[Optional[dict[int, float]]] = [None] * nb
    order = list(range(nb))
    total_gain = 0.0
    for _ in range(rounds):
        _shuffle(rng, order)
        moved = False
        for v in order:
            gains = cache[v]
            if gains is None:
                gains = {}
                for u, w in adj[v]:
                    b = label[u]
                    gains[b] = gains.get(b, 0.0) + w
                cache[v] = gains
            own = label[v]
            wv = weight[v]
            tv = true_weight[v]
            own_bw = bw[own]
            left = own_bw - wv
            left_pen = ag * left ** gm1
            stay_score = gains.get(own, 0.0) - wv * left_pen
            best_score = stay_score
            best = -1   # the candidates as in _propagate_labels
            ties: Optional[list[int]] = None
            for b, g in gains.items():
                if b == own or true_bw[b] + tv > l_max:
                    continue
                score = g - wv * pen[b]
                if score > best_score:
                    best_score = score
                    best = b
                    ties = None
                elif score == best_score:
                    if best < 0:
                        best = b
                    elif ties is None:
                        ties = [best, b]
                    else:
                        ties.append(b)
            if best >= 0 and (best_score > stay_score
                              or not strict and rng.random() < 0.5):
                target = best if ties is None else rng.choice(ties)
                bw[own] = left
                pen[own] = left_pen
                true_bw[own] -= tv
                joined = bw[target] + wv
                bw[target] = joined
                pen[target] = ag * joined ** gm1
                true_bw[target] += tv
                blocks[v] = label[v] = target
                total_gain += best_score - stay_score
                moved = True
                for u in listed_by[v]:
                    cache[u] = None
            else:
                # bw[own]'s round trip may round; true weights are integers
                back = left + wv
                if back != own_bw:
                    bw[own] = back
                    pen[own] = ag * back ** gm1
        if not moved:
            break
    return total_gain


def uncoarsen_refine(levels: list[_Level], coarse_blocks: list[int],
                     state: PartitionState, config: HeiStreamConfig,
                     params: FennelParams, rng: random.Random) -> list[int]:
    """Project the coarsest partition down the hierarchy, refining each level.

    Pass 1's coarsest level, fresh from initial partitioning, takes only
    moves of strictly positive gain.  ``levels`` is consumed: each level is
    popped as it is reached, so no coarser model is alive while a finer one
    is refined.
    """
    blocks = coarse_blocks
    strict = levels[-1].model.blocks is None
    while levels:   # the coarsest level maps to itself
        model, cluster_map = levels.pop()
        blocks = [blocks[c] for c in cluster_map]
        bw, true_bw = _seed_block_weights(model, blocks, state)
        _refine_level(model, blocks, bw, true_bw, state, params,
                      config.localsearch_rounds, rng, strict)
        strict = False
    return blocks


def _seed_block_weights(model: BatchModel, blocks: list[int],
                        state: PartitionState) -> tuple[list, list]:
    """``state``'s committed block weights plus the weights of ``blocks``."""
    true_bw = state.block_weight[:]
    bw = list(map(float, true_bw))   # float(w) is the float sum's 0.0 + w
    for v, b in enumerate(blocks):
        bw[b] += model.weight[v]
        true_bw[b] += model.true_weight[v]
    return bw, true_bw


def commit_batch(start: int, node_weight: Optional[list],
                 blocks: list[int], state: PartitionState) -> None:
    """Write the blocks of the batch of nodes ``start`` on into the global
    state with the true weights ``node_weight`` (None: unit weights) the
    stream carried; ghost-inflated model weights stay inside the model.
    """
    for v, block, weight in zip(count(start), blocks, repeat(1)
                                if node_weight is None else node_weight):
        state.assign(v, block, weight)


def run_heistream(stream, config: HeiStreamConfig,
                  state: PartitionState, params: FennelParams) -> PartitionState:
    """Buffered streaming partitioning, optionally with restream passes.

    Each pass cuts its batches from ``stream.chunks()``, the same nodes in
    the same order every time, and loads, partitions and commits one batch
    at a time.  A later pass first unassigns the batch, and its previous
    blocks replace initial partitioning.  Only this frame holds the loaded
    batch, so its columns go when ``build_model`` returns;
    ``uncoarsen_refine`` drops each coarser level once it has left it.
    """
    rng = random.Random(config.seed)
    for p in range(config.passes):
        chunks, rest = stream.chunks(), []
        while (batch := load_batch(chunks, config.delta, rest)) is not None:
            start, degrees, _, _, node_weight = batch
            previous = list(map(state.unassign,
                                range(start, start + len(degrees)),
                                repeat(1) if node_weight is None
                                else node_weight)) if p else None
            model = build_model(batch, state, config, rng, previous)
            del batch, degrees   # commit_batch reads only start and node_weight
            levels = coarsen(model, config, state, rng)
            del model   # levels holds it until uncoarsen_refine drops it
            coarse_blocks = levels[-1].model.blocks if p \
                else initial_partition(levels[-1].model, state, params)
            blocks = uncoarsen_refine(levels, coarse_blocks, state, config,
                                      params, rng)
            commit_batch(start, node_weight, blocks, state)
    return state
