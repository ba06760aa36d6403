"""Segment kernels shared by the serial flat path and the worker pool.

Every function here operates on a contiguous *rank-segment range* of the
particle pool and is written so that running it once over ``[0, p)``
(the serial flat engine) produces bit-identical results to running it
over any partition of ``[0, p)`` into shards (the worker backend) —
the determinism contract of DESIGN.md §5.5:

* per-element kernels (CIC vertices, deposition entries, field gather,
  Boris push, key classification) are chunk-oblivious by construction;
* on-rank deposition is *owner-keyed*: an on-rank entry only touches a
  node its depositing rank owns, so every node's sum draws on exactly
  one rank's entries, in pool order.  One node-keyed ``bincount`` over
  a shard, written back only at the nodes the shard's ranks own, is
  therefore bit-identical to a per-rank accumulation
  (every other rank contributes an exact ``0.0`` there).  Worker shards
  are unions of whole rank segments and write disjoint node sets, so
  the result never depends on the worker count;
* ghost duplicate-removal sums are per source rank, in pool order.
"""

from __future__ import annotations

import numpy as np

from repro.particles.arrays import MATRIX_COLUMNS, ParticleArray
from repro.pic.deposition import (
    CHANNELS,
    deposition_entries,
    pooled_duplicate_removal,
)
from repro.pic.interpolation import gather_from_node_values
from repro.pic.push import boris_push

__all__ = [
    "scatter_segment",
    "gather_push_slice",
    "classify_chunk",
    "partition_segment_by_dest",
    "fill_sorted_matrix",
]


def scatter_segment(
    grid,
    parts: ParticleArray,
    counts: np.ndarray,
    r0: int,
    node_owner: np.ndarray,
    nnodes: int,
    out: np.ndarray,
):
    """Deposition work for the rank segments ``[r0, r0 + len(counts))``.

    Parameters
    ----------
    parts:
        The pooled particles of these segments (a contiguous pool slice).
    counts:
        Per-rank particle counts of the covered segments.
    r0:
        Global rank id of the first covered segment.
    node_owner:
        Global node-ownership map.
    out:
        ``(nchannels, nnodes)`` on-rank deposition accumulator.  Only
        the nodes owned by the covered ranks
        (``r0 <= node_owner < r0 + len(counts)``) are written, each with
        its owner's entries summed in pool order; all other nodes are
        left untouched.

    Returns
    -------
    (cic, entries_per_rank, uniq_per_rank, messages):
        ``cic`` — the ``(nodes, weights)`` CIC evaluation (reused by the
        gather); ``entries_per_rank`` / ``uniq_per_rank`` — ghost-table
        tallies per covered rank; ``messages`` — per covered rank, a
        list of ``(owner, ids, values)`` coalesced ghost messages with
        node ids ascending inside each message.
    """
    nranks = int(counts.shape[0])
    nchannels = len(CHANNELS)
    vertices = grid.cic_vertices_weights(parts.x, parts.y)
    nodes, values = deposition_entries(grid, parts, vertices)
    flat_nodes = nodes.ravel()
    flat_values = values.reshape(nchannels, -1)
    local_rank = np.repeat(np.arange(nranks, dtype=np.int64), 4 * counts)
    owners = node_owner[flat_nodes]
    ghost = owners != (local_rank + np.int64(r0))
    ghost_idx = np.flatnonzero(ghost)
    if ghost_idx.size:
        mine_idx = np.flatnonzero(~ghost)
        nodes_mine = flat_nodes.take(mine_idx)
        values_mine = flat_values.take(mine_idx, axis=1)
    else:
        nodes_mine = flat_nodes
        values_mine = flat_values

    # On-rank accumulation keyed by node alone: each node's entries all
    # come from its owner, in pool order, so this matches the owner's
    # per-rank bincount bit-for-bit.
    owned = (node_owner >= r0) & (node_owner < r0 + nranks)
    for c in range(nchannels):
        dep = np.bincount(nodes_mine, weights=values_mine[c], minlength=nnodes)
        np.copyto(out[c], dep, where=owned)

    entries_per_rank = np.zeros(nranks, dtype=np.int64)
    uniq_per_rank = np.zeros(nranks, dtype=np.int64)
    messages: list[list[tuple[int, np.ndarray, np.ndarray]]] = [[] for _ in range(nranks)]
    if ghost_idx.size:
        g_ranks = local_rank.take(ghost_idx)
        g_nodes = flat_nodes.take(ghost_idx)
        g_values = flat_values.take(ghost_idx, axis=1)
        uniq_nodes, _, summed, seg = pooled_duplicate_removal(
            nnodes, nranks, g_ranks, g_nodes, g_values
        )
        entries_per_rank = np.bincount(g_ranks, minlength=nranks)
        uniq_per_rank = np.diff(seg)
        for lr in np.flatnonzero(uniq_per_rank):
            lo, hi = int(seg[lr]), int(seg[lr + 1])
            ids_r = uniq_nodes[lo:hi]
            vals_r = summed[:, lo:hi]
            owner_r = node_owner[ids_r]
            # Stable owner sort within the segment: equivalent to the
            # global stable sort by (src * p + owner) restricted to this
            # source, keeping node ids ascending inside every message.
            order = np.argsort(owner_r, kind="stable")
            ids_sorted = ids_r.take(order)
            vals_sorted = vals_r.take(order, axis=1)
            msg_uniq, msg_starts = np.unique(owner_r.take(order), return_index=True)
            bounds = np.append(msg_starts, owner_r.size)
            messages[lr] = [
                (
                    int(msg_uniq[i]),
                    np.ascontiguousarray(ids_sorted[bounds[i] : bounds[i + 1]]),
                    np.ascontiguousarray(vals_sorted[:, bounds[i] : bounds[i + 1]]),
                )
                for i in range(msg_uniq.size)
            ]
    return vertices, entries_per_rank, uniq_per_rank, messages


def gather_push_slice(
    grid,
    parts: ParticleArray,
    node_values: np.ndarray,
    dt: float,
    cic: tuple[np.ndarray, np.ndarray] | None = None,
) -> None:
    """Field gather + Boris push for one contiguous pool slice, in place.

    Both operations are per-particle independent, so any slicing of the
    pool produces bit-identical results.  ``cic`` reuses the scatter's
    vertex evaluation for these particles (positions are unchanged
    between the phases).
    """
    if parts.n == 0:
        return
    if cic is None:
        cic = grid.cic_vertices_weights(parts.x, parts.y)
    nodes, weights = cic
    eb = gather_from_node_values(node_values, nodes, weights)
    boris_push(grid, parts, eb[:3], eb[3:], dt)


def classify_chunk(
    keys: np.ndarray,
    rank_of: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
    splitters: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Incremental-sort classification of one chunk of elements.

    Returns ``(dest, same)``: the destination rank under the previous
    epoch's splitters and the still-in-own-bucket mask.  Pure
    per-element work (binary search + two comparisons).
    """
    dest = np.searchsorted(splitters, keys, side="left").astype(np.int64)
    same = (dest == rank_of) & (keys >= lows) & (keys <= highs)
    return dest, same


def partition_segment_by_dest(dest: np.ndarray):
    """Stable destination sort of one source-rank segment.

    Returns ``(order, uniq_dests, starts)`` — identical to restricting
    the pooled global stable sort by ``src * p + dest`` to this source
    segment (every key in a segment shares the ``src`` term).
    """
    order = np.argsort(dest, kind="stable")
    uniq, starts = np.unique(dest.take(order), return_index=True)
    return order, uniq, starts


def fill_sorted_matrix(parts: ParticleArray, order: np.ndarray, out: np.ndarray) -> None:
    """Write ``parts`` rows permuted by ``order`` into a transport matrix.

    Equivalent to ``parts.to_matrix().take(order, axis=0)`` without the
    intermediate copy; ``out`` is ``(n, 9)`` float64 (ids are cast, exact
    up to 2**53).
    """
    for j, name in enumerate(MATRIX_COLUMNS):
        out[:, j] = getattr(parts, name)[order]
