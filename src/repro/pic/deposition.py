"""Scatter phase: cloud-in-cell charge and current deposition.

Each particle contributes to the 4 vertex nodes of its cell with
bilinear weights (the paper's Figure 3 ``Scatter()``), vectorized with
``numpy.bincount`` over flattened (node, weight*value) entry lists.

The entry-list form (:func:`deposition_entries`) is shared with the
parallel scatter, which must split entries into on-rank accumulation and
off-rank *ghost* contributions before communicating.

The flat-rank engine runs deposition once over *all* ranks' pooled
particles: :func:`segmented_entry_ranks` labels each flattened entry
with its depositing rank, and :func:`pooled_duplicate_removal` performs
every rank's ghost-table duplicate removal in a single pass by keying
entries with rank-offset node ids (``node + rank * nnodes``) and summing
duplicates with one ``unique``/``bincount`` — per-rank results come back
as contiguous segments of the sorted unique keys.

Association contract: a "mine" entry only touches a node its depositing
rank owns, so the pooled scatter (and the multicore backend's
:mod:`repro.parallel_exec.kernels`) sums each node's on-rank entries
from its owner alone, in pool order, with one node-keyed bincount —
exactly the additions a per-rank SPMD loop with one bincount per rank
performs (the looped test oracle).  Deposition results are
bit-identical across that oracle and every worker count, not merely
close (DESIGN.md §5.5).
"""

from __future__ import annotations

import numpy as np

from repro.mesh.grid import Grid2D
from repro.particles.arrays import ParticleArray

__all__ = [
    "deposition_entries",
    "accumulate_entries",
    "deposit_charge_current",
    "segmented_entry_ranks",
    "pooled_duplicate_removal",
]

#: Deposited source channels, in the order of the values matrix rows.
CHANNELS = ("rho", "jx", "jy", "jz")


def deposition_entries(
    grid: Grid2D,
    particles: ParticleArray,
    vertices: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Compute per-(particle, vertex) deposition entries.

    Parameters
    ----------
    vertices:
        Optional precomputed ``(nodes, weights)`` from
        :meth:`~repro.mesh.grid.Grid2D.cic_vertices_weights` for these
        particles' current positions — the parallel stepper shares one
        CIC evaluation between its scatter and gather phases.

    Returns
    -------
    nodes:
        int64 array of shape ``(n, 4)`` — target node ids.
    values:
        float64 array of shape ``(4, n, 4)`` — deposited amounts per
        channel (rho, jx, jy, jz) per particle per vertex, i.e.
        ``weight_vertex * w * q * (1, vx, vy, vz)``.
    """
    if vertices is None:
        nodes, weights = grid.cic_vertices_weights(particles.x, particles.y)
    else:
        nodes, weights = vertices
    inv_gamma = 1.0 / particles.gamma()
    charge = particles.w * particles.q
    per_particle = np.stack(
        [
            charge,
            charge * particles.ux * inv_gamma,
            charge * particles.uy * inv_gamma,
            charge * particles.uz * inv_gamma,
        ]
    )  # (4 channels, n)
    values = per_particle[:, :, None] * weights[None, :, :]  # (4, n, 4)
    return nodes, values


def accumulate_entries(
    nnodes: int, nodes: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Sum entry lists onto the node grid.

    Parameters
    ----------
    nnodes:
        Total node count.
    nodes:
        int64 target node ids, any shape.
    values:
        float64 amounts with shape ``(4,) + nodes.shape``.

    Returns
    -------
    numpy.ndarray
        ``(4, nnodes)`` accumulated channels.
    """
    flat_nodes = np.asarray(nodes, dtype=np.int64).ravel()
    out = np.empty((len(CHANNELS), nnodes))
    for c in range(len(CHANNELS)):
        out[c] = np.bincount(flat_nodes, weights=values[c].ravel(), minlength=nnodes)
    return out


def segmented_entry_ranks(counts: np.ndarray) -> np.ndarray:
    """Depositing rank of each flattened CIC entry of a pooled array.

    A pooled particle array is rank-segment ordered, and each particle
    contributes 4 entries in ``nodes.ravel()`` order, so rank ``r``'s
    entries occupy the contiguous slice ``[4 * offsets[r], 4 *
    offsets[r + 1])``.

    Parameters
    ----------
    counts:
        Per-rank particle counts (length ``p``).

    Returns
    -------
    numpy.ndarray
        int64 rank label per entry, length ``4 * counts.sum()``.
    """
    counts = np.asarray(counts, dtype=np.int64)
    return np.repeat(np.arange(counts.shape[0], dtype=np.int64), 4 * counts)


def pooled_duplicate_removal(
    nnodes: int,
    p: int,
    entry_ranks: np.ndarray,
    nodes: np.ndarray,
    values: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All ranks' ghost duplicate removal in one vectorized pass.

    Keys every (rank, node) pair as ``rank * nnodes + node``, finds the
    sorted unique keys, and sums each channel's duplicate contributions
    with one ``bincount`` over the inverse map.  Because entries arrive
    in pool (rank-segment) order, the per-key sums accumulate in exactly
    the order each rank's own ghost table would have used — the summed
    values are bit-identical to per-rank ``accumulate`` + ``flush``.

    Parameters
    ----------
    nnodes:
        Global node count (the rank-offset stride).
    p:
        Number of ranks.
    entry_ranks, nodes:
        int64 depositing rank and target node per entry (flat, aligned).
    values:
        ``(nchannels, nentries)`` deposited amounts.

    Returns
    -------
    (uniq_nodes, uniq_owner_segments, summed, seg):
        ``uniq_nodes`` — node ids of the unique (rank, node) pairs,
        sorted by rank then node; ``uniq_ranks`` — depositing rank per
        unique pair; ``summed`` — ``(nchannels, u)`` coalesced values;
        ``seg`` — length ``p + 1`` boundaries such that rank ``r``'s
        unique entries are ``[seg[r], seg[r + 1])``.
    """
    combined = entry_ranks * np.int64(nnodes) + nodes
    uniq, inverse = np.unique(combined, return_inverse=True)
    nchannels = values.shape[0]
    summed = np.empty((nchannels, uniq.size))
    for c in range(nchannels):
        summed[c] = np.bincount(inverse, weights=values[c], minlength=uniq.size)
    uniq_ranks, uniq_nodes = np.divmod(uniq, np.int64(nnodes))
    seg = np.searchsorted(uniq, np.arange(p + 1, dtype=np.int64) * np.int64(nnodes))
    return uniq_nodes, uniq_ranks, summed, seg


def deposit_charge_current(
    grid: Grid2D, particles: ParticleArray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Full sequential scatter: deposit rho, jx, jy, jz onto the grid.

    Returns the four ``(ny, nx)`` arrays.  Deposited densities are per
    cell area (divided by ``dx * dy``) so a mean-density-1 plasma gives
    ``rho ~ -1``.
    """
    nodes, values = deposition_entries(grid, particles)
    acc = accumulate_entries(grid.nnodes, nodes, values)
    scale = 1.0 / (grid.dx * grid.dy)
    shaped = (acc * scale).reshape(len(CHANNELS), grid.ny, grid.nx)
    return shaped[0], shaped[1], shaped[2], shaped[3]
