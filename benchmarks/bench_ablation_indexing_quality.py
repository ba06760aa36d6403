"""Ablation — subdomain quality of all four indexing schemes.

Extends the paper's Hilbert-vs-snake comparison with Morton and
row-major: for equal particle slices, reports total bounding-box area,
ghost grid points, and worst-case partner counts, plus the total
subdomain perimeter of the induced mesh decomposition.
"""

from __future__ import annotations

import numpy as np

from benchmarks._shared import write_report
from repro.telemetry import format_table
from repro.core import ParticlePartitioner
from repro.core.alignment import bounding_box_area, ghost_node_counts, partner_counts
from repro.mesh import CurveBlockDecomposition, Grid2D
from repro.particles import gaussian_blob

SCHEMES = ["hilbert", "morton", "snake", "rowmajor"]
P = 32


def run_quality():
    grid = Grid2D(128, 64)
    particles = gaussian_blob(grid, 32768, rng=5)
    rows = []
    for scheme in SCHEMES:
        partitioner = ParticlePartitioner(grid, scheme)
        decomp = CurveBlockDecomposition(grid, P, scheme)
        local = partitioner.initial_partition(particles, P)
        bbox = sum(bounding_box_area(lp, grid) for lp in local)
        ghosts = ghost_node_counts(local, grid, decomp)
        partners = partner_counts(local, grid, decomp)
        perimeter = sum(decomp.boundary_node_count(r) for r in range(P))
        rows.append(
            [scheme, bbox, int(ghosts.sum()), int(partners.max()), perimeter]
        )
    return rows


def bench_ablation_indexing_quality(benchmark):
    rows = benchmark.pedantic(run_quality, rounds=1, iterations=1)
    report = format_table(
        ["scheme", "sum bbox area", "ghost nodes", "max partners", "mesh perimeter"],
        rows,
        title=f"Ablation: indexing-scheme subdomain quality ({P} procs, irregular)",
    )
    write_report("ablation_indexing_quality", report)

    by_scheme = {r[0]: r for r in rows}
    # Hilbert has the smallest mesh perimeter (locality along both dims);
    # the strip orders pay full-width boundaries
    assert by_scheme["hilbert"][4] == min(r[4] for r in rows)
    assert by_scheme["snake"][4] > 2 * by_scheme["hilbert"][4]
    # ghost volume (the scatter-traffic driver): hilbert below the strip
    # orders.  (Bounding-box area is reported but NOT asserted: thin
    # strips through a central blob can have small boxes yet large
    # boundaries — ghost nodes are the honest communication proxy.)
    assert by_scheme["hilbert"][2] < by_scheme["snake"][2]
    assert by_scheme["hilbert"][2] < by_scheme["rowmajor"][2]
    assert by_scheme["hilbert"][2] < by_scheme["morton"][2]
