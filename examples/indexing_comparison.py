#!/usr/bin/env python
"""Compare indexing schemes for particle distribution (paper §6.3).

For each registered space-filling ordering (Hilbert, snake, row-major,
Morton) this example partitions the same irregular particle set, then
reports the geometric quality metrics that drive communication —
subdomain bounding-box area, unique ghost grid points, communication
partners — and finally runs a short simulation per scheme to show the
modeled overhead ordering (Hilbert < Morton < snake < row-major, give or
take the Morton/snake order at small scale).

Run:  python examples/indexing_comparison.py
"""

import numpy as np

from repro import Grid2D, SimulationConfig, Simulation, gaussian_blob
from repro.telemetry import format_table
from repro.core import ParticlePartitioner
from repro.core.alignment import bounding_box_area, ghost_node_counts, partner_counts
from repro.mesh import CurveBlockDecomposition

SCHEMES = ["hilbert", "morton", "snake", "rowmajor"]
P = 16


def geometry_metrics(scheme: str, grid: Grid2D, particles) -> list:
    partitioner = ParticlePartitioner(grid, scheme)
    decomp = CurveBlockDecomposition(grid, P, scheme)
    local = partitioner.initial_partition(particles, P)
    bbox = sum(bounding_box_area(lp, grid) for lp in local)
    ghosts = ghost_node_counts(local, grid, decomp)
    partners = partner_counts(local, grid, decomp)
    return [scheme, bbox, int(ghosts.sum()), int(ghosts.max()), int(partners.max())]


def simulated_overhead(scheme: str) -> float:
    config = SimulationConfig(
        nx=64, ny=32, nparticles=8192, p=P,
        distribution="irregular", scheme=scheme, policy="dynamic", seed=5,
    )
    return Simulation(config).run(80).overhead


def main() -> None:
    grid = Grid2D(64, 32)
    particles = gaussian_blob(grid, 8192, rng=5)

    rows = [geometry_metrics(s, grid, particles) for s in SCHEMES]
    print(format_table(
        ["scheme", "sum bbox area", "ghost nodes", "max ghosts/rank", "max partners"],
        rows,
        title=f"Subdomain geometry for {P} ranks, irregular distribution",
    ))

    print()
    overhead_rows = []
    for scheme in SCHEMES:
        overhead = simulated_overhead(scheme)
        overhead_rows.append([scheme, overhead])
        print(f"ran {scheme:<9s} overhead={overhead:.3f}s")
    print()
    print(format_table(
        ["scheme", "overhead (virtual s)"],
        overhead_rows,
        title="Modeled overhead of 80 iterations (cf. paper Table 2 / Figs 21-22)",
    ))
    best = min(overhead_rows, key=lambda r: r[1])
    print(f"\nlowest overhead: {best[0]} (the paper's choice)")


if __name__ == "__main__":
    main()
