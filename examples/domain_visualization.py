#!/usr/bin/env python
"""Visualize alignment: mesh ownership vs particle placement.

Renders (as ASCII) the Hilbert mesh decomposition (the Figure 10 view),
the irregular particle density, and the dominant particle owner per
cell — before and after a redistribution.  Before redistribution (after
the blob has drifted) the particle-owner map disagrees with the mesh
map along the blob edges; redistribution realigns them.

Run:  python examples/domain_visualization.py
"""

import numpy as np

from repro.core import ParticlePartitioner, Redistributor
from repro.machine import VirtualMachine
from repro.mesh import CurveBlockDecomposition, Grid2D
from repro.particles import gaussian_blob
from repro.pic.push import boris_push

SHADES = " .:-=+*#%@"
GLYPHS = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def render(rows) -> str:
    """Join a (ny, nx) grid of characters, y increasing downward."""
    return "\n".join("".join(row) for row in rows)


def ownership_map(decomp) -> np.ndarray:
    """The glyph of the rank owning each cell."""
    owners = decomp.owner_map.reshape(decomp.grid.ny, decomp.grid.nx)
    return np.array(list(GLYPHS))[owners % len(GLYPHS)]


def density_map(grid, particles) -> np.ndarray:
    """Particle occupancy per cell as a shade character."""
    cells = grid.cell_id_of_positions(particles.x, particles.y)
    counts = np.bincount(cells, minlength=grid.ncells).reshape(grid.ny, grid.nx)
    levels = np.round(counts / max(counts.max(), 1) * (len(SHADES) - 1)).astype(int)
    return np.array(list(SHADES))[levels]


def particle_owner_map(grid, local) -> np.ndarray:
    """The glyph of the rank holding most particles in each cell ('.' = empty)."""
    counts = np.stack(
        [
            np.bincount(grid.cell_id_of_positions(p.x, p.y), minlength=grid.ncells)
            for p in local
        ]
    )
    glyphs = np.array(list(GLYPHS))[np.argmax(counts, axis=0) % len(GLYPHS)]
    glyphs[counts.sum(axis=0) == 0] = "."
    return glyphs.reshape(grid.ny, grid.nx)


def agreement(grid, decomp, local) -> float:
    """Fraction of occupied cells whose particle owner is the mesh owner."""
    parts = particle_owner_map(grid, local)
    occupied = parts != "."
    return float((parts == ownership_map(decomp))[occupied].mean())


def main() -> None:
    grid = Grid2D(32, 16)
    particles = gaussian_blob(grid, 4096, vth=0.4, rng=11)
    p = 8
    vm = VirtualMachine(p)
    decomp = CurveBlockDecomposition(grid, p, "hilbert")
    partitioner = ParticlePartitioner(grid, "hilbert")
    redis = Redistributor(partitioner)
    local = redis.initialize(vm, partitioner.initial_partition(particles, p)).particles

    print(f"mesh ownership ({p} ranks)")
    print(render(ownership_map(decomp)))
    print()
    print(f"particle density ({particles.n} particles)")
    print(render(density_map(grid, particles)))
    print()
    print(f"alignment right after distribution: {agreement(grid, decomp, local):.0%}")

    # let the blob fly apart ballistically for a while
    for parts in local:
        e = np.zeros((3, parts.n))
        b = np.zeros((3, parts.n))
        for _ in range(12):
            boris_push(grid, parts, e, b, dt=1.0)
    drifted = agreement(grid, decomp, local)
    print(f"alignment after 12 drift steps:     {drifted:.0%}")
    print()
    print(render(particle_owner_map(grid, local)))

    local = redis.redistribute(vm, local).particles
    realigned = agreement(grid, decomp, local)
    print()
    print(render(particle_owner_map(grid, local)))
    print()
    print(f"alignment after redistribution:     {realigned:.0%}")
    assert realigned > drifted
    print("redistribution restored mesh/particle alignment.")


if __name__ == "__main__":
    main()
