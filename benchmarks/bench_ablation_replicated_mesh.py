"""Ablation (paper §3) — replicated mesh vs distributed mesh vs p.

Lubeck & Faber's replicated-mesh scheme is "efficient for small
hypercubes" but its global operations on the mesh arrays dominate at
scale.  This bench runs both implementations across processor counts
and reports total virtual time and communication time; the distributed
scheme must win at large p and the replicated scheme's communication
share must grow with p.
"""

from __future__ import annotations

import numpy as np

from benchmarks._shared import write_report
from repro.telemetry import format_table
from repro.core import ParticlePartitioner
from repro.machine import MachineModel, VirtualMachine
from repro.mesh import CurveBlockDecomposition, Grid2D
from repro.particles import gaussian_blob
from repro.pic import ParallelPIC
from repro.pic.replicated import ReplicatedMeshPIC
from repro.workloads import scaled_iterations

PS = (4, 8, 16, 32, 64)


def run_comparison():
    grid = Grid2D(128, 64)
    particles = gaussian_blob(grid, 32768, rng=3)
    iters = scaled_iterations(200, minimum=10)
    rows = []
    for p in PS:
        vm_rep = VirtualMachine(p, MachineModel.cm5())
        local = [particles.take(np.arange(r, particles.n, p)) for r in range(p)]
        rep = ReplicatedMeshPIC(vm_rep, grid, local)
        for _ in range(iters):
            rep.step()

        vm_dist = VirtualMachine(p, MachineModel.cm5())
        decomp = CurveBlockDecomposition(grid, p, "hilbert")
        aligned = ParticlePartitioner(grid).initial_partition(particles, p)
        dist = ParallelPIC(vm_dist, grid, decomp, aligned, dt=rep.dt)
        for _ in range(iters):
            dist.step()

        rows.append(
            [
                p,
                vm_rep.elapsed(),
                float(vm_rep.comm_time.max()),
                vm_dist.elapsed(),
                float(vm_dist.comm_time.max()),
            ]
        )
    return rows


def bench_ablation_replicated_mesh(benchmark):
    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    report = format_table(
        ["p", "replicated total (s)", "replicated comm (s)", "distributed total (s)", "distributed comm (s)"],
        rows,
        title="Ablation: replicated (Lubeck & Faber) vs distributed mesh "
        "(128x64, 32768 particles, irregular)",
    )
    write_report("ablation_replicated_mesh", report)

    by_p = {r[0]: r for r in rows}
    # distributed wins at the largest p
    assert by_p[PS[-1]][3] < by_p[PS[-1]][1], "distributed must win at large p"
    # the replicated scheme's absolute communication time grows with p
    # (log-depth collectives over fixed mesh volume), while per-rank
    # compute shrinks, so its communication share explodes
    rep_share = [r[2] / r[1] for r in rows]
    assert rep_share[-1] > rep_share[0], "replicated comm share must grow with p"
    # distributed total keeps dropping with p
    dist_total = [r[3] for r in rows]
    assert all(b < a for a, b in zip(dist_total, dist_total[1:]))
