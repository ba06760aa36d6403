"""Ablation — the paper's distribution machinery under a modern kernel.

Runs the era loop (CIC currents + collocated FDTD + Marder, as the paper
describes) and the modern loop (Yee + zigzag, exactly charge
conserving) with the *same* Hilbert curve-block distribution, and
compares communication structure and totals.  The claim under test:
the paper's alignment strategy transfers — curve-aligned placement
beats round-robin placement by a similar factor on both kernels.
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
from repro.pic.parallel_yee import ParallelYeePIC
from repro.workloads import scaled_iterations

P = 16


def run_kernels():
    grid = Grid2D(64, 32)
    particles = gaussian_blob(grid, 8192, rng=3)
    iters = scaled_iterations(200, minimum=20)
    rows = []
    for kernel in ("era", "modern"):
        for placement in ("aligned", "roundrobin"):
            vm = VirtualMachine(P, MachineModel.cm5())
            decomp = CurveBlockDecomposition(grid, P, "hilbert")
            if placement == "aligned":
                local = ParticlePartitioner(grid, "hilbert").initial_partition(particles, P)
            else:
                local = [particles.take(np.arange(r, particles.n, P)) for r in range(P)]
            if kernel == "era":
                pic = ParallelPIC(vm, grid, decomp, local)
            else:
                pic = ParallelYeePIC(vm, grid, decomp, local)
            for _ in range(iters):
                pic.step()
            comm = float(vm.comm_time.max())
            rows.append([kernel, placement, vm.elapsed(), comm])
    return rows


def bench_ablation_modern_kernel(benchmark):
    rows = benchmark.pedantic(run_kernels, rounds=1, iterations=1)
    report = format_table(
        ["kernel", "placement", "total (s)", "comm (s)"],
        rows,
        title="Ablation: era (CIC+collocated) vs modern (Yee+zigzag) kernels "
        f"under the paper's distribution ({P} procs, irregular)",
    )
    write_report("ablation_modern_kernel", report)

    by_key = {(r[0], r[1]): r for r in rows}
    for kernel in ("era", "modern"):
        aligned_comm = by_key[(kernel, "aligned")][3]
        scattered_comm = by_key[(kernel, "roundrobin")][3]
        assert aligned_comm < 0.6 * scattered_comm, (
            f"{kernel}: alignment must cut communication substantially"
        )
        assert by_key[(kernel, "aligned")][2] < by_key[(kernel, "roundrobin")][2]
