"""Ablation (future work) — adaptive Eulerian vs the paper's Lagrangian.

The paper's scheme moves particles between fixed mesh blocks (direct
Lagrangian + Hilbert redistribution).  Its modern descendants move the
*block boundaries* instead (direct Eulerian + curve rebalancing), which
keeps scatter/gather local by construction but unbalances the field
solve and pays per-step migration.  This bench runs both (plus the
never-rebalanced Eulerian baseline) on the irregular workload and
reports totals, final particle balance, and overhead.
"""

from __future__ import annotations

import numpy as np

from benchmarks._shared import write_report
from repro.telemetry import format_table
from repro.core.metrics import load_imbalance
from repro.pic import Simulation, SimulationConfig
from repro.workloads import scaled_iterations

VARIANTS = [
    ("lagrangian + dynamic redistribution", dict(movement="lagrangian", partitioning="independent", policy="dynamic")),
    ("eulerian + adaptive rebalancing", dict(movement="eulerian", partitioning="adaptive", policy="dynamic")),
    ("eulerian, never rebalanced", dict(movement="eulerian", partitioning="grid", policy="static")),
]


def run_variants():
    iters = scaled_iterations(200, minimum=60)
    rows = []
    for label, overrides in VARIANTS:
        config = SimulationConfig(
            nx=64,
            ny=32,
            nparticles=8192,
            p=16,
            distribution="irregular",
            seed=3,
            vth=0.08,
            **overrides,
        )
        sim = Simulation(config)
        result = sim.run(iters)
        balance = load_imbalance(
            np.array([p.n for p in sim.pic.particles], dtype=float)
        )
        rows.append(
            [label, result.total_time, result.overhead, result.n_redistributions, balance]
        )
    return rows


def bench_ablation_adaptive_eulerian(benchmark):
    rows = benchmark.pedantic(run_variants, rounds=1, iterations=1)
    report = format_table(
        ["variant", "total (s)", "overhead (s)", "#rebalance", "final particle imbalance"],
        rows,
        title="Ablation: Lagrangian redistribution (paper) vs adaptive Eulerian "
        "(descendant codes), irregular, 16 procs",
    )
    write_report("ablation_adaptive_eulerian", report)

    by_label = {r[0]: r for r in rows}
    lag = by_label["lagrangian + dynamic redistribution"]
    ada = by_label["eulerian + adaptive rebalancing"]
    never = by_label["eulerian, never rebalanced"]
    # both managed schemes keep particle balance reasonable; the
    # unmanaged Eulerian baseline does not
    assert lag[4] < 1.2 and ada[4] < 1.5
    assert never[4] > 2.0
    # both managed schemes beat the unmanaged baseline end-to-end
    assert lag[1] < never[1]
    assert ada[1] < never[1]
