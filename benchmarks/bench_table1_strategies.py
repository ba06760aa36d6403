"""Paper Table 1 — partitioning strategy x movement method comparison.

The paper's Table 1 is analytical; this bench regenerates it
empirically: for each (partitioning, movement) combination it reports
field-solve load balance (cells/rank), particle load balance
(particles/rank after a few iterations), and the communication volume —
confirming that only *independent partitioning + direct Lagrangian*
keeps both computations balanced.
"""

from __future__ import annotations

import numpy as np

from benchmarks._shared import run_simulation, write_report
from repro.telemetry import format_table
from repro.core.metrics import load_imbalance
from repro.pic import Simulation, SimulationConfig
from repro.workloads import scaled_iterations

STRATEGIES = [
    # (label, partitioning, movement)
    ("grid + eulerian", "grid", "eulerian"),
    ("particle + lagrangian", "particle", "lagrangian"),
    ("independent + lagrangian", "independent", "lagrangian"),
]


def run_table1():
    iters = scaled_iterations(200, minimum=20)
    rows = []
    details = {}
    for label, partitioning, movement in STRATEGIES:
        config = SimulationConfig(
            nx=64,
            ny=32,
            nparticles=8192,
            p=16,
            distribution="irregular",
            partitioning=partitioning,
            movement=movement,
            policy="static",
            seed=3,
            vth=0.08,
        )
        sim = Simulation(config)
        result = sim.run(iters)
        cell_imb = sim.decomp.max_cell_imbalance()
        particle_imb = load_imbalance(
            np.array([p.n for p in sim.pic.particles], dtype=float)
        )
        rows.append(
            [label, cell_imb, particle_imb, result.total_time, result.overhead]
        )
        details[label] = result
    return rows, details


def bench_table1_strategies(benchmark):
    rows, details = benchmark.pedantic(run_table1, rounds=1, iterations=1)
    report = format_table(
        [
            "strategy",
            "cell imbalance",
            "particle imbalance",
            "total time (s)",
            "overhead (s)",
        ],
        rows,
        title="Table 1 (empirical): partitioning strategy x movement method "
        "(irregular, 16 procs)",
    )
    write_report("table1_strategies", report)

    by_label = {r[0]: r for r in rows}
    independent = by_label["independent + lagrangian"]
    grid = by_label["grid + eulerian"]
    particle = by_label["particle + lagrangian"]
    # field solve balanced only when cells are balanced
    assert independent[1] < 1.1, "independent partitioning must balance cells"
    assert particle[1] > 1.5, "particle partitioning must unbalance cells"
    # particle computation balanced only when particles are balanced
    assert independent[2] < 1.1, "independent partitioning must balance particles"
    assert grid[2] > 1.5, "grid partitioning must unbalance particles"
    # the paper's choice wins on total time
    assert independent[3] == min(r[3] for r in rows), (
        "independent + lagrangian should be fastest overall"
    )
