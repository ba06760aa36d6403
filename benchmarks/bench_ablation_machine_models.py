"""Ablation (paper §6.3 closing remark) — machine sensitivity.

"Clearly, the CM-5 (without vector units) is not representative of a
typical parallel machine, because the ratio of unit computation to unit
communication is small.  These efficiencies would be much smaller for a
machine with more powerful nodes relative to the communication network.
Maintaining similar efficiencies on such a machine would require a
larger number of particles per processor."

This bench runs the same workload on the CM-5 preset and on a modern
preset (1000x faster nodes, far larger tau/delta ratio), at two
granularities, and checks both halves of the claim.
"""

from __future__ import annotations

from benchmarks._shared import write_report
from repro.telemetry import format_table
from repro.machine import MachineModel
from repro.pic import Simulation, SimulationConfig
from repro.workloads import scaled_iterations


def efficiency_of(model: MachineModel, nparticles: int) -> float:
    config = SimulationConfig(
        nx=64,
        ny=32,
        nparticles=nparticles,
        p=32,
        distribution="irregular",
        policy="dynamic",
        model=model,
        seed=3,
        vth=0.08,
    )
    result = Simulation(config).run(scaled_iterations(200, minimum=20))
    return result.computation_time / result.total_time


def run_sensitivity():
    rows = []
    for model in (MachineModel.cm5(), MachineModel.modern()):
        for n in (8192, 65536):
            rows.append([model.name, n, n // 32, efficiency_of(model, n)])
    return rows


def bench_ablation_machine_models(benchmark):
    rows = benchmark.pedantic(run_sensitivity, rounds=1, iterations=1)
    report = format_table(
        ["machine", "particles", "particles/proc", "efficiency"],
        rows,
        title="Ablation: machine sensitivity (32 procs, irregular)",
    )
    write_report("ablation_machine_models", report)

    eff = {(r[0], r[1]): r[3] for r in rows}
    # more powerful nodes relative to the network -> lower efficiency
    assert eff[("modern", 8192)] < eff[("cm5", 8192)]
    # ... recovered by more particles per processor
    assert eff[("modern", 65536)] > eff[("modern", 8192)]
