#!/usr/bin/env python
"""Quickstart: run a parallel PIC simulation with dynamic redistribution.

Builds the paper's headline configuration at laptop scale — an irregular
(centre-concentrated) plasma on a simulated 16-processor CM-5 — runs 100
iterations under the dynamic (Stop-At-Rise) redistribution policy, and
prints the totals the paper's tables report.

Run:  python examples/quickstart.py
"""

from repro import Simulation, SimulationConfig
from repro.telemetry import format_table


def main() -> None:
    config = SimulationConfig(
        nx=64,
        ny=32,
        nparticles=8192,  # 4 particles per cell, as in the paper
        p=16,
        distribution="irregular",
        scheme="hilbert",
        policy="dynamic",
        seed=1,
    )
    print(f"grid {config.nx}x{config.ny}, {config.nparticles} particles, "
          f"{config.p} virtual processors, policy={config.policy!r}")

    sim = Simulation(config)
    result = sim.run(100)

    print()
    print(format_table(
        ["quantity", "value"],
        [
            ["execution time (virtual s)", result.total_time],
            ["computation time (virtual s)", result.computation_time],
            ["overhead (virtual s)", result.overhead],
            ["redistributions triggered", result.n_redistributions],
            ["redistribution time (virtual s)", result.redistribution_time],
        ],
        title="100 iterations on the simulated CM-5",
    ))

    print()
    print("per-phase time (max over ranks, virtual s):")
    for phase, seconds in sorted(result.phase_breakdown.items()):
        print(f"  {phase:<15s} {seconds:8.3f}")

    first = result.iteration_times[:10].mean()
    last = result.iteration_times[-10:].mean()
    print()
    print(f"mean iteration time: first 10 = {first:.4f}s, last 10 = {last:.4f}s")
    print("(dynamic redistribution keeps the growth in check; try policy='static'")
    print(" in the config above to watch communication costs climb instead)")


if __name__ == "__main__":
    main()
