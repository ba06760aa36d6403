#!/usr/bin/env python
"""Profile where the virtual time goes, phase by phase.

Attaches a :class:`repro.machine.PhaseTrace` to a run with periodic
redistribution and renders an ASCII stacked-share profile: scatter and
gather shares grow as the particle subdomains drift, and redistribution
spikes (R) appear at every firing.

Run:  python examples/phase_profile.py
"""

from repro import Simulation, SimulationConfig
from repro.telemetry import format_table
from repro.machine import PhaseTrace


def main() -> None:
    config = SimulationConfig(
        nx=64,
        ny=32,
        nparticles=8192,
        p=16,
        distribution="irregular",
        policy="periodic:25",
        seed=3,
        vth=0.08,
    )
    sim = Simulation(config)
    trace = PhaseTrace(sim.vm)

    iterations = 100
    for it in range(iterations):
        sim.pic.step()
        if sim.policy.should_redistribute(it):
            result = sim.redistributor.redistribute(sim.vm, sim.pic.particles)
            sim.pic.particles = result.particles
        trace.snapshot()

    print(trace.render(width=60))
    print()
    rows = sorted(trace.totals().items(), key=lambda kv: -kv[1])
    print(format_table(
        ["phase", "total (virtual s)"],
        [[k, v] for k, v in rows],
        title=f"Phase totals over {iterations} iterations",
    ))


if __name__ == "__main__":
    main()
