#!/usr/bin/env python
"""Profile where the virtual time goes, phase by phase.

Runs with periodic redistribution and renders the result's
:class:`repro.machine.PhaseTrace` (one row per iteration record) as an
ASCII stacked-share profile: scatter and gather shares grow as the
particle subdomains drift, and redistribution spikes (R) appear at every
firing.

Run:  python examples/phase_profile.py
"""

from repro import Simulation, SimulationConfig
from repro.telemetry import format_table


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
    iterations = 100
    trace = Simulation(config).run(iterations).trace

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
