#!/usr/bin/env python
"""Physics demo: the two-stream instability on the sequential PIC.

Two counter-streaming electron beams are unstable: electrostatic waves
grow exponentially, feeding on the beams' kinetic energy, until the
beams trap and the growth saturates.  This exercises every phase of the
PIC loop end-to-end (scatter, Maxwell solve, gather, push) and prints
the field-energy history; the exponential-growth segment is the classic
correctness check for a PIC code.

Run:  python examples/two_stream_instability.py
"""

import numpy as np

from repro import Grid2D, SequentialPIC, two_stream
from repro.telemetry import ascii_series


def main() -> None:
    grid = Grid2D(64, 8, lx=64.0, ly=8.0)
    # density=1 -> plasma frequency 1, so the instability growth is fast;
    # the default weakly-coupled density would take ~10x more steps.
    particles = two_stream(grid, 64 * 8 * 64, vdrift=0.2, vth=0.005, density=1.0, rng=7)
    sim = SequentialPIC(grid, particles, dt=0.5)

    print(f"{particles.n} particles in two beams (u = +/-0.2) on a {grid.nx}x{grid.ny} grid")
    e_field = []
    e_kinetic = []
    steps = 400
    for step in range(steps):
        sim.step()
        e_field.append(sim.fields.field_energy(grid))
        e_kinetic.append(sim.particles.kinetic_energy())

    e_field = np.array(e_field)
    e_kinetic = np.array(e_kinetic)

    print()
    print(ascii_series(np.log10(np.maximum(e_field, 1e-12)),
                       label="log10 field energy vs iteration"))

    growth = e_field[200] / max(e_field[10], 1e-12)
    print()
    print(f"field energy grew by a factor {growth:.3g} between steps 10 and 200")
    print(f"kinetic energy change: {e_kinetic[0]:.2f} -> {e_kinetic[-1]:.2f} "
          "(beams feed the wave)")
    assert growth > 10, "two-stream instability failed to grow — check the kernels"
    print("instability confirmed: exponential growth then saturation.")


if __name__ == "__main__":
    main()
