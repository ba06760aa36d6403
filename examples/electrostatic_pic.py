#!/usr/bin/env python
"""Compose an electrostatic PIC loop from the library's kernels.

The paper's code is electromagnetic, but the library's pieces compose
into the other classic variant: deposit charge, solve the periodic
Poisson problem for the potential, take E = -grad(phi), gather, push.
This example demonstrates the public kernel API (deposition, Poisson
solvers, interpolation, Boris push) outside the prebuilt steppers, and
checks the plasma-oscillation frequency against theory — a quantitative
physics validation.

Run:  python examples/electrostatic_pic.py
"""

import numpy as np

from repro import Grid2D, uniform_plasma
from repro.telemetry import ascii_series
from repro.mesh import FieldState
from repro.pic import PoissonSolver
from repro.pic.deposition import deposit_charge_current
from repro.pic.interpolation import interpolate_fields
from repro.pic.push import boris_push


def main() -> None:
    grid = Grid2D(64, 16, lx=64.0, ly=16.0)
    solver = PoissonSolver(grid)
    # density=1 -> plasma frequency w_p = 1 in normalized units
    particles = uniform_plasma(grid, 64 * 16 * 16, vth=0.0005, density=1.0, rng=11)

    # Seed a small sinusoidal density perturbation by nudging positions.
    k = 2.0 * np.pi / grid.lx
    particles.x[:] = np.mod(particles.x + 0.1 * np.sin(k * particles.x), grid.lx)

    dt = 0.2
    steps = 320
    ez_amplitude = []
    fields = FieldState.zeros(grid)
    for _ in range(steps):
        # scatter: charge only (electrostatic)
        rho, _, _, _ = deposit_charge_current(grid, particles)
        # field solve: Poisson -> E
        phi = solver.solve_fft(rho)
        ex, ey = solver.electric_field(phi)
        fields.ex, fields.ey = ex, ey
        # gather + push
        e, b = interpolate_fields(grid, fields, particles)
        boris_push(grid, particles, e, b, dt)
        ez_amplitude.append(np.abs(ex).max())

    amplitude = np.array(ez_amplitude)
    print(ascii_series(amplitude, label="|Ex|max vs iteration (plasma oscillation)"))

    # measure the oscillation frequency from zero-crossings of the
    # dominant field mode; expect the plasma frequency w_p = 1 in
    # normalized units (density 1, q = m = 1).
    spectrum = np.abs(np.fft.rfft(amplitude - amplitude.mean()))
    freqs = np.fft.rfftfreq(steps, d=dt) * 2.0 * np.pi
    w_measured = freqs[np.argmax(spectrum[1:]) + 1]
    # |Ex| oscillates at twice the plasma frequency
    print(f"\nmeasured |E| oscillation frequency: {w_measured:.3f} "
          f"(theory: 2 * w_p = 2.000)")
    assert abs(w_measured - 2.0) < 0.25, "plasma frequency off — check the kernels"
    print("plasma oscillation frequency matches theory.")


if __name__ == "__main__":
    main()
