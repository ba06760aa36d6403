#!/usr/bin/env python
"""Era kernel vs modern kernel: Gauss-law error over a run.

The 1996-era PIC loop (plain CIC current deposition + collocated FDTD,
as in the paper) violates the discrete continuity equation, so
``div E - rho`` drifts and needs Marder cleaning.  The modern loop
(Yee-staggered FDTD + Umeda zigzag deposition) conserves charge
*exactly*.  This example runs both on the same plasma and prints the
Gauss-law error histories side by side.

Run:  python examples/charge_conserving_pic.py
"""

import numpy as np

from repro import Grid2D, SequentialPIC, uniform_plasma
from repro.telemetry import ascii_series, format_table
from repro.pic.yee import YeePIC


def main() -> None:
    grid = Grid2D(32, 32)
    steps = 150

    era = SequentialPIC(grid, uniform_plasma(grid, 8192, density=1.0, rng=21))
    yee = YeePIC(grid, uniform_plasma(grid, 8192, density=1.0, rng=21), dt=era.dt)

    era_err, yee_err = [], []
    for _ in range(steps):
        era.step()
        yee.step()
        era_err.append(float(np.abs(era.solver.gauss_residual(era.fields)).max()))
        yee_err.append(yee.gauss_error())

    print(ascii_series(np.log10(np.maximum(era_err, 1e-20)),
                       label="log10 |div E - rho|: era kernel (CIC J + Marder cleaning)"))
    print()
    print(ascii_series(np.log10(np.maximum(yee_err, 1e-20)),
                       label="log10 |div E - rho|: modern kernel (Yee + zigzag)"))
    print()
    print(format_table(
        ["loop", "final Gauss error", "max Gauss error"],
        [
            ["era (paper-style)", era_err[-1], max(era_err)],
            ["modern (Yee + zigzag)", yee_err[-1], max(yee_err)],
        ],
    ))
    assert max(yee_err) < 1e-11, "zigzag + Yee must conserve charge exactly"
    print("\nmodern loop conserves charge to machine precision;")
    print("the era loop relies on Marder cleaning to keep the error bounded.")


if __name__ == "__main__":
    main()
