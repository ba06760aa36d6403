"""Paper Figure 21 — overhead (execution minus computation time),
uniform distribution, Hilbert vs snakelike, vs processor count.

Reuses the Table 2 sweep (cached).  Shape asserted: Hilbert overhead is
at or below snake overhead for the uniform cases.
"""

from __future__ import annotations

from benchmarks._shared import table2_case_names, table2_run, write_report
from repro.telemetry import format_table
from repro.workloads import TABLE2_CASES


def overhead_rows(distribution: str):
    rows = []
    for name in table2_case_names():
        case = {c.name: c for c in TABLE2_CASES}[name]
        if case.distribution != distribution:
            continue
        hil = table2_run(name, "hilbert")
        snk = table2_run(name, "snake")
        rows.append(
            [
                f"{case.nx}x{case.ny}",
                case.nparticles,
                case.p,
                hil.overhead,
                snk.overhead,
                hil.redistribution_time,
            ]
        )
    return rows


def bench_fig21_overhead_uniform(benchmark):
    rows = benchmark.pedantic(lambda: overhead_rows("uniform"), rounds=1, iterations=1)
    report = format_table(
        ["mesh", "particles", "p", "hilbert overhead (s)", "snake overhead (s)", "hilbert redis (s)"],
        rows,
        title="Figure 21: overhead of 200 (scaled) iterations, uniform distribution",
    )
    write_report("fig21_overhead_uniform", report)
    wins = sum(1 for r in rows if r[3] <= r[4] * 1.05)
    assert wins >= 0.75 * len(rows), (
        f"Hilbert overhead should be <= snake in nearly all uniform cases ({wins}/{len(rows)})"
    )
