"""Paper Table 2 — computational time, Hilbert vs snakelike indexing.

The full sweep: {uniform, irregular} x {256x128 with 32K/64K particles,
512x256 with 64K/128K} x {32, 64, 128} processors, dynamic
redistribution, both indexing schemes.  Iterations are the paper's 200
scaled by ``REPRO_SCALE``; ``REPRO_MAX_P`` trims the processor axis for
quick runs.

Shapes asserted: Hilbert total time <= snake in (nearly) all cases, and
time decreases with processor count for each case family.
"""

from __future__ import annotations

from benchmarks._shared import table2_case_names, table2_run, write_report
from repro.telemetry import format_table
from repro.workloads import TABLE2_CASES


def run_table2():
    rows = []
    for name in table2_case_names():
        case = {c.name: c for c in TABLE2_CASES}[name]
        hil = table2_run(name, "hilbert")
        snk = table2_run(name, "snake")
        rows.append(
            [
                case.distribution,
                f"{case.nx}x{case.ny}",
                case.nparticles,
                case.p,
                hil.total_time,
                snk.total_time,
                hil.computation_time,
            ]
        )
    return rows


def bench_table2_indexing(benchmark):
    rows = benchmark.pedantic(run_table2, rounds=1, iterations=1)
    report = format_table(
        ["distribution", "mesh", "particles", "p", "hilbert (s)", "snake (s)", "compute (s)"],
        rows,
        title="Table 2: computational time, Hilbert vs snakelike indexing "
        "(dynamic redistribution)",
    )
    write_report("table2_indexing", report)

    hilbert_wins = sum(1 for r in rows if r[4] <= r[5] * 1.02)
    assert hilbert_wins >= 0.75 * len(rows), (
        f"Hilbert should win (or tie) nearly all cases; won {hilbert_wins}/{len(rows)}"
    )
    # strong scaling within each (distribution, mesh, particles) family
    families: dict[tuple, dict[int, float]] = {}
    for dist, mesh, n, p, hil, _, _ in rows:
        families.setdefault((dist, mesh, n), {})[p] = hil
    for family, by_p in families.items():
        ps = sorted(by_p)
        for a, b in zip(ps, ps[1:]):
            assert by_p[b] < by_p[a], f"{family}: time must drop from p={a} to p={b}"
