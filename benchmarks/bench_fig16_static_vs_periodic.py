"""Paper Figure 16 — total execution time, static vs periodic redistribution.

Three (mesh, particles) pairs on 32 virtual processors; the paper ran
2000 iterations with periods {200, 100, 50, 25, 10, 5}.  Iterations are
scaled by ``REPRO_SCALE`` (periods longer than the run are skipped).

Shape asserted: every periodic policy beats static on every case, as
the paper reports ("all the periodic redistribution methods
significantly outperform static ones").
"""

from __future__ import annotations

from benchmarks._shared import run_simulation, write_report
from repro.telemetry import format_table
from repro.workloads import FIG16_CASES, scaled_iterations

PERIODS = [200, 100, 50, 25, 10, 5]


def run_fig16():
    rows = []
    for case in FIG16_CASES:
        iters = scaled_iterations(case.iterations, minimum=100)
        policies = ["static"] + [f"periodic:{k}" for k in PERIODS if k <= iters // 2]
        for policy in policies:
            result = run_simulation(
                policy=policy, iterations=iters, **case.config_kwargs()
            )
            rows.append(
                [case.name, policy, iters, result.total_time, result.n_redistributions]
            )
    return rows


def bench_fig16_static_vs_periodic(benchmark):
    rows = benchmark.pedantic(run_fig16, rounds=1, iterations=1)
    report = format_table(
        ["case", "policy", "iters", "total time (s)", "#redis"],
        rows,
        title="Figure 16: total execution time, static vs periodic "
        "(32 procs, irregular)",
    )
    write_report("fig16_static_vs_periodic", report)

    by_case: dict[str, dict[str, float]] = {}
    for case, policy, _, total, _ in rows:
        by_case.setdefault(case, {})[policy] = total
    for case, totals in by_case.items():
        static = totals["static"]
        for policy, total in totals.items():
            if policy.startswith("periodic"):
                assert total < static, (
                    f"{case}: {policy} ({total:.2f}s) should beat static ({static:.2f}s)"
                )
