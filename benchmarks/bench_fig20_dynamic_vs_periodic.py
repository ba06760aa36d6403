"""Paper Figure 20 — periodic vs dynamic redistribution, 200 iterations.

Sweeps the redistribution period and compares against the dynamic
Stop-At-Rise policy.  Shape asserted: total time vs period is
U-shaped-ish (an interior optimum exists) and the dynamic policy lands
within a few percent of the best period without any tuning.
"""

from __future__ import annotations

from benchmarks._shared import run_simulation, write_report
from repro.telemetry import format_table
from repro.workloads import FIG20_CASE, scaled_iterations

PERIODS = [100, 50, 25, 10, 5, 2]


def run_fig20():
    iters = max(scaled_iterations(FIG20_CASE.iterations, minimum=100), 200)
    rows = []
    for k in PERIODS:
        if k > iters // 2:
            continue
        result = run_simulation(
            policy=f"periodic:{k}", iterations=iters, **FIG20_CASE.config_kwargs()
        )
        rows.append([f"periodic:{k}", result.total_time, result.n_redistributions])
    dyn = run_simulation(policy="dynamic", iterations=iters, **FIG20_CASE.config_kwargs())
    rows.append(["dynamic", dyn.total_time, dyn.n_redistributions])
    static = run_simulation(policy="static", iterations=iters, **FIG20_CASE.config_kwargs())
    rows.append(["static", static.total_time, 0])
    return rows


def bench_fig20_dynamic_vs_periodic(benchmark):
    rows = benchmark.pedantic(run_fig20, rounds=1, iterations=1)
    report = format_table(
        ["policy", "total time (s)", "#redis"],
        rows,
        title="Figure 20: periodic vs dynamic redistribution "
        f"({FIG20_CASE.nx}x{FIG20_CASE.ny}, n={FIG20_CASE.nparticles}, p={FIG20_CASE.p})",
    )
    write_report("fig20_dynamic_vs_periodic", report)

    totals = {r[0]: r[1] for r in rows}
    periodic_totals = {k: v for k, v in totals.items() if k.startswith("periodic")}
    best = min(periodic_totals.values())
    worst = max(periodic_totals.values())
    assert totals["dynamic"] <= 1.05 * best, (
        "dynamic must be close to the best periodic without tuning"
    )
    assert totals["dynamic"] < totals["static"], "dynamic must beat static"
    assert worst > 1.01 * best, "period choice must matter (tuning is non-trivial)"
