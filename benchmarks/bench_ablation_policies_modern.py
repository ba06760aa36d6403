"""Ablation — do the paper's policy conclusions hold on the modern kernel?

Re-runs the Figure 20 comparison (periodic sweep vs dynamic SAR vs
static) with ``kernel="modern"`` (Yee + zigzag).  The redistribution
economics are kernel-independent, so the same ordering must appear:
every periodic beats static, and dynamic lands at (or near) the best
periodic with no tuning.
"""

from __future__ import annotations

from benchmarks._shared import run_simulation, write_report
from repro.telemetry import format_table
from repro.workloads import scaled_iterations

PERIODS = [50, 25, 10, 5]


def run_modern_policies():
    iters = scaled_iterations(200, minimum=100)
    rows = []
    common = dict(
        nx=64,
        ny=32,
        nparticles=8192,
        p=16,
        distribution="irregular",
        kernel="modern",
        iterations=iters,
    )
    for k in PERIODS:
        result = run_simulation(policy=f"periodic:{k}", **common)
        rows.append([f"periodic:{k}", result.total_time, result.n_redistributions])
    dyn = run_simulation(policy="dynamic", **common)
    rows.append(["dynamic", dyn.total_time, dyn.n_redistributions])
    static = run_simulation(policy="static", **common)
    rows.append(["static", static.total_time, 0])
    return rows


def bench_ablation_policies_modern(benchmark):
    rows = benchmark.pedantic(run_modern_policies, rounds=1, iterations=1)
    report = format_table(
        ["policy", "total time (s)", "#redis"],
        rows,
        title="Ablation: redistribution policies on the modern (Yee + zigzag) kernel",
    )
    write_report("ablation_policies_modern", report)

    totals = {r[0]: r[1] for r in rows}
    best_periodic = min(v for k, v in totals.items() if k.startswith("periodic"))
    assert totals["dynamic"] <= 1.05 * best_periodic
    assert totals["dynamic"] < totals["static"]
    for k, v in totals.items():
        if k.startswith("periodic"):
            assert v < totals["static"], f"{k} must beat static on the modern kernel too"
