"""Ablation (paper Figure 8) — hash vs direct-address ghost tables.

The paper describes the trade: the direct address table saves probe
time but costs memory proportional to the whole mesh; the hash table
costs probes but only stores the touched nodes.  This bench measures
both the modeled op counts / memory and the real wall time of each
table on a scatter-phase-sized workload.
"""

from __future__ import annotations

import numpy as np

from benchmarks._shared import write_report
from repro.telemetry import format_table
from repro.pic.ghost import make_ghost_table

NNODES = 512 * 256  # the paper's large mesh
ENTRIES = 4 * 131072 // 32  # per-rank particle-vertex entries at p=32


def workload(seed=0):
    rng = np.random.default_rng(seed)
    # ghost entries cluster near subdomain boundaries: draw from a
    # narrow band of node ids to mimic duplicate-heavy access
    nodes = rng.integers(0, NNODES // 64, ENTRIES).astype(np.int64)
    values = rng.normal(size=(4, ENTRIES))
    return nodes, values


def table_metrics(kind):
    nodes, values = workload()
    table = make_ghost_table(kind, NNODES)
    table.accumulate(nodes, values)
    uniq, _ = table.flush()
    return table.stats, uniq.size


def run_comparison():
    rows = []
    for kind in ("direct", "hash"):
        stats, unique = table_metrics(kind)
        rows.append([kind, stats.entries, unique, stats.ops, stats.memory_slots])
    return rows


def bench_ablation_ghost_tables(benchmark):
    # wall-time benchmark of the hash path (the default) on real data
    nodes, values = workload()

    def hash_pass():
        table = make_ghost_table("hash", NNODES)
        table.accumulate(nodes, values)
        return table.flush()

    benchmark(hash_pass)
    rows = run_comparison()
    report = format_table(
        ["table", "entries", "unique nodes", "modeled ops", "memory slots"],
        rows,
        title="Ablation: duplicate-removal table organizations (Fig 8)",
    )
    write_report("ablation_ghost_tables", report)

    direct = rows[0]
    hashed = rows[1]
    assert direct[2] == hashed[2], "both tables must agree on unique nodes"
    assert direct[3] < hashed[3], "direct table must use fewer probe ops"
    assert hashed[4] < direct[4], "hash table must use less memory"
    assert direct[4] >= NNODES, "direct table memory is proportional to the mesh"
