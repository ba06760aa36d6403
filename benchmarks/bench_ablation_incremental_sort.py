"""Ablation (paper Figure 11 claim) — incremental vs from-scratch
redistribution cost as a function of drift magnitude.

The bucket incremental sort should beat the full sample sort when few
particles changed rank, and its advantage should shrink as the drift
grows (in the limit of total shuffling everything moves anyway).
"""

from __future__ import annotations

import numpy as np

from benchmarks._shared import write_report
from repro.telemetry import format_table
from repro.core.incremental_sort import BucketState, bucket_incremental_sort
from repro.machine import MachineModel, VirtualMachine
from repro.particles.sort import parallel_sample_sort

P = 16
N_PER = 2000


def build_states(seed=0):
    rng = np.random.default_rng(seed)
    all_keys = np.sort(rng.integers(0, 10**6, P * N_PER))
    states = []
    for r in range(P):
        keys = all_keys[r * N_PER : (r + 1) * N_PER]
        states.append(BucketState.build(keys, keys.reshape(-1, 1).astype(float), 16))
    return states


def run_ablation():
    rows = []
    for drift in (10, 1000, 50000, 500000):
        rng = np.random.default_rng(drift)
        states = build_states()
        new_keys = [
            np.maximum(s.keys + rng.integers(-drift, drift + 1, s.n), 0) for s in states
        ]
        vm_inc = VirtualMachine(P, MachineModel.cm5())
        _, _, stats = bucket_incremental_sort(
            vm_inc, states, [k.copy() for k in new_keys]
        )
        vm_full = VirtualMachine(P, MachineModel.cm5())
        payloads = [s.payload for s in build_states()]
        parallel_sample_sort(vm_full, [k.copy() for k in new_keys], payloads)
        moved_frac = stats.moved_rank / stats.total
        rows.append([drift, moved_frac, vm_inc.elapsed(), vm_full.elapsed()])
    return rows


def bench_ablation_incremental_sort(benchmark):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    report = format_table(
        ["drift", "fraction moved rank", "incremental (s)", "full sort (s)"],
        rows,
        title="Ablation: incremental vs from-scratch redistribution "
        f"({P} procs, {P * N_PER} elements)",
    )
    write_report("ablation_incremental_sort", report)

    for drift, moved, inc, full in rows:
        assert inc < full, f"incremental must beat full sort at drift={drift}"
    # advantage shrinks as drift grows
    ratios = [inc / full for _, _, inc, full in rows]
    assert ratios[0] < ratios[-1], "small drifts must benefit more than large ones"
    assert rows[0][1] < rows[-1][1], "moved fraction must grow with drift"
