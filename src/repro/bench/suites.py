"""The registered hot-path cases (suites ``smoke`` and ``full``).

Every case here runs on a :class:`~repro.machine.VirtualMachine` so it
reports all three regression axes: host wall-clock, cost-model virtual
seconds, and abstract op counts.  Sizes are chosen so one ``smoke`` run
finishes in a few seconds — cheap enough to gate every PR — while still
exercising the real vectorized kernels on non-trivial data.

Cases are tier 1 (regression-gated) unless noted; the heavyweight paper
report generators are wrapped separately into the ``paper`` suite by
:mod:`repro.bench.registry`.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import numpy as np

from repro.bench.core import BenchObservation
from repro.bench.registry import register
from repro.core.incremental_sort import BucketState, bucket_incremental_sort
from repro.core.redistribution import Redistributor
from repro.core.partitioner import ParticlePartitioner
from repro.indexing import hilbert_xy_to_d
from repro.machine import MachineModel, VirtualMachine
from repro.mesh import CurveBlockDecomposition, Grid2D
from repro.particles import gaussian_blob
from repro.particles.sort import parallel_sample_sort
from repro.pic import ParallelPIC, Simulation, SimulationConfig
from repro.pic.checkpoint import load_checkpoint
from repro.pic.ghost import make_ghost_table

#: Shared problem size of the PIC-phase cases.  p = 32 with 256
#: particles per rank is the regime the pooled kernels exist for: a
#: per-rank Python loop would dominate the host time there.
_P = 32
_NX, _NY = 64, 32
_NPART = 8192
_SEED = 3


#: Problem size of the multicore flat-backend cases: enough particles
#: per rank that kernel math dominates worker dispatch overhead.
_NPART_MC = 262_144


def _workers() -> int:
    """Worker count of the multicore cases (``REPRO_BENCH_WORKERS``).

    The committed baseline is recorded at the default (0 = in-process
    flat), so a run with ``REPRO_BENCH_WORKERS=4`` compared against it
    measures the multicore backend's wall speedup at a vm_ratio of
    exactly 1.0 — the backend is accounting-invariant by contract.
    """
    from repro.parallel_exec import resolve_workers

    return resolve_workers(os.environ.get("REPRO_BENCH_WORKERS", "0"))


def _check(ok: bool, what: str) -> None:
    """Fail the running case unless ``ok`` (unlike ``assert``, survives ``-O``)."""
    if not ok:
        raise RuntimeError(f"bench check failed: {what}")


def _observe(vm: VirtualMachine, body) -> BenchObservation:
    """Run ``body`` and report the vm-time / op-count deltas it caused."""
    ops_before = vm.ops.as_dict()
    t0 = vm.elapsed()
    body()
    ops_after = vm.ops.as_dict()
    deltas = {
        k: v - ops_before.get(k, 0.0)
        for k, v in ops_after.items()
        if v - ops_before.get(k, 0.0) > 0.0
    }
    return BenchObservation(vm_seconds=vm.elapsed() - t0, op_counts=deltas)


def _build_pic(movement: str = "lagrangian", p: int = _P, **kwargs) -> ParallelPIC:
    grid = Grid2D(_NX, _NY)
    particles = gaussian_blob(grid, _NPART, rng=_SEED)
    vm = VirtualMachine(p, MachineModel.cm5())
    decomp = CurveBlockDecomposition(grid, p, "hilbert")
    if movement == "eulerian":
        cells = grid.cell_id_of_positions(particles.x, particles.y)
        owners = decomp.owner_of_cells(cells)
        local = [particles.take(np.flatnonzero(owners == r)) for r in range(p)]
    else:
        local = ParticlePartitioner(grid, "hilbert").initial_partition(particles, p)
    return ParallelPIC(vm, grid, decomp, local, movement=movement, **kwargs)


# ----------------------------------------------------------------------
# PIC phase cases
# ----------------------------------------------------------------------
@register(
    "scatter_static",
    suites=("smoke", "full"),
    tier=1,
    description="parallel scatter (deposition + ghost exchange), static partition",
    setup=_build_pic,
)
def _scatter_static(pic: ParallelPIC) -> BenchObservation:
    return _observe(pic.vm, pic.scatter)


@register(
    "gather_push_static",
    suites=("smoke", "full"),
    tier=1,
    description="parallel gather + push, static partition",
    setup=lambda: (lambda pic: (pic.scatter(), pic.field_solve(), pic)[-1])(_build_pic()),
)
def _gather_push_static(pic: ParallelPIC) -> BenchObservation:
    return _observe(pic.vm, pic.gather_push)


@register(
    "step_static_lagrangian",
    suites=("smoke", "full"),
    tier=1,
    description="one full PIC step (scatter/field/gather/push), Lagrangian",
    setup=_build_pic,
)
def _step_static(pic: ParallelPIC) -> BenchObservation:
    return _observe(pic.vm, pic.step)


@register(
    "step_eulerian",
    suites=("smoke", "full"),
    tier=1,
    description="one full PIC step with Eulerian per-step migration",
    setup=lambda: _build_pic("eulerian"),
)
def _step_eulerian(pic: ParallelPIC) -> BenchObservation:
    return _observe(pic.vm, pic.step)


def _build_pic_mc() -> ParallelPIC:
    """Large fixture for the multicore-backend cases.

    The worker count comes from ``REPRO_BENCH_WORKERS`` so the same case
    measures the in-process baseline and the sharded backend.
    """
    grid = Grid2D(_NX, _NY)
    particles = gaussian_blob(grid, _NPART_MC, rng=_SEED)
    vm = VirtualMachine(_P, MachineModel.cm5())
    decomp = CurveBlockDecomposition(grid, _P, "hilbert")
    local = ParticlePartitioner(grid, "hilbert").initial_partition(particles, _P)
    return ParallelPIC(vm, grid, decomp, local, movement="lagrangian", workers=_workers())


@register(
    "scatter_workers4_p32",
    suites=("smoke", "full"),
    tier=1,
    description="parallel scatter at 262k particles, flat engine, "
    "REPRO_BENCH_WORKERS processes (0 = in-process)",
    setup=_build_pic_mc,
)
def _scatter_workers(pic: ParallelPIC) -> BenchObservation:
    return _observe(pic.vm, pic.scatter)


@register(
    "flat_workers4_step_p32",
    suites=("smoke", "full"),
    tier=1,
    description="one full PIC step at 262k particles, flat engine, "
    "REPRO_BENCH_WORKERS processes (0 = in-process)",
    setup=_build_pic_mc,
)
def _step_workers(pic: ParallelPIC) -> BenchObservation:
    return _observe(pic.vm, pic.step)


def _electrostatic_fixture() -> ParallelPIC:
    pic = _build_pic(p=32, field_solver="electrostatic")
    pic.scatter()  # populate rho so the solve works on real sources
    return pic


@register(
    "field_solve_electrostatic_p32",
    suites=("smoke", "full"),
    tier=1,
    description="global FFT Poisson solve with all-to-all transpose, p=32",
    setup=_electrostatic_fixture,
)
def _field_solve_electrostatic(pic: ParallelPIC) -> BenchObservation:
    return _observe(pic.vm, pic.field_solve)


def _migration_fixture() -> ParallelPIC:
    pic = _build_pic("eulerian", p=32)
    pic.scatter()
    pic.field_solve()
    return pic


@register(
    "eulerian_migration_p32",
    suites=("smoke", "full"),
    tier=1,
    description="gather + push + Eulerian cell-owner migration, p=32",
    setup=_migration_fixture,
)
def _eulerian_migration(pic: ParallelPIC) -> BenchObservation:
    return _observe(pic.vm, pic.gather_push)


# ----------------------------------------------------------------------
# redistribution-core cases
# ----------------------------------------------------------------------
def _sort_fixture(drift: int, p: int = 16, n_per: int = 4000):
    rng = np.random.default_rng(_SEED)
    all_keys = np.sort(rng.integers(0, 10**6, p * n_per))
    states = []
    for r in range(p):
        keys = all_keys[r * n_per : (r + 1) * n_per]
        payload = np.repeat(keys, 7).reshape(-1, 7).astype(float)
        states.append(BucketState.build(keys, payload, 16))
    new_keys = [
        np.maximum(s.keys + rng.integers(-drift, drift + 1, s.n), 0) for s in states
    ]
    return VirtualMachine(p, MachineModel.cm5()), states, new_keys


@register(
    "incremental_resort_small_drift",
    suites=("smoke", "full"),
    tier=1,
    description="bucket incremental sort, ~1% of elements change rank",
    setup=lambda: _sort_fixture(drift=200),
)
def _resort_small(ctx) -> BenchObservation:
    vm, states, new_keys = ctx
    return _observe(vm, lambda: bucket_incremental_sort(vm, states, new_keys))


@register(
    "incremental_resort_large_drift",
    suites=("smoke", "full"),
    tier=1,
    description="bucket incremental sort under heavy drift",
    setup=lambda: _sort_fixture(drift=100_000),
)
def _resort_large(ctx) -> BenchObservation:
    vm, states, new_keys = ctx
    return _observe(vm, lambda: bucket_incremental_sort(vm, states, new_keys))


@register(
    "from_scratch_sample_sort",
    suites=("smoke", "full"),
    tier=1,
    description="parallel sample sort of the same keyed rows (baseline)",
    setup=lambda: _sort_fixture(drift=200),
)
def _sample_sort(ctx) -> BenchObservation:
    vm, states, new_keys = ctx
    payloads = [s.payload for s in states]
    return _observe(vm, lambda: parallel_sample_sort(vm, new_keys, payloads))


def _redistributor_fixture():
    grid = Grid2D(_NX, _NY)
    particles = gaussian_blob(grid, _NPART, rng=_SEED)
    vm = VirtualMachine(_P, MachineModel.cm5())
    partitioner = ParticlePartitioner(grid, "hilbert")
    redis = Redistributor(partitioner, nbuckets=16)
    local = partitioner.initial_partition(particles, _P)
    result = redis.initialize(vm, local)
    rng = np.random.default_rng(_SEED)
    return {"vm": vm, "redis": redis, "particles": result.particles, "rng": rng, "grid": grid}


@register(
    "redistributor_epoch_drift",
    suites=("smoke", "full"),
    tier=1,
    description="full Redistributor epoch (index + incremental sort + balance) under small drift",
    setup=_redistributor_fixture,
)
def _redistributor_epoch(ctx) -> BenchObservation:
    vm, redis, rng, grid = ctx["vm"], ctx["redis"], ctx["rng"], ctx["grid"]
    for parts in ctx["particles"]:
        parts.x[:] = np.mod(parts.x + rng.normal(0.0, 0.05 * grid.dx, parts.n), grid.lx)

    def body():
        result = redis.redistribute(vm, ctx["particles"])
        ctx["particles"] = result.particles

    return _observe(vm, body)


# ----------------------------------------------------------------------
# kernel / table micro-cases
# ----------------------------------------------------------------------
@register(
    "hilbert_cell_keys",
    suites=("smoke", "full"),
    tier=1,
    description="2-D Hilbert indexing of 200k cell coordinates",
    setup=lambda: (
        VirtualMachine(1, MachineModel.cm5()),
        np.random.default_rng(_SEED).integers(0, 256, 200_000),
        np.random.default_rng(_SEED + 1).integers(0, 256, 200_000),
    ),
)
def _hilbert_keys(ctx) -> BenchObservation:
    vm, x, y = ctx

    def body():
        hilbert_xy_to_d(8, x, y)
        vm.charge_ops("index", float(x.size))

    return _observe(vm, body)


def _ghost_fixture(kind: str):
    grid = Grid2D(128, 64)
    rng = np.random.default_rng(_SEED)
    nodes = rng.integers(0, grid.nnodes, 60_000)
    values = rng.random((4, nodes.size))
    table = make_ghost_table(kind, grid.nnodes, 4)
    return VirtualMachine(1, MachineModel.cm5()), table, nodes, values


def _ghost_body(ctx) -> BenchObservation:
    vm, table, nodes, values = ctx

    def body():
        before = table.stats.ops
        table.accumulate(nodes, values)
        table.flush()
        vm.charge_ops("table", table.stats.ops - before)

    return _observe(vm, body)


register(
    "ghost_table_hash",
    suites=("smoke", "full"),
    tier=1,
    description="hash ghost table: accumulate + duplicate-removal flush",
    setup=lambda: _ghost_fixture("hash"),
)(_ghost_body)

register(
    "ghost_table_direct",
    suites=("smoke", "full"),
    tier=1,
    description="direct-address ghost table: accumulate + flush",
    setup=lambda: _ghost_fixture("direct"),
)(_ghost_body)


# ----------------------------------------------------------------------
# end-to-end simulation case
# ----------------------------------------------------------------------
@register(
    "simulation_smoke_dynamic",
    suites=("smoke", "full"),
    tier=1,
    repeats=3,
    description="10 iterations of the full Simulation driver, dynamic policy",
    setup=lambda: Simulation(
        SimulationConfig(
            nx=32,
            ny=16,
            nparticles=2048,
            p=4,
            distribution="irregular",
            policy="dynamic",
            seed=_SEED,
        )
    ),
)
def _simulation_smoke(sim: Simulation) -> BenchObservation:
    return _observe(sim.vm, lambda: sim.run(10))


def _checkpoint_fixture() -> tuple[Simulation, Path]:
    sim = Simulation(
        SimulationConfig(
            nx=_NX,
            ny=_NY,
            nparticles=_NPART,
            p=_P,
            distribution="irregular",
            policy="dynamic",
            seed=_SEED,
        )
    )
    sim.run(2)  # accumulate vm / policy / record state worth serializing
    path = Path(tempfile.mkdtemp(prefix="repro_bench_ck_")) / "ck.npz"
    return sim, path


@register(
    "checkpoint_roundtrip_p32",
    suites=("smoke", "full"),
    tier=1,
    repeats=3,
    description="v2 checkpoint save + load of a p=32 run (full run state)",
    setup=_checkpoint_fixture,
)
def _checkpoint_roundtrip(ctx) -> BenchObservation:
    sim, path = ctx

    def body():
        sim.checkpoint(path)
        load_checkpoint(path)

    return _observe(sim.vm, body)


def _telemetry_config() -> SimulationConfig:
    return SimulationConfig(
        nx=_NX,
        ny=_NY,
        nparticles=_NPART,
        p=_P,
        distribution="irregular",
        policy="dynamic",
        seed=_SEED,
    )


@register(
    "telemetry_overhead_p32",
    suites=("smoke", "full"),
    tier=1,
    repeats=3,
    description="6 iterations twice: telemetry off, then traced (spans + metrics); "
    "gates the enabled-mode overhead",
    setup=lambda: None,
)
def _telemetry_overhead(_ctx) -> BenchObservation:
    # Both runs live in the timed body so the case's wall-clock tracks
    # the *sum* of the plain and the instrumented run — a telemetry hot
    # path that stops being near-free shows up as a tier-1 wall
    # regression here.  The virtual axes come from the traced run, which
    # must match the plain one exactly (zero-cost contract).
    plain = Simulation(_telemetry_config())
    traced = Simulation(_telemetry_config())
    traced.enable_telemetry()
    plain.run(6)
    traced.run(6)
    _check(traced.vm.elapsed() == plain.vm.elapsed(), "telemetry moved vm.elapsed()")
    traced.telemetry.metrics_lines()
    traced.telemetry.tracer.to_chrome()
    return BenchObservation(
        vm_seconds=traced.vm.elapsed(), op_counts=traced.vm.ops.as_dict()
    )


@register(
    "obs_overhead_p32",
    suites=("smoke", "full"),
    tier=1,
    repeats=3,
    description="6 iterations twice: bare, then fully observed (telemetry + "
    "kernel profiling); reports the profiled/bare wall ratio and gates the "
    "<5% attribution-overhead budget",
    setup=lambda: None,
)
def _obs_overhead(_ctx) -> BenchObservation:
    # Same both-runs-in-the-timed-body structure as telemetry_overhead:
    # the tier-1 wall gate catches a hot-path section that stops being
    # cheap.  The per-run walls are also measured separately so the
    # observation reports the overhead *fraction* in `extra` — CI pins
    # it under 5% on the min-over-repeats walls.
    from time import perf_counter

    plain = Simulation(_telemetry_config())
    observed = Simulation(_telemetry_config())
    observed.enable_telemetry()
    observed.enable_profiling()
    t0 = perf_counter()
    plain.run(6)
    t_plain = perf_counter() - t0
    t0 = perf_counter()
    observed.run(6)
    t_observed = perf_counter() - t0
    # zero-cost contract: profiling + telemetry never touch the virtual
    # axes or the physics
    _check(observed.vm.elapsed() == plain.vm.elapsed(), "observation moved vm.elapsed()")
    _check(observed.vm.ops.as_dict() == plain.vm.ops.as_dict(), "observation moved vm.ops")
    _check(observed.profiler is not None and bool(observed.profiler.samples),
           "profiler recorded no samples")
    return BenchObservation(
        vm_seconds=observed.vm.elapsed(),
        op_counts=observed.vm.ops.as_dict(),
        extra={
            "wall_plain": t_plain,
            "wall_observed": t_observed,
            "overhead_frac": (t_observed - t_plain) / t_plain if t_plain > 0 else 0.0,
        },
    )


def _recovery_fixture() -> Path:
    # The body builds and runs the whole faulted simulation (the bench
    # runner calls setup once but times every repeat, so the kill +
    # recovery must happen inside the body); setup only provides a
    # scratch checkpoint location.
    return Path(tempfile.mkdtemp(prefix="repro_bench_rec_")) / "ck.npz"


@register(
    "recovery_smoke_p32",
    suites=("smoke", "full"),
    tier=1,
    repeats=3,
    description="p=32 run with a rank kill at iteration 4: detect, shrink, restore, replay",
    setup=_recovery_fixture,
)
def _recovery_smoke(path: Path) -> BenchObservation:
    from repro.machine.faults import FaultEvent, FaultPlan

    sim = Simulation(
        SimulationConfig(
            nx=_NX,
            ny=_NY,
            nparticles=_NPART,
            p=_P,
            distribution="irregular",
            policy="dynamic",
            seed=_SEED,
        )
    )
    sim.install_faults(FaultPlan(events=(FaultEvent(kind="kill", rank=5, iteration=4),)))
    result = sim.run(6, checkpoint_every=2, checkpoint_path=path)
    _check(result.n_recoveries == 1, f"expected 1 recovery, got {result.n_recoveries}")
    # recovery swapped sim.vm for the shrunk machine (which carried the
    # old elapsed/ops forward), so report its cumulative totals directly
    return BenchObservation(vm_seconds=sim.vm.elapsed(), op_counts=sim.vm.ops.as_dict())


def _service_cache_fixture() -> dict:
    # The cold batch runs once in setup (untimed): three p=32 jobs
    # through the supervised scheduler, populating a scratch result
    # cache.  The timed body is the warm resubmission, so the case's
    # wall-clock IS the cache-hit path — lookup, digest verification,
    # and report assembly, with zero worker processes launched.
    import time

    from repro.service import JobSpec, Scheduler

    root = Path(tempfile.mkdtemp(prefix="repro_bench_svc_"))
    jobs = [
        JobSpec(
            config=dict(
                nx=_NX,
                ny=_NY,
                nparticles=_NPART,
                p=_P,
                distribution="irregular",
                policy="dynamic",
                seed=seed,
            ),
            iterations=4,
            name=f"bench-seed={seed}",
        )
        for seed in range(3)
    ]
    t0 = time.monotonic()
    report = Scheduler(workers=2, cache=root / "cache", workdir=root / "work").run(jobs)
    cold_wall = time.monotonic() - t0
    if not report["ok"]:
        raise RuntimeError(f"cold service batch failed: {report['counters']}")
    return {"root": root, "jobs": jobs, "cold_wall": cold_wall}


@register(
    "service_cache_hit_p32",
    suites=("smoke", "full"),
    tier=1,
    repeats=3,
    description="warm resubmission of a 3-job p=32 batch served entirely from "
    "the result cache; reports warm_fraction (the <1% warm/cold contract is "
    "asserted by tests/test_chaos_service.py, not in the timed body)",
    setup=_service_cache_fixture,
)
def _service_cache_hit(ctx: dict) -> BenchObservation:
    import time

    from repro.service import Scheduler

    t0 = time.monotonic()
    report = Scheduler(
        workers=2, cache=ctx["root"] / "cache", workdir=ctx["root"] / "work"
    ).run(ctx["jobs"])
    warm_wall = time.monotonic() - t0
    # correctness checks raise explicitly (an `assert` vanishes under -O);
    # the timing contract itself is NOT enforced here — a loaded machine
    # must yield a comparable observation, not crash the bench run
    if not report["ok"]:
        raise RuntimeError(f"warm service batch failed: {report['counters']}")
    hits = report["counters"]["cache_hits"]
    if hits != len(ctx["jobs"]):
        raise RuntimeError(
            f"expected {len(ctx['jobs'])} cache hits, got {hits}"
        )
    return BenchObservation(
        extra={
            "cold_wall": ctx["cold_wall"],
            "warm_wall": warm_wall,
            "warm_fraction": warm_wall / ctx["cold_wall"],
        }
    )
