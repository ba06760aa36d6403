"""Multicore flat backend: shm arena, worker pool, sharding, fallback,
and the Simulation-level bit-identity contract across worker counts
(accounting, results, fault recovery, checkpoint/resume)."""

import json
import multiprocessing
import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro.machine import FaultEvent, FaultPlan
from repro.mesh import Grid2D
from repro.parallel_exec import (
    FlatBackend,
    SharedArena,
    ShmArray,
    ShmAttachCache,
    WorkerError,
    WorkerPool,
    create_backend,
    live_worker_pids,
    resolve_workers,
    shared_memory_available,
)
from repro.pic import Simulation, SimulationConfig
from repro.pic.checkpoint import load_checkpoint
from tests.looped_reference import looped_engine

_MULTICORE_OK = (
    "fork" in multiprocessing.get_all_start_methods() and shared_memory_available()
)
needs_multicore = pytest.mark.skipif(
    not _MULTICORE_OK, reason="fork or multiprocessing.shared_memory unavailable"
)


# ----------------------------------------------------------------------
# resolve_workers / graceful degradation
# ----------------------------------------------------------------------
class TestResolveWorkers:
    @pytest.mark.parametrize(
        "spec,expected", [(None, 0), (0, 0), (1, 1), (4, 4), ("0", 0), ("3", 3)]
    )
    def test_values(self, spec, expected):
        assert resolve_workers(spec) == expected

    def test_auto_is_positive(self):
        assert resolve_workers("auto") >= 1
        assert resolve_workers(" AUTO ") >= 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            resolve_workers(-2)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers("many")


class TestGracefulFallback:
    def test_workers_leq_one_is_in_process(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # must not even warn
            assert create_backend(0, Grid2D(8, 8)) is None
            assert create_backend(1, Grid2D(8, 8)) is None
            assert create_backend(None, Grid2D(8, 8)) is None

    def test_no_shared_memory_warns_and_falls_back(self, monkeypatch):
        from repro.parallel_exec import backend as backend_mod

        monkeypatch.setattr(backend_mod, "shared_memory_available", lambda: False)
        monkeypatch.setattr(backend_mod, "_warned", set())
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert create_backend(4, Grid2D(8, 8)) is None
        # second construction is silent (one warning per process per reason)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert create_backend(4, Grid2D(8, 8)) is None

    def test_simulation_never_crashes_without_shm(self, monkeypatch):
        from repro.parallel_exec import backend as backend_mod

        monkeypatch.setattr(backend_mod, "shared_memory_available", lambda: False)
        monkeypatch.setattr(backend_mod, "_warned", set())
        cfg = SimulationConfig(nx=16, ny=8, nparticles=256, p=2, seed=1)
        with pytest.warns(RuntimeWarning, match="falling back"):
            sim = Simulation(cfg, workers=4)
        assert sim.backend is None
        sim.run(1)  # in-process path, never crashes
        sim.close()

    def test_workers_ignored_off_flat_era(self):
        cfg = SimulationConfig(
            nx=16, ny=8, nparticles=256, p=2, seed=1, kernel="modern"
        )
        with pytest.warns(RuntimeWarning, match="ignored"):
            sim = Simulation(cfg, workers=2)
        assert sim.backend is None
        sim.close()


class TestDegradedObservability:
    """A silent multicore fallback must be visible in results + telemetry."""

    def test_fallback_sets_degraded_marker(self, monkeypatch):
        from repro.parallel_exec import backend as backend_mod

        monkeypatch.setattr(backend_mod, "shared_memory_available", lambda: False)
        monkeypatch.setattr(backend_mod, "_warned", set())
        cfg = SimulationConfig(nx=16, ny=8, nparticles=256, p=2, seed=1)
        with pytest.warns(RuntimeWarning):
            sim = Simulation(cfg, workers=4)
        assert sim.degraded is not None
        assert sim.degraded["requested_workers"] == 4
        assert "shared" in sim.degraded["reason"]
        telemetry = sim.enable_telemetry()
        result = sim.run(1)
        assert result.to_dict()["degraded"] == sim.degraded
        assert telemetry.header()["degraded"] == sim.degraded
        sim.close()

    def test_engine_mismatch_sets_degraded_marker(self):
        cfg = SimulationConfig(
            nx=16, ny=8, nparticles=256, p=2, seed=1, kernel="modern"
        )
        with pytest.warns(RuntimeWarning, match="ignored"):
            sim = Simulation(cfg, workers=2)
        assert sim.degraded is not None
        assert sim.degraded["requested_workers"] == 2
        assert "kernel='modern'" in sim.degraded["reason"]
        sim.close()

    def test_true_runs_carry_no_marker(self):
        cfg = SimulationConfig(nx=16, ny=8, nparticles=256, p=2, seed=1)
        sim = Simulation(cfg)  # in-process was *requested*: not degraded
        sim.enable_telemetry()
        result = sim.run(1)
        assert sim.degraded is None
        assert "degraded" not in result.to_dict()  # byte-identity preserved
        assert "degraded" not in sim.telemetry.header()
        sim.close()


# ----------------------------------------------------------------------
# shared-memory arena
# ----------------------------------------------------------------------
@needs_multicore
class TestSharedArena:
    def test_array_roundtrip(self):
        arena = SharedArena(tag="t")
        try:
            view, desc = arena.array("buf", (5, 3), np.float64)
            view[...] = np.arange(15.0).reshape(5, 3)
            assert desc.shape == (5, 3) and desc.nbytes == 15 * 8
            cache = ShmAttachCache()
            np.testing.assert_array_equal(
                cache.get(desc), np.arange(15.0).reshape(5, 3)
            )
            cache.close()
        finally:
            arena.close()

    def test_reuse_and_fresh(self):
        arena = SharedArena(tag="t")
        try:
            _, d1 = arena.array("buf", (8,), np.float64)
            _, d2 = arena.array("buf", (4,), np.float64)  # smaller: reuse
            assert d2.name == d1.name
            _, d3 = arena.array("buf", (64,), np.float64)  # grows: new block
            assert d3.name != d1.name
            pairs = arena.columns("buf", [((4,), np.float64)], fresh=True)
            assert pairs[0][1].name != d3.name  # fresh forces a new block
        finally:
            arena.close()

    def test_columns_offsets(self):
        arena = SharedArena(tag="t")
        try:
            pairs = arena.columns(
                "cols", [((4,), np.float64), ((4,), np.int64), ((2,), np.bool_)]
            )
            (a, da), (b, db), (c, dc) = pairs
            a[...] = 1.5
            b[...] = 7
            c[...] = True
            assert (da.offset, db.offset, dc.offset) == (0, 32, 64)
            cache = ShmAttachCache()
            np.testing.assert_array_equal(cache.get(db), np.full(4, 7))
            np.testing.assert_array_equal(cache.get(da), np.full(4, 1.5))
            cache.close()
        finally:
            arena.close()

    def test_publish_copies(self):
        arena = SharedArena(tag="t")
        try:
            src = np.arange(6, dtype=np.int64)
            desc = arena.publish("owner", src)
            src[:] = -1  # mutating the source must not reach the arena
            cache = ShmAttachCache()
            np.testing.assert_array_equal(cache.get(desc), np.arange(6))
            cache.close()
        finally:
            arena.close()

    def test_close_unlinks(self):
        arena = SharedArena(tag="t")
        _, desc = arena.array("buf", (4,), np.float64)
        arena.close()
        cache = ShmAttachCache()
        with pytest.raises(FileNotFoundError):
            cache.get(desc)
        arena.close()  # idempotent


# ----------------------------------------------------------------------
# worker pool
# ----------------------------------------------------------------------
@needs_multicore
class TestWorkerPool:
    def test_ping_and_pids(self):
        pool = WorkerPool(2, (8, 8, 8.0, 8.0))
        try:
            assert pool.run([(0, "ping", {}), (1, "ping", {})]) == ["pong", "pong"]
            assert len(pool.pids) == 2
            assert set(pool.pids) <= set(live_worker_pids())
        finally:
            pool.close()
        assert pool.pids == []
        assert not (set(pool.pids) & set(live_worker_pids()))

    def test_worker_exception_propagates(self):
        pool = WorkerPool(1, (8, 8, 8.0, 8.0))
        try:
            with pytest.raises(WorkerError, match="no_such_handler"):
                pool.run([(0, "no_such_handler", {})])
            # pool keeps serving after a failed task
            assert pool.run([(0, "ping", {})]) == ["pong"]
        finally:
            pool.close()

    def test_closed_pool_rejects_tasks(self):
        pool = WorkerPool(1, (8, 8, 8.0, 8.0))
        pool.close()
        with pytest.raises(WorkerError, match="closed"):
            pool.run([(0, "ping", {})])


# ----------------------------------------------------------------------
# sharding
# ----------------------------------------------------------------------
@needs_multicore
class TestShards:
    @pytest.fixture(scope="class")
    def backend(self):
        b = create_backend(3, Grid2D(8, 8))
        assert isinstance(b, FlatBackend)
        yield b
        b.close()

    @pytest.mark.parametrize(
        "counts",
        [
            [10, 10, 10, 10, 10, 10],
            [0, 0, 0, 0],
            [100, 0, 0, 1],
            [1],
            [0, 50, 0, 50, 0],
            list(range(20)),
        ],
    )
    def test_cover_all_ranks_once(self, backend, counts):
        shards = backend._shards(np.asarray(counts, dtype=np.int64))
        assert len(shards) <= backend.nworkers
        covered = []
        for r0, r1 in shards:
            assert r1 > r0
            covered.extend(range(r0, r1))
        assert covered == list(range(len(counts)))

    def test_scatter_writes_only_shard_owned_nodes(self, backend):
        from repro.core import ParticlePartitioner
        from repro.mesh import CurveBlockDecomposition
        from repro.parallel_exec.kernels import scatter_segment
        from repro.particles import ParticlePool, gaussian_blob
        from repro.pic.deposition import CHANNELS

        grid, p = Grid2D(24, 16), 7
        owner = CurveBlockDecomposition(grid, p, "hilbert").owner_map
        local = ParticlePartitioner(grid, "hilbert").initial_partition(
            gaussian_blob(grid, 1500, rng=5), p
        )
        pool = ParticlePool.from_ranks(local)
        counts, offsets = pool.counts, pool.offsets
        shape = (len(CHANNELS), grid.nnodes)

        serial = np.full(shape, np.nan)
        scatter_segment(grid, pool.array, counts, 0, owner, grid.nnodes, serial)
        union = np.full(shape, np.nan)
        shards = backend._shards(counts)
        assert len(shards) > 1
        for r0, r1 in shards:
            out = np.full(shape, np.nan)
            parts = pool.array.slice_view(int(offsets[r0]), int(offsets[r1]))
            scatter_segment(grid, parts, counts[r0:r1], r0, owner, grid.nnodes, out)
            owned = (owner >= r0) & (owner < r1)
            assert not np.isnan(out[:, owned]).any()
            assert np.isnan(out[:, ~owned]).all()
            union[:, owned] = out[:, owned]
        assert union.tobytes() == serial.tobytes()

    def test_classify_matches_serial(self, backend):
        rng = np.random.default_rng(11)
        n, p = 4096, 7
        keys = rng.integers(0, 10**6, n)
        rank_of = rng.integers(0, p, n)
        lows = rng.integers(0, 10**6, n)
        highs = lows + rng.integers(0, 1000, n)
        splitters = np.sort(rng.integers(0, 10**6, p - 1))
        from repro.parallel_exec.kernels import classify_chunk

        dest_s, same_s = classify_chunk(keys, rank_of, lows, highs, splitters)
        dest_w, same_w = backend.classify(keys, rank_of, lows, highs, splitters)
        np.testing.assert_array_equal(dest_w, dest_s)
        np.testing.assert_array_equal(same_w, same_s)


# ----------------------------------------------------------------------
# Simulation-level bit-identity across worker counts
# ----------------------------------------------------------------------
def _cfg(**kwargs) -> SimulationConfig:
    base = dict(
        nx=16,
        ny=12,
        nparticles=800,
        p=6,
        distribution="irregular",
        policy="dynamic",
        seed=3,
    )
    base.update(kwargs)
    return SimulationConfig(**base)


def _result_dict(cfg, workers, niters=4, **run_kwargs):
    sim = Simulation(cfg, workers=workers)
    try:
        result = sim.run(niters, **run_kwargs)
        return result.to_dict()
    finally:
        sim.close()


def _strip_wall(d: dict) -> dict:
    return {k: v for k, v in d.items() if "wall" not in k}


@needs_multicore
class TestSimulationInvariance:
    @pytest.mark.parametrize("movement", ["lagrangian", "eulerian"])
    def test_result_dicts_identical(self, movement):
        cfg = _cfg(movement=movement)
        ref = _strip_wall(_result_dict(cfg, 0))
        for workers in (1, 2, 4):
            got = _strip_wall(_result_dict(cfg, workers))
            assert json.dumps(got, sort_keys=True, default=str) == json.dumps(
                ref, sort_keys=True, default=str
            ), f"workers={workers} perturbed the result dict"

    def test_three_way_with_looped(self):
        flat = _strip_wall(_result_dict(_cfg(), 2))
        with looped_engine():
            looped = _strip_wall(_result_dict(_cfg(), 0))
        assert json.dumps(flat, sort_keys=True, default=str) == json.dumps(
            looped, sort_keys=True, default=str
        )

    def test_fault_recovery_identical(self, tmp_path):
        """A rank kill + checkpoint recovery shrinks the machine; the
        backend must survive the shrink with bit-identical results."""
        plan = FaultPlan(events=(FaultEvent(kind="kill", rank=2, iteration=3),))
        outcomes = {}
        for workers in (0, 2):
            sim = Simulation(_cfg(), workers=workers)
            try:
                sim.install_faults(plan)
                result = sim.run(
                    5,
                    checkpoint_every=2,
                    checkpoint_path=tmp_path / f"ck_w{workers}.npz",
                )
                assert result.n_recoveries == 1
                outcomes[workers] = _strip_wall(result.to_dict())
            finally:
                sim.close()
        assert json.dumps(outcomes[0], sort_keys=True, default=str) == json.dumps(
            outcomes[2], sort_keys=True, default=str
        )

    def test_checkpoints_identical_across_worker_counts(self, tmp_path):
        """Checkpoints never record a worker count and their payload is
        bit-identical whichever backend wrote them."""
        paths = {}
        for workers in (0, 2):
            path = tmp_path / f"ck_w{workers}.npz"
            sim = Simulation(_cfg(), workers=workers)
            try:
                sim.run(3)
                sim.checkpoint(path)
            finally:
                sim.close()
            paths[workers] = path
        a, b = np.load(paths[0], allow_pickle=True), np.load(paths[2], allow_pickle=True)
        assert sorted(a.files) == sorted(b.files)
        for key in a.files:
            va, vb = a[key], b[key]
            assert va.dtype == vb.dtype, key
            if va.dtype == object:
                assert repr(va.tolist()) == repr(vb.tolist()), key
            else:
                np.testing.assert_array_equal(vb, va, err_msg=f"checkpoint key {key}")
        a.close()
        b.close()

    def test_resume_across_worker_counts(self, tmp_path):
        """checkpoint with workers=2, resume with workers=0 (and the
        reverse) — both must equal the uninterrupted serial run."""
        cfg = _cfg()
        full = _strip_wall(_result_dict(cfg, 0, niters=6))
        for ck_workers, res_workers in ((2, 0), (0, 2)):
            path = tmp_path / f"ck_{ck_workers}_{res_workers}.npz"
            sim = Simulation(cfg, workers=ck_workers)
            try:
                sim.run(3, checkpoint_every=3, checkpoint_path=path)
            finally:
                sim.close()
            resumed = Simulation.from_checkpoint(path, workers=res_workers)
            try:
                result = resumed.run(3)
                got = _strip_wall(result.to_dict())
            finally:
                resumed.close()
            assert json.dumps(got, sort_keys=True, default=str) == json.dumps(
                full, sort_keys=True, default=str
            ), f"checkpoint workers={ck_workers} resume workers={res_workers}"

    def test_backend_attached_and_released(self):
        sim = Simulation(_cfg(), workers=2)
        assert sim.backend is not None
        pids = set(sim.backend.workers.pids)
        assert pids and pids <= set(live_worker_pids())
        sim.run(1)
        sim.close()
        assert sim.backend is None
        assert not (pids & set(live_worker_pids()))

    def test_context_manager(self):
        with Simulation(_cfg(), workers=2) as sim:
            assert sim.backend is not None
            sim.run(1)
        assert sim.backend is None
