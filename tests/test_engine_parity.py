"""Looped-vs-flat parity: the accounting-invariance contract.

:class:`~repro.pic.parallel.ParallelPIC` ("flat") replaces the
``for r in range(p)`` phase loops of the per-rank reference stepper
(``looped``, the test oracle :class:`tests.looped_reference.LoopedPIC`)
with single pooled kernels, but the virtual machine must not be able to
tell the difference: identical virtual time, identical per-category op
counts, identical per-rank clocks, and identical per-phase message
statistics.  Physical state (particles, fields) is pinned at
``atol=1e-12``; the flat scatter uses the oracle's per-rank deposition
association, so the two actually agree bit-for-bit, and the multicore
backend (``workers=N``) is *required* to: sharding may never perturb a
single bit of state or accounting (DESIGN.md §5.5).

The obsolete ``engine`` config key is covered here too: old configs,
job specs, and checkpoints that still carry it must keep loading.
"""

import multiprocessing

import numpy as np
import pytest

from repro.core import ParticlePartitioner
from repro.machine import MachineModel, VirtualMachine
from repro.mesh import CurveBlockDecomposition, Grid2D
from repro.parallel_exec import shared_memory_available
from repro.particles import ParticleArray, ParticlePool, gaussian_blob, uniform_plasma
from repro.pic import Simulation, SimulationConfig, config_from_dict, config_to_dict
from repro.service import JobSpec
from tests.looped_reference import looped_engine, pic_class

needs_multicore = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods()
    or not shared_memory_available(),
    reason="fork or multiprocessing.shared_memory unavailable",
)


def _build(engine, *, p=6, movement="lagrangian", ghost_table="hash",
           field_solver="maxwell", n=1200, rng=21, **kwargs):
    grid = Grid2D(24, 16)
    particles = gaussian_blob(grid, n, rng=rng)
    vm = VirtualMachine(p, MachineModel.cm5())
    decomp = CurveBlockDecomposition(grid, p, "hilbert")
    local = ParticlePartitioner(grid, "hilbert").initial_partition(particles, p)
    pic = pic_class(engine)(
        vm, grid, decomp, local,
        movement=movement, ghost_table=ghost_table,
        field_solver=field_solver, **kwargs,
    )
    return vm, pic


def _assert_accounting_equal(vm_l, vm_f):
    assert vm_f.elapsed() == vm_l.elapsed()
    np.testing.assert_array_equal(vm_f.clocks, vm_l.clocks)
    np.testing.assert_array_equal(vm_f.compute_time, vm_l.compute_time)
    np.testing.assert_array_equal(vm_f.comm_time, vm_l.comm_time)
    assert vm_f.ops.as_dict() == vm_l.ops.as_dict()
    assert set(vm_f.phase_time) == set(vm_l.phase_time)
    for name in vm_l.phase_time:
        np.testing.assert_array_equal(vm_f.phase_time[name], vm_l.phase_time[name])
    assert vm_f.stats.phases() == vm_l.stats.phases()
    for name in vm_l.stats.phases():
        rec_l, rec_f = vm_l.stats.phase(name), vm_f.stats.phase(name)
        for attr in ("msgs_sent", "msgs_recv", "bytes_sent", "bytes_recv"):
            np.testing.assert_array_equal(
                getattr(rec_f, attr), getattr(rec_l, attr),
                err_msg=f"phase {name}: {attr} differs between engines",
            )


class TestAccountingInvariance:
    """vm.elapsed(), vm.ops, and comm stats must agree to the last bit."""

    @pytest.mark.parametrize("ghost_table", ["hash", "direct"])
    @pytest.mark.parametrize("movement", ["lagrangian", "eulerian"])
    def test_movement_and_table_matrix(self, movement, ghost_table):
        vm_l, pic_l = _build("looped", movement=movement, ghost_table=ghost_table)
        vm_f, pic_f = _build("flat", movement=movement, ghost_table=ghost_table)
        for _ in range(4):
            pic_l.step()
            pic_f.step()
        _assert_accounting_equal(vm_l, vm_f)

    @pytest.mark.parametrize("p", [1, 2, 7, 16])
    def test_rank_counts(self, p):
        vm_l, pic_l = _build("looped", p=p)
        vm_f, pic_f = _build("flat", p=p)
        for _ in range(3):
            pic_l.step()
            pic_f.step()
        _assert_accounting_equal(vm_l, vm_f)

    def test_electrostatic_solver(self):
        vm_l, pic_l = _build("looped", field_solver="electrostatic")
        vm_f, pic_f = _build("flat", field_solver="electrostatic")
        for _ in range(3):
            pic_l.step()
            pic_f.step()
        _assert_accounting_equal(vm_l, vm_f)

    def test_ghost_table_stats_match(self):
        vm_l, pic_l = _build("looped")
        vm_f, pic_f = _build("flat")
        for _ in range(3):
            pic_l.step()
            pic_f.step()
        for tl, tf in zip(pic_l.ghost_tables, pic_f.ghost_tables):
            assert tf.stats.entries == tl.stats.entries
            assert tf.stats.unique_nodes == tl.stats.unique_nodes
            assert tf.stats.ops == tl.stats.ops


class TestPhysicalParity:
    """Particles and fields agree between engines at 1e-12."""

    @pytest.mark.parametrize("movement", ["lagrangian", "eulerian"])
    def test_state_matches(self, movement):
        _, pic_l = _build("looped", movement=movement)
        _, pic_f = _build("flat", movement=movement)
        for _ in range(5):
            pic_l.step()
            pic_f.step()
        par_l, par_f = pic_l.all_particles(), pic_f.all_particles()
        assert par_f.n == par_l.n
        ol, of = np.argsort(par_l.ids), np.argsort(par_f.ids)
        np.testing.assert_array_equal(par_f.ids[of], par_l.ids[ol])
        for attr in ("x", "y", "ux", "uy", "uz"):
            np.testing.assert_allclose(
                getattr(par_f, attr)[of], getattr(par_l, attr)[ol], atol=1e-12,
                err_msg=f"particle {attr} diverged between engines",
            )
        for field in ("ex", "ey", "ez", "bx", "by", "bz", "rho", "jx", "jy", "jz"):
            np.testing.assert_allclose(
                getattr(pic_f.fields, field), getattr(pic_l.fields, field),
                atol=1e-12, err_msg=f"field {field} diverged between engines",
            )

    def test_ghost_schedule_identical(self):
        """The flat scatter's message schedule equals the looped one's."""
        _, pic_l = _build("looped")
        _, pic_f = _build("flat")
        pic_l.scatter()
        pic_f.scatter()
        for gl, gf in zip(pic_l._ghost_nodes, pic_f._ghost_nodes):
            assert sorted(gl) == sorted(gf)
            for owner in gl:
                np.testing.assert_array_equal(gf[owner], gl[owner])


class TestMulticoreParity:
    """flat+workers must be *bit-identical* to serial flat — accounting
    AND physical state — for every worker count (DESIGN.md §5.5)."""

    def _assert_state_identical(self, pic_a, pic_b):
        par_a, par_b = pic_a.all_particles(), pic_b.all_particles()
        assert par_b.n == par_a.n
        oa, ob = np.argsort(par_a.ids), np.argsort(par_b.ids)
        np.testing.assert_array_equal(par_b.ids[ob], par_a.ids[oa])
        for attr in ("x", "y", "ux", "uy", "uz"):
            np.testing.assert_array_equal(
                getattr(par_b, attr)[ob], getattr(par_a, attr)[oa],
                err_msg=f"particle {attr} not bit-identical across worker counts",
            )
        for field in ("ex", "ey", "ez", "bx", "by", "bz", "rho"):
            np.testing.assert_array_equal(
                getattr(pic_b.fields, field), getattr(pic_a.fields, field),
                err_msg=f"field {field} not bit-identical across worker counts",
            )

    @needs_multicore
    @pytest.mark.parametrize("movement", ["lagrangian", "eulerian"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_workers_bit_identical(self, workers, movement):
        vm_s, pic_s = _build("flat", movement=movement)
        vm_w, pic_w = _build("flat", movement=movement, workers=workers)
        try:
            for _ in range(4):
                pic_s.step()
                pic_w.step()
            _assert_accounting_equal(vm_s, vm_w)
            self._assert_state_identical(pic_s, pic_w)
        finally:
            pic_w.close()

    @needs_multicore
    def test_three_way_accounting(self):
        """looped ≡ flat ≡ flat+workers on the same virtual machine run."""
        vm_l, pic_l = _build("looped")
        vm_f, pic_f = _build("flat")
        vm_w, pic_w = _build("flat", workers=2)
        try:
            for _ in range(4):
                pic_l.step()
                pic_f.step()
                pic_w.step()
            _assert_accounting_equal(vm_l, vm_f)
            _assert_accounting_equal(vm_l, vm_w)
            self._assert_state_identical(pic_f, pic_w)
        finally:
            pic_w.close()

    @needs_multicore
    def test_workers_survive_repartition(self):
        """Pool rebuilds (redistribution-style) keep worker runs identical."""
        _, pic_s = _build("flat")
        _, pic_w = _build("flat", workers=2)
        try:
            for _ in range(2):
                pic_s.step()
                pic_w.step()
            pic_s.particles = [p.copy() for p in pic_s.particles]
            pic_w.particles = [p.copy() for p in pic_w.particles]
            for _ in range(2):
                pic_s.step()
                pic_w.step()
            self._assert_state_identical(pic_s, pic_w)
        finally:
            pic_w.close()


class TestPaperScaleParity:
    """The three-way contract at the Figure 17 configuration (p = 128 on
    the 128x64 mesh), where the dense per-rank structures the smaller
    tests cannot exercise would show."""

    @staticmethod
    def _run(workers):
        cfg = SimulationConfig(
            nx=128, ny=64, nparticles=32768, p=128, distribution="irregular",
            scheme="hilbert", movement="lagrangian", policy="periodic:2",
        )
        sim = Simulation(cfg, workers=workers)
        try:
            sim.run(4)
            return (
                sim.vm.elapsed(),
                sim.vm.ops.as_dict(),
                sim.pic.fields.rho.tobytes(),
                sim.pic.fields.jx.tobytes(),
                sim.final_state_summary(),
            )
        finally:
            sim.close()

    @needs_multicore
    def test_fig17_p128_looped_flat_workers(self):
        with looped_engine():
            looped = self._run(0)
        assert self._run(0) == looped
        assert self._run(2) == looped


class TestPoolLifecycle:
    def test_pool_survives_external_reassignment(self):
        """Replacing pic.particles (as the redistributor does) must
        trigger a pool rebuild, not stale reads."""
        _, pic = _build("flat")
        pic.step()
        pool_before = pic._pool
        assert pool_before is not None and pool_before.owns(pic.particles)
        # Redistribution swaps in brand-new per-rank arrays.
        pic.particles = [p.copy() for p in pic.particles]
        assert not pool_before.owns(pic.particles)
        pic.step()
        assert pic._pool is not pool_before
        assert pic._pool.owns(pic.particles)

    def test_pool_round_trip(self):
        grid = Grid2D(8, 8)
        particles = uniform_plasma(grid, 200, rng=5)
        parts = [particles.take(np.arange(i * 50, (i + 1) * 50)) for i in range(4)]
        pool = ParticlePool.from_ranks(parts)
        assert pool.p == 4 and pool.n == 200
        np.testing.assert_array_equal(pool.counts, [50, 50, 50, 50])
        for r in range(4):
            np.testing.assert_array_equal(pool.views[r].ids, parts[r].ids)
            np.testing.assert_array_equal(pool.views[r].x, parts[r].x)
        assert pool.owns(list(pool.views))
        assert not pool.owns(parts)

    def test_empty_segments(self):
        parts = [ParticleArray.empty(0) for _ in range(3)]
        pool = ParticlePool.from_ranks(parts)
        assert pool.n == 0
        np.testing.assert_array_equal(pool.counts, [0, 0, 0])


class TestDebugHooks:
    def test_hooks_empty_by_default(self):
        _, pic = _build("flat")
        pic.step()
        assert pic.last_halo == []
        assert pic.last_gather_messages == []

    @pytest.mark.parametrize("engine", ["looped", "flat"])
    def test_hooks_populated_when_requested(self, engine):
        vm, pic = _build(engine, collect_debug=True)
        pic.step()
        assert len(pic.last_gather_messages) == vm.p
        assert len(pic.last_halo) == vm.p


class TestValidation:
    """The ``engine`` key of older configs is dropped, not honoured."""

    _LEGACY = dict(nx=16, ny=8, nparticles=256, p=2, seed=1)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            config_from_dict(dict(self._LEGACY, engine="pooled"))

    @pytest.mark.parametrize("engine", ["flat", "looped"])
    def test_legacy_engine_key_dropped(self, engine):
        with pytest.warns(FutureWarning, match="engine"):
            cfg = config_from_dict(dict(self._LEGACY, engine=engine))
        assert cfg == config_from_dict(self._LEGACY)
        assert "engine" not in config_to_dict(cfg)

    def test_job_spec_accepts_legacy_engine_key(self):
        with pytest.warns(FutureWarning, match="engine"):
            legacy = JobSpec.from_dict(
                {"config": dict(self._LEGACY, engine="looped"), "iterations": 2}
            )
        current = JobSpec.from_dict({"config": dict(self._LEGACY), "iterations": 2})
        assert legacy.config == current.config
        assert legacy.key == current.key

    def test_checkpoint_with_legacy_engine_key_resumes(self, tmp_path, monkeypatch):
        import repro.pic.simulation as simulation
        from repro.pic.checkpoint import load_checkpoint

        cfg = SimulationConfig(**self._LEGACY, distribution="irregular", policy="dynamic")
        full = Simulation(cfg)
        full.run(6)
        sim = Simulation(cfg)
        sim.run(3)
        with monkeypatch.context() as mp:
            # write the checkpoint as an older release did: config with "engine"
            mp.setattr(
                simulation, "config_to_dict",
                lambda c, **kw: dict(config_to_dict(c, **kw), engine="looped"),
            )
            path = sim.checkpoint(tmp_path / "legacy.npz")
        assert load_checkpoint(path).run_state["config"]["engine"] == "looped"
        with pytest.warns(FutureWarning, match="engine"):
            resumed = Simulation.from_checkpoint(path)
        resumed.run(3)
        assert resumed.final_state_summary() == full.final_state_summary()
