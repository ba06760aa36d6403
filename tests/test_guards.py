"""Tests for invariant guards, the exception taxonomy, and strict loads."""

import json
import warnings

import numpy as np
import pytest

from repro.mesh import FieldState, Grid2D
from repro.particles import uniform_plasma
from repro.pic import Simulation, SimulationConfig
from repro.pic.checkpoint import load_checkpoint
from repro.util.errors import (
    CheckpointError,
    FaultError,
    InvalidRankError,
    MessageLost,
    RankFailure,
    ReproError,
    SimulationIntegrityError,
)
from repro.util.guards import GUARD_MODES, InvariantGuard


@pytest.fixture
def parts(grid):
    p = uniform_plasma(grid, 256, rng=0)
    return [p.take(np.arange(0, 128)), p.take(np.arange(128, 256))]


class TestTaxonomy:
    def test_single_root(self):
        for exc in (
            FaultError,
            RankFailure,
            MessageLost,
            SimulationIntegrityError,
            CheckpointError,
            InvalidRankError,
        ):
            assert issubclass(exc, ReproError)

    def test_fault_family(self):
        assert issubclass(RankFailure, FaultError)
        assert issubclass(MessageLost, FaultError)

    def test_backwards_compatible_value_errors(self):
        # CheckpointError was a ValueError subclass before the taxonomy;
        # existing `except ValueError` call sites must keep catching it.
        assert issubclass(CheckpointError, ValueError)
        assert issubclass(InvalidRankError, ValueError)

    def test_rank_failure_carries_context(self):
        err = RankFailure(3, 7, "scatter")
        assert (err.rank, err.iteration, err.phase) == (3, 7, "scatter")
        assert "rank 3" in str(err)


class TestInvariantGuard:
    def test_mode_validation(self):
        with pytest.raises(ValueError, match="warn|strict"):
            InvariantGuard("off")
        assert GUARD_MODES == ("off", "warn", "strict")

    def test_clean_state_passes(self, parts):
        guard = InvariantGuard("strict")
        guard.capture(parts)
        guard.check_particles(parts, "test")
        assert guard.violations == []

    def test_count_loss_detected(self, parts):
        guard = InvariantGuard("strict")
        guard.capture(parts)
        with pytest.raises(SimulationIntegrityError, match="particle count"):
            guard.check_particles([parts[0]], "test")

    def test_charge_drift_detected(self, parts):
        guard = InvariantGuard("strict")
        guard.capture(parts)
        parts[0].q[:] *= 1.5
        with pytest.raises(SimulationIntegrityError, match="charge"):
            guard.check_particles(parts, "test")

    def test_nan_position_detected(self, parts):
        guard = InvariantGuard("strict")
        guard.capture(parts)
        parts[1].x[0] = np.nan
        with pytest.raises(SimulationIntegrityError, match="non-finite"):
            guard.check_particles(parts, "test")

    def test_field_nan_detected(self, grid):
        guard = InvariantGuard("strict")
        fields = FieldState.zeros(grid)
        fields.rho[3, 4] = np.inf
        with pytest.raises(SimulationIntegrityError, match="rho"):
            guard.check_fields(fields, "test")

    def test_warn_mode_warns_and_continues(self, parts):
        guard = InvariantGuard("warn")
        guard.capture(parts)
        with pytest.warns(UserWarning, match="particle count"):
            guard.check_particles([parts[0]], "test")
        # both the count and the consequent charge violation are recorded
        assert len(guard.violations) == 2  # recorded, not raised

    def test_tiny_reassociation_tolerated(self, parts):
        guard = InvariantGuard("strict")
        guard.capture(parts)
        parts[0].q[0] += 1e-14  # float-reassociation scale noise
        guard.check_particles(parts, "test")
        assert guard.violations == []


class TestSimulationIntegration:
    def _config(self, **kw):
        base = dict(nx=16, ny=8, nparticles=256, p=2, seed=0)
        base.update(kw)
        return SimulationConfig(**base)

    def test_guards_config_validation(self):
        with pytest.raises(ValueError, match="guards"):
            self._config(guards="maybe")

    def test_off_installs_no_guard(self):
        sim = Simulation(self._config(guards="off"))
        assert sim.guard is None and sim.pic.guard is None

    def test_guarded_run_is_clean(self):
        sim = Simulation(self._config(guards="strict"))
        sim.run(3)
        assert sim.guard.violations == []

    def test_guard_catches_live_corruption(self):
        sim = Simulation(self._config(guards="strict"))
        sim.run(1)
        sim.pic.particles[0].x[0] = np.nan
        with pytest.raises(SimulationIntegrityError):
            sim.run(1)

    def test_guard_does_not_change_accounting(self):
        off = Simulation(self._config(guards="off"))
        strict = Simulation(self._config(guards="strict"))
        r_off, r_strict = off.run(4), strict.run(4)
        assert r_off.total_time == r_strict.total_time
        assert off.vm.state_dict() == strict.vm.state_dict()


class TestStrictCheckpointLoad:
    def _write_v1(self, tmp_path, grid):
        parts = uniform_plasma(grid, 64, rng=0)
        fields = FieldState.zeros(grid)
        payload = {
            "version": np.array([1]),
            "meta": np.array([grid.nx, grid.ny, 2, 1], dtype=np.int64),
            "extent": np.array([grid.lx, grid.ly]),
            "rank0_matrix": parts.to_matrix(),
        }
        for name in ("ex", "ey", "ez", "bx", "by", "bz", "jx", "jy", "jz", "rho"):
            payload[f"field_{name}"] = getattr(fields, name)
        path = tmp_path / "legacy.npz"
        np.savez(path, **payload)
        return path

    def test_v1_strict_load_refused(self, tmp_path, grid):
        path = self._write_v1(tmp_path, grid)
        with pytest.raises(CheckpointError, match="format-v1"):
            load_checkpoint(path, strict=True)

    def test_v1_lenient_load_still_warns(self, tmp_path, grid):
        path = self._write_v1(tmp_path, grid)
        with pytest.warns(UserWarning, match="format-v1"):
            data = load_checkpoint(path)
        assert data.version == 1 and data.run_state is None

    def test_from_checkpoint_strict_guards_refuse_v1(self, tmp_path, grid):
        path = self._write_v1(tmp_path, grid)
        with pytest.raises(CheckpointError, match="strict"):
            Simulation.from_checkpoint(path, guards="strict")

    def test_from_checkpoint_guards_override(self, tmp_path):
        sim = Simulation(SimulationConfig(nx=16, ny=8, nparticles=256, p=2, seed=0))
        sim.run(2)
        path = sim.checkpoint(tmp_path / "ck.npz")
        resumed = Simulation.from_checkpoint(path, guards="warn")
        assert resumed.config.guards == "warn"
        assert resumed.guard is not None and resumed.guard.mode == "warn"

    def test_from_checkpoint_guards_validated(self, tmp_path):
        with pytest.raises(ValueError, match="guards"):
            Simulation.from_checkpoint(tmp_path / "nope.npz", guards="loud")


class TestNonFiniteRunFails:
    """A NaN in the state must fail the run, whatever ``guards`` says."""

    @staticmethod
    def _poisoned_sim(**kw):
        sim = Simulation(SimulationConfig(nx=16, ny=8, nparticles=256, p=2, seed=1, **kw))
        sim.pic.particles[0].ux[0] = np.nan
        return sim

    @pytest.mark.parametrize("guards", ["off", "warn"])
    def test_nan_particle_raises_at_end_of_run(self, guards):
        sim = self._poisoned_sim(guards=guards)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # numpy's invalid-value and guard warnings
            with pytest.raises(SimulationIntegrityError, match="ux"):
                sim.run(3)

    def test_poisoned_job_fails_and_is_not_cached(self, tmp_path):
        from repro.service import JobSpec, Scheduler

        job = JobSpec(
            config=dict(nx=16, ny=8, nparticles=256, p=2, seed=1),
            iterations=4,
            name="poisoned",
            fault_plan={"events": [{"kind": "poison", "iteration": 1, "phase": "scatter"}]},
        )
        report = Scheduler(
            workers=1, cache=tmp_path / "cache", workdir=tmp_path / "work", retries=0
        ).run([job])
        assert not report["ok"]
        assert report["jobs"][0]["state"] == "failed"
        assert "non-finite" in json.dumps(report["jobs"][0])
        assert not list((tmp_path / "cache").rglob("*.json"))

    def test_poisoned_last_iteration_fails_on_every_retry(self, tmp_path):
        # the poisoned iteration completes a checkpoint interval: a retry
        # must not resume from a NaN checkpoint at the final iteration
        # and report the job done
        from repro.service import JobSpec, Scheduler

        job = JobSpec(
            config=dict(nx=16, ny=8, nparticles=256, p=2, seed=1),
            iterations=4,
            name="poisoned-last",
            fault_plan={"events": [{"kind": "poison", "iteration": 3, "phase": "scatter"}]},
        )
        sched = Scheduler(workers=1, cache=tmp_path / "cache", workdir=tmp_path / "work")
        assert sched.retries >= 1 and job.iterations % sched.checkpoint_every == 0
        report = sched.run([job])
        assert not report["ok"]
        assert report["jobs"][0]["state"] == "failed"
        assert report["jobs"][0]["attempts"] == sched.retries + 1
        assert not list((tmp_path / "cache").rglob("*.json"))

    def test_nan_state_is_never_checkpointed(self, tmp_path):
        sim = self._poisoned_sim()
        with pytest.raises(SimulationIntegrityError, match="ux"):
            sim.checkpoint(tmp_path / "ck.npz")
        assert not (tmp_path / "ck.npz").exists()
        with pytest.raises(SimulationIntegrityError, match="ux"):
            sim.result()
