"""Property-based parallel-vs-sequential equivalence sweep.

Hypothesis draws random small configurations (grid shape, particle
count, rank count, indexing scheme, ghost table, decomposition kind)
and asserts that the parallel PIC reproduces the sequential reference —
the strongest single invariant in the library.
"""

import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ParticlePartitioner
from repro.machine import MachineModel, VirtualMachine
from repro.mesh import (
    BlockDecomposition,
    CurveBlockDecomposition,
    Grid2D,
    ScatterDecomposition,
)
from repro.parallel_exec import shared_memory_available
from repro.particles import gaussian_blob, uniform_plasma
from repro.pic import SequentialPIC
from tests.looped_reference import pic_class

_MULTICORE_OK = (
    "fork" in multiprocessing.get_all_start_methods() and shared_memory_available()
)


@st.composite
def configurations(draw):
    nx = draw(st.sampled_from([8, 12, 16]))
    ny = draw(st.sampled_from([8, 10, 16]))
    n = draw(st.integers(16, 400))
    p = draw(st.sampled_from([1, 2, 3, 4, 6]))
    scheme = draw(st.sampled_from(["hilbert", "snake", "rowmajor", "morton"]))
    table = draw(st.sampled_from(["hash", "direct"]))
    decomp_kind = draw(st.sampled_from(["curve", "block", "scatter"]))
    movement = draw(st.sampled_from(["lagrangian", "eulerian"]))
    engine = draw(st.sampled_from(["looped", "flat"]))
    # The multicore backend only exists for the pooled stepper; for the
    # looped oracle (and where fork/shm is unavailable) workers stays 0.
    workers = (
        draw(st.sampled_from([0, 1, 2, 4]))
        if engine == "flat" and _MULTICORE_OK
        else 0
    )
    dist = draw(st.sampled_from(["uniform", "blob"]))
    seed = draw(st.integers(0, 10**6))
    steps = draw(st.integers(1, 4))
    return (nx, ny, n, p, scheme, table, decomp_kind, movement, engine, workers,
            dist, seed, steps)


class TestEquivalenceSweep:
    @given(cfg=configurations())
    @settings(max_examples=25, deadline=None)
    def test_parallel_equals_sequential(self, cfg):
        (nx, ny, n, p, scheme, table, decomp_kind, movement, engine, workers,
         dist, seed, steps) = cfg
        grid = Grid2D(nx, ny)
        sampler = uniform_plasma if dist == "uniform" else gaussian_blob
        particles = sampler(grid, n, rng=seed)

        vm = VirtualMachine(p, MachineModel.cm5())
        if decomp_kind == "curve":
            decomp = CurveBlockDecomposition(grid, p, scheme)
        elif decomp_kind == "block":
            decomp = BlockDecomposition(grid, p)
        else:
            decomp = ScatterDecomposition(grid, p)
        local = ParticlePartitioner(grid, scheme).initial_partition(particles, p)
        pic = pic_class(engine)(
            vm, grid, decomp, local, ghost_table=table, movement=movement,
            workers=workers,
        )
        seq = SequentialPIC(grid, particles.copy(), dt=pic.dt)
        try:
            for _ in range(steps):
                pic.step()
                seq.step()

            par = pic.all_particles()
            assert par.n == seq.particles.n
            po = np.argsort(par.ids)
            so = np.argsort(seq.particles.ids)
            np.testing.assert_allclose(par.x[po], seq.particles.x[so], atol=1e-9)
            np.testing.assert_allclose(par.y[po], seq.particles.y[so], atol=1e-9)
            np.testing.assert_allclose(par.ux[po], seq.particles.ux[so], atol=1e-9)
            np.testing.assert_allclose(pic.fields.ez, seq.fields.ez, atol=1e-9)
            np.testing.assert_allclose(pic.fields.rho, seq.fields.rho, atol=1e-9)
        finally:
            pic.close()


class TestFullMatrix:
    """Deterministic full sweep of stepper x movement x scheme x ranks.

    Every combination of {looped oracle, flat} x {lagrangian, eulerian} x
    {hilbert, snake, morton, rowmajor} x {1, 3, 4} ranks must reproduce
    the sequential reference.  Agreement is pinned at ``atol=1e-12`` —
    far below any physical scale in the run but above the ~1e-16
    summation-order noise of ``bincount`` deposition, which reorders the
    same additions the sequential code performs (true bit-equality holds
    for particle trajectories at p=1 only by accident of that ordering).
    """

    @pytest.mark.parametrize("p", [1, 3, 4])
    @pytest.mark.parametrize("scheme", ["hilbert", "snake", "morton", "rowmajor"])
    @pytest.mark.parametrize("movement", ["lagrangian", "eulerian"])
    @pytest.mark.parametrize("engine", ["looped", "flat"])
    def test_matrix(self, engine, movement, scheme, p):
        grid = Grid2D(16, 12)
        particles = uniform_plasma(grid, 300, rng=7)
        vm = VirtualMachine(p, MachineModel.cm5())
        decomp = CurveBlockDecomposition(grid, p, scheme)
        local = ParticlePartitioner(grid, scheme).initial_partition(particles, p)
        pic = pic_class(engine)(vm, grid, decomp, local, movement=movement)
        seq = SequentialPIC(grid, particles.copy(), dt=pic.dt)
        for _ in range(3):
            pic.step()
            seq.step()

        par = pic.all_particles()
        assert par.n == seq.particles.n
        po = np.argsort(par.ids)
        so = np.argsort(seq.particles.ids)
        np.testing.assert_array_equal(par.ids[po], seq.particles.ids[so])
        for attr in ("x", "y", "ux", "uy", "uz"):
            np.testing.assert_allclose(
                getattr(par, attr)[po],
                getattr(seq.particles, attr)[so],
                atol=1e-12,
                err_msg=f"particle {attr} diverged",
            )
        for field in ("ex", "ey", "ez", "bz", "rho", "jx", "jy"):
            np.testing.assert_allclose(
                getattr(pic.fields, field),
                getattr(seq.fields, field),
                atol=1e-12,
                err_msg=f"field {field} diverged",
            )
