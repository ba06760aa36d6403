"""Parallel PIC: the four phases SPMD over the virtual machine.

Implements the paper's target configuration — direct **Lagrangian**
particle movement with **independent partitioning** — plus the direct
**Eulerian** alternative for the Table 1 strategy comparison:

* Scatter: each rank deposits its particles' contributions; entries for
  nodes owned by other ranks pass through a ghost table (duplicate
  removal + coalescing into one message per destination) before the
  all-to-many exchange.
* Field solve: one halo exchange of the node fields along subdomain
  boundaries, then the FDTD update, charged per owned node.
* Gather: owners return E and B at exactly the ghost nodes recorded in
  the scatter phase (the paper's "same ghost grid points ... the
  communication behavior is just the inverse of the scatter phase"),
  then each rank interpolates and
* Push: advances its particles (no communication under Lagrangian
  movement; under Eulerian movement particles migrate to the owner of
  their new cell each step).

Field arrays are held once per machine (not once per rank) with
ownership semantics: every value a rank reads across a subdomain
boundary is *physically communicated* first, and the integration tests
assert that the received buffers equal the owners' data and that the
whole parallel run matches :class:`repro.pic.sequential.SequentialPIC`.

Execution
---------
Each phase runs as a *single* vectorized NumPy pass over all ranks'
particles, the way the paper's CM-5 code ran each phase as one
bulk-synchronous data-parallel operation: the particles live in one
:class:`~repro.particles.arrays.ParticlePool` with segment offsets, and
scatter / gather / push / Eulerian migration each run once over the pool
(segmented duplicate removal via rank-offset node keys, one pooled
owner/ghost split, one Boris push).  Per-rank results are recovered by
slicing at segment boundaries, and every op count is still charged per
rank, in rank order.

The per-rank reference implementation — every phase iterating
``for r in range(p)`` over that rank's arrays, as a message-passing SPMD
program would — lives on only as a test oracle
(``tests/looped_reference.py``).  The pooled passes are
**accounting-invariant** against it: the same per-rank op counts in the
same order and byte-identical messages, so ``vm.elapsed()``,
``vm.ops``, all communication statistics, and the physics agree bit for
bit.  ``tests/test_engine_parity.py`` pins this contract.
"""

from __future__ import annotations

import numpy as np

from repro.machine.virtual import VirtualMachine
from repro.mesh.decomposition import MeshDecomposition
from repro.obs.profile import maybe_section
from repro.mesh.fields import FieldState
from repro.mesh.halo import HaloSchedule
from repro.particles.arrays import ParticleArray, ParticlePool
from repro.pic.deposition import CHANNELS
from repro.pic.ghost import make_ghost_table
from repro.pic.interpolation import gather_from_node_values
from repro.pic.maxwell import MaxwellSolver
from repro.pic.poisson import PoissonSolver
from repro.pic.push import boris_push
from repro.pic.smoothing import binomial_smooth
from repro.machine.collectives import alltoall_concat, exchange_by_destination_pooled
from repro.parallel_exec.kernels import scatter_segment
from repro.util import require

__all__ = ["ParallelPIC"]


class ParallelPIC:
    """SPMD PIC stepper on a :class:`VirtualMachine`.

    Parameters
    ----------
    vm:
        The virtual machine (defines ``p`` and the cost model).
    grid:
        Mesh geometry.
    decomp:
        Mesh decomposition (ownership of cells/nodes).
    local_particles:
        Initial per-rank particle sets (length ``vm.p``).
    dt:
        Time step; defaults to 90% of the CFL limit.
    ghost_table:
        Duplicate-removal table kind, ``"hash"`` or ``"direct"``.
    movement:
        ``"lagrangian"`` (fixed assignment; the paper's choice) or
        ``"eulerian"`` (migrate to cell owners every step).
    smoothing_passes:
        Binomial-filter passes on the deposited sources (default 1,
        matching :class:`repro.pic.sequential.SequentialPIC`).  The
        filter is a nearest-neighbour stencil whose halo needs are
        covered by the field-solve exchange; its compute is charged to
        the scatter phase.
    field_solver:
        ``"maxwell"`` (the paper's local FDTD solve with halo exchange)
        or ``"electrostatic"`` (global FFT Poisson solve each step; the
        row/column transpose is physically exchanged through the
        machine — the global-communication pattern of the
        replicated-mesh codes the paper contrasts against).
    workers:
        Number of OS worker processes for the pooled hot kernels
        (0/1 = in-process).  Ignored with a warning when the platform
        cannot support the multicore backend; results are bit-identical
        either way (the three-way parity contract, DESIGN.md §5.5).
    backend:
        An existing :class:`~repro.parallel_exec.FlatBackend` to execute
        on (shared across recoveries by :class:`~repro.pic.simulation.Simulation`);
        mutually exclusive with ``workers``.  The caller keeps ownership.
    collect_debug:
        When True, retain the most recent halo / gather deliveries in
        ``last_halo`` / ``last_gather_messages`` for tests that verify
        communicated values equal the owners' data.  Off by default so
        benchmarks and long runs do not hold per-step communication
        buffers alive.
    """

    def __init__(
        self,
        vm: VirtualMachine,
        grid,
        decomp: MeshDecomposition,
        local_particles: list[ParticleArray],
        *,
        dt: float | None = None,
        ghost_table: str = "hash",
        movement: str = "lagrangian",
        smoothing_passes: int = 1,
        field_solver: str = "maxwell",
        workers: int = 0,
        backend=None,
        collect_debug: bool = False,
    ) -> None:
        require(len(local_particles) == vm.p, "need one particle set per rank")
        require(decomp.p == vm.p, "decomposition and machine rank counts differ")
        require(movement in ("lagrangian", "eulerian"), f"unknown movement {movement!r}")
        require(smoothing_passes >= 0, "smoothing_passes must be >= 0")
        require(
            field_solver in ("maxwell", "electrostatic"),
            f"unknown field_solver {field_solver!r}",
        )
        self._owns_backend = False
        if backend is None and workers not in (0, 1, None):
            from repro.parallel_exec import create_backend

            backend = create_backend(workers, grid)
            self._owns_backend = backend is not None
        #: multicore execution backend (None = in-process kernels)
        self.backend = backend
        self.smoothing_passes = smoothing_passes
        self.field_solver = field_solver
        self.vm = vm
        self.grid = grid
        self.decomp = decomp
        self.particles = list(local_particles)
        self.movement = movement
        self.collect_debug = collect_debug
        self.fields = FieldState.zeros(grid)
        self.solver = MaxwellSolver(grid)
        self.poisson = PoissonSolver(grid) if field_solver == "electrostatic" else None
        self.dt = dt if dt is not None else 0.9 * self.solver.cfl_limit()
        self.solver.validate_dt(self.dt)
        self.halo = HaloSchedule(decomp)
        self.ghost_tables = [
            make_ghost_table(ghost_table, grid.nnodes, len(CHANNELS)) for _ in range(vm.p)
        ]
        self.node_owner = decomp.owner_map
        self.node_counts = decomp.node_counts().astype(float)
        self.iteration = 0
        #: optional :class:`repro.util.guards.InvariantGuard` checked at
        #: the phase boundaries of :meth:`step`; ``None`` (default) keeps
        #: the hot path free of guard work.
        self.guard = None
        #: optional :class:`repro.obs.profile.PhaseProfiler` opening
        #: host-wall sections around the pooled kernels; ``None``
        #: (default) keeps one dormant branch per kernel call.  The
        #: profiler never touches the virtual clocks (DESIGN.md §5.8).
        self.profiler = None
        # Ghost schedule of the latest scatter: _ghost_nodes[r][owner] =
        # node ids rank r contributed to that are owned by `owner`.
        self._ghost_nodes: list[dict[int, np.ndarray]] = [dict() for _ in range(vm.p)]
        # The particle pool (lazily rebuilt whenever self.particles is
        # replaced from outside, e.g. by the redistributor) and the pooled
        # CIC (nodes, weights) of the latest scatter.  Particle positions
        # do not change between scatter and gather (the push runs after
        # the gather), so the gather reuses the scatter's vertex
        # evaluation; the cache is dropped once consumed.
        self._pool: ParticlePool | None = None
        self._cic_pool_cache: tuple[ParticlePool, np.ndarray, np.ndarray] | None = None
        # Test hooks (populated only when collect_debug=True): the most
        # recent halo / gather deliveries, for verifying that
        # communicated values equal the owners' data.
        self.last_halo: list[dict[int, np.ndarray]] = []
        self.last_gather_messages: list[dict[int, tuple[np.ndarray, np.ndarray]]] = []

    # ------------------------------------------------------------------
    # particle-pool management
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ParticlePool:
        """Return the current particle pool, rebuilding it if stale.

        ``self.particles`` is public API: the simulation driver swaps in
        redistributed particle lists between steps.  The pool is valid
        only while ``self.particles`` are exactly its segment views, so
        any external replacement triggers one concatenation rebuild here
        (O(n) copy — everything downstream is views again).  With a
        multicore backend the rebuilt pool's columns live in shared
        memory so worker-side in-place kernels mutate the same pages.
        """
        pool = self._pool
        if pool is not None and pool.owns(self.particles):
            return pool
        if self.backend is not None:
            pool = self.backend.pool_from_ranks(self.particles)
        else:
            pool = ParticlePool.from_ranks(self.particles)
        self._pool = pool
        self.particles = list(pool.views)
        self._cic_pool_cache = None
        return pool

    def _install_pool(self, pool: ParticlePool) -> None:
        """Adopt a freshly built pool (post-migration)."""
        self._pool = pool
        self.particles = list(pool.views)
        self._cic_pool_cache = None

    # ------------------------------------------------------------------
    # scatter phase
    # ------------------------------------------------------------------
    def scatter(self) -> None:
        """Deposit rho and J with ghost-point communication.

        One pass over the pool deposits every rank's particles.  Each
        exchanged message carries the (ids, values) payload of that
        rank's ghost table: the pooled duplicate removal keeps entries
        in per-rank order inside the pool, so it reproduces each rank's
        table output bit-for-bit.

        Deposition accumulates into one owner-keyed ``(channels,
        nnodes)`` array: each node's on-rank sum comes from its owning
        rank alone, in pool order, and ghost messages merge in rank
        order, so the accumulated channels equal a per-rank SPMD
        deposition bit-for-bit — and do not depend on how a multicore
        backend shards the pool across workers.
        """
        vm = self.vm
        grid = self.grid
        nnodes = grid.nnodes
        p = vm.p
        nchannels = len(CHANNELS)
        pool = self._ensure_pool()
        counts = pool.counts
        sends: list[dict[int, tuple[np.ndarray, np.ndarray]]] = [dict() for _ in range(p)]
        ghost_nodes: list[dict[int, np.ndarray]] = [dict() for _ in range(p)]
        backend = self.backend
        prof = self.profiler
        with vm.phase("scatter"):
            with maybe_section(prof, "deposit"):
                if backend is not None:
                    acc, entries_per_rank, uniq_per_rank, messages = backend.scatter(
                        pool, self.node_owner, nnodes
                    )
                    # each worker holds its segment's CIC evaluation locally
                    self._cic_pool_cache = None
                else:
                    acc = np.empty((nchannels, nnodes))
                    vertices, entries_per_rank, uniq_per_rank, messages = scatter_segment(
                        grid, pool.array, counts, 0, self.node_owner, nnodes, acc
                    )
                    self._cic_pool_cache = (pool, vertices[0], vertices[1])

            table_ops = np.zeros(p)
            for r in np.flatnonzero(entries_per_rank):
                table_ops[r] = self.ghost_tables[r].account_pooled(
                    int(entries_per_rank[r]), int(uniq_per_rank[r])
                )
            for r in range(p):
                for owner, ids, vals in messages[r]:
                    sends[r][owner] = (ids, vals)
                    ghost_nodes[r][owner] = ids
            vm.charge_ops("scatter", 4.0 * counts.astype(float))
            vm.charge_ops("table", table_ops)

            with maybe_section(prof, "ghost_merge"):
                recv = vm.alltoallv(sends)
                # Merge received ghost contributions in SPMD order —
                # destinations in rank order, sources sorted.  Ids
                # are unique within a message, so an in-place fancy-index
                # add equals its full-width bincount bit-for-bit.
                merge_ops = np.zeros(p)
                for r in range(p):
                    for _, (ids, vals) in sorted(recv[r].items()):
                        acc[:, ids] += vals
                        merge_ops[r] += ids.size
                vm.charge_ops("table", merge_ops)

        self._ghost_nodes = ghost_nodes
        self._finish_scatter(acc)

    def _finish_scatter(self, acc: np.ndarray) -> None:
        """Scale, smooth, and install the deposited sources."""
        vm = self.vm
        grid = self.grid
        scale = 1.0 / (grid.dx * grid.dy)
        shaped = (acc * scale).reshape(len(CHANNELS), grid.ny, grid.nx)
        k = self.smoothing_passes
        if k:
            with vm.phase("scatter"):
                # nearest-neighbour filter: one op per node per channel/pass
                vm.charge_ops("field", self.node_counts * len(CHANNELS) * k)
        self.fields.rho = binomial_smooth(shaped[0], k)
        self.fields.jx = binomial_smooth(shaped[1], k)
        self.fields.jy = binomial_smooth(shaped[2], k)
        self.fields.jz = binomial_smooth(shaped[3], k)

    # ------------------------------------------------------------------
    # field-solve phase
    # ------------------------------------------------------------------
    def field_solve(self) -> None:
        """Advance the fields: local FDTD (default) or global Poisson."""
        if self.field_solver == "electrostatic":
            self._field_solve_electrostatic()
        else:
            self._field_solve_maxwell()

    def _field_solve_maxwell(self) -> None:
        """Halo exchange of the node fields, then the FDTD update."""
        vm = self.vm
        with vm.phase("field"):
            node_values = self._field_node_values()
            halo_recv = self.halo.exchange(vm, node_values, ncomponents=6)
            if self.collect_debug:
                self.last_halo = halo_recv
            vm.charge_ops("field", self.node_counts)
            self.solver.step(self.fields, self.dt)

    def _field_solve_electrostatic(self) -> None:
        """Global FFT Poisson solve with a physically-exchanged transpose.

        A distributed 2-D FFT over row-block storage needs one global
        transpose in each direction; we exchange the real row-block
        pieces of rho through the machine (an all-to-all of ``m / p^2``
        blocks) before and after the solve, charging the FFT's
        ``O((m / p) log m)`` butterflies per rank.
        """
        vm = self.vm
        grid = self.grid
        with vm.phase("field"):
            # all-to-all transpose of the row-blocked rho, both ways
            row_bounds = np.linspace(0, grid.ny, vm.p + 1).astype(int)
            col_bounds = np.linspace(0, grid.nx, vm.p + 1).astype(int)
            send: list[dict[int, np.ndarray]] = []
            for r in range(vm.p):
                rows = self.fields.rho[row_bounds[r] : row_bounds[r + 1]]
                chunk = {
                    dst: np.ascontiguousarray(rows[:, col_bounds[dst] : col_bounds[dst + 1]])
                    for dst in range(vm.p)
                    if rows.size and col_bounds[dst + 1] > col_bounds[dst]
                }
                send.append(chunk)
            vm.alltoallv(send)  # forward transpose
            vm.alltoallv(send)  # inverse transpose (same volume)
            m = grid.nnodes
            vm.charge_ops("field", (m / vm.p) * np.log2(max(m, 2)) / 4.0)
            phi = self.poisson.solve_fft(self.fields.rho)
            self.fields.ex, self.fields.ey = self.poisson.electric_field(phi)

    def _field_node_values(self) -> np.ndarray:
        f = self.fields
        return np.stack(
            [
                f.ex.ravel(),
                f.ey.ravel(),
                f.ez.ravel(),
                f.bx.ravel(),
                f.by.ravel(),
                f.bz.ravel(),
            ]
        )

    # ------------------------------------------------------------------
    # gather + push phases
    # ------------------------------------------------------------------
    def _gather_sends(
        self, node_values: np.ndarray
    ) -> list[dict[int, tuple[np.ndarray, np.ndarray]]]:
        """Inverse of the scatter exchange: owners send E, B at the
        ghost nodes each contributor registered this iteration."""
        sends: list[dict[int, tuple[np.ndarray, np.ndarray]]] = [
            dict() for _ in range(self.vm.p)
        ]
        for r in range(self.vm.p):
            for owner, ids in self._ghost_nodes[r].items():
                sends[owner][r] = (ids, np.ascontiguousarray(node_values[:, ids]))
        return sends

    def gather_push(self) -> None:
        """Return ghost-node fields to contributors, interpolate, push.

        Owners send E and B back along the scatter's ``_ghost_nodes``
        schedule; interpolation and the Boris push are per-particle
        independent, so running them once over the pool is
        bit-identical to per-rank execution.
        """
        vm = self.vm
        grid = self.grid
        pool = self._ensure_pool()
        backend = self.backend
        prof = self.profiler
        node_values = self._field_node_values()
        eb = None
        with vm.phase("gather"):
            recv = vm.alltoallv(self._gather_sends(node_values))
            if self.collect_debug:
                self.last_gather_messages = recv
            vm.charge_ops("gather", 4.0 * pool.counts.astype(float))
            if backend is None:
                with maybe_section(prof, "interpolate"):
                    cached = self._cic_pool_cache
                    self._cic_pool_cache = None  # positions change in the push below
                    if cached is not None and cached[0] is pool:
                        nodes, weights = cached[1], cached[2]
                    else:
                        nodes, weights = grid.cic_vertices_weights(pool.array.x, pool.array.y)
                    eb = gather_from_node_values(node_values, nodes, weights)
        with vm.phase("push"):
            vm.charge_ops("push", pool.counts.astype(float))
            with maybe_section(prof, "boris_push"):
                if backend is not None:
                    # workers interpolate + push their pool slices in place,
                    # reusing each slice's scatter-time CIC evaluation
                    backend.gather_push(pool, node_values, self.dt)
                elif pool.n:
                    boris_push(grid, pool.array, eb[:3], eb[3:], self.dt)
        if self.movement == "eulerian":
            self._migrate_eulerian()

    def set_decomposition(self, decomp: MeshDecomposition) -> None:
        """Install a new mesh decomposition (adaptive rebalancing).

        The caller is responsible for having migrated field node values
        and particles (see :class:`repro.core.adaptive.AdaptiveMeshRebalancer`);
        this method refreshes the ownership map, node counts, and halo
        schedule.
        """
        require(decomp.p == self.vm.p, "decomposition and machine rank counts differ")
        require(decomp.grid is self.grid or decomp.grid.shape == self.grid.shape,
                "decomposition must cover the same grid")
        self.decomp = decomp
        self.node_owner = decomp.owner_map
        self.node_counts = decomp.node_counts().astype(float)
        self.halo = HaloSchedule(decomp)

    def _migrate_eulerian(self) -> None:
        """Move particles to the owner of their (new) cell.

        Pooled: one owner lookup, one sorted exchange.

        With a multicore backend the owner lookup, per-segment stable
        destination sort, and transport-matrix packing all run in the
        workers; the send dicts they produce are byte-identical to
        :func:`exchange_by_destination_pooled`'s partitioning, so the
        machine sees the same messages either way.
        """
        vm = self.vm
        backend = self.backend
        prof = self.profiler
        with vm.phase("migration"):
            pool = self._ensure_pool()
            if backend is not None:
                vm.charge_ops("index", pool.counts.astype(float))
                with maybe_section(prof, "partition"):
                    sends = backend.migration_sends(pool, self.decomp.owner_map)
                with maybe_section(prof, "exchange"):
                    received = alltoall_concat(vm, sends)
                    self._install_pool(backend.pool_from_matrices(received))
            else:
                with maybe_section(prof, "partition"):
                    parts = pool.array
                    cells = self.grid.cell_id_of_positions(parts.x, parts.y)
                    owner = self.decomp.owner_of_cells(cells)
                    matrix = parts.to_matrix()
                vm.charge_ops("index", pool.counts.astype(float))
                with maybe_section(prof, "exchange"):
                    received = exchange_by_destination_pooled(vm, matrix, owner, pool.offsets)
                    self._install_pool(ParticlePool.from_matrices(received))

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the multicore backend if this stepper created it.

        Backends passed in via ``backend=`` belong to their creator
        (:class:`~repro.pic.simulation.Simulation` keeps one across
        rank-failure recoveries) and are left running.
        """
        if self._owns_backend and self.backend is not None:
            self.backend.close()
        self.backend = None

    # ------------------------------------------------------------------
    def step(self) -> None:
        """One full iteration: scatter, field solve, gather, push.

        When an invariant guard is installed it runs after the scatter
        (deposited sources must be finite) and after the push (particles
        conserved and finite) — the two points where transport faults or
        kernel bugs would otherwise silently poison the physics.
        """
        guard = self.guard
        self.scatter()
        if guard is not None:
            guard.after_scatter(self)
        self.field_solve()
        self.gather_push()
        if guard is not None:
            guard.after_push(self)
        self.iteration += 1

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def all_particles(self) -> ParticleArray:
        """All particles concatenated (rank order) — for verification."""
        return ParticleArray.concat(self.particles)

    def total_energy(self) -> float:
        """Field energy plus particle kinetic energy."""
        kinetic = sum(p.kinetic_energy() for p in self.particles)
        return self.fields.field_energy(self.grid) + kinetic

    def __repr__(self) -> str:
        return (
            f"ParallelPIC(p={self.vm.p}, grid={self.grid!r}, "
            f"n={sum(p.n for p in self.particles)}, movement={self.movement!r})"
        )
