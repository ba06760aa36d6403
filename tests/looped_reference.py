"""The per-rank reference PIC stepper: the oracle of the parity tests.

:class:`~repro.pic.parallel.ParallelPIC` runs every phase as one pooled
pass over all ranks' particles.  :class:`LoopedPIC` runs the same phases
the way a message-passing SPMD program would — ``for r in range(p)``,
each rank depositing, interpolating, pushing, and migrating its own
arrays — and charges the virtual machine from inside those loops.  The
two must agree bit-for-bit on ``vm.elapsed()``, ``vm.ops``, every
communication statistic, and the physics (DESIGN.md §4, §5.5).

Only the phases with a per-rank formulation are overridden; the field
solve, pool bookkeeping, and diagnostics are inherited.  Simulation-level
tests swap the oracle in with :func:`use_engine` or :func:`looped_engine`,
which patch the module global that both of ``Simulation``'s stepper
construction sites (initial build and rank-failure rebuild) read.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

import repro.pic.simulation
from repro.machine.collectives import exchange_by_destination
from repro.particles.arrays import ParticleArray
from repro.pic.deposition import CHANNELS, deposition_entries
from repro.pic.interpolation import gather_from_node_values
from repro.pic.parallel import ParallelPIC
from repro.pic.push import boris_push
from repro.util import require

__all__ = ["LoopedPIC", "looped_engine", "pic_class", "use_engine"]


class LoopedPIC(ParallelPIC):
    """Per-rank loops over the same virtual machine; in-process only."""

    def __init__(self, *args, **kwargs) -> None:
        require(
            kwargs.get("backend") is None and kwargs.get("workers", 0) in (0, 1, None),
            "the looped reference runs in-process only",
        )
        super().__init__(*args, **kwargs)
        # Per-rank CIC (nodes, weights) computed by the latest scatter,
        # keyed by particle-array identity; the gather reuses it.
        self._cic_cache: list[tuple[ParticleArray, np.ndarray, np.ndarray]] | None = None

    def scatter(self) -> None:
        """Per-rank reference scatter."""
        vm = self.vm
        grid = self.grid
        nnodes = grid.nnodes
        acc = np.zeros((len(CHANNELS), nnodes))
        sends: list[dict[int, tuple[np.ndarray, np.ndarray]]] = []
        ghost_nodes: list[dict[int, np.ndarray]] = []
        cic_cache: list[tuple[ParticleArray, np.ndarray, np.ndarray]] = []
        nchannels = len(CHANNELS)
        with vm.phase("scatter"):
            table_ops = np.zeros(vm.p)
            for r in range(vm.p):
                parts = self.particles[r]
                vertices = grid.cic_vertices_weights(parts.x, parts.y)
                cic_cache.append((parts, vertices[0], vertices[1]))
                nodes, values = deposition_entries(grid, parts, vertices)
                flat_nodes = nodes.ravel()
                flat_values = values.reshape(nchannels, -1)
                owners = self.node_owner[flat_nodes]
                mine = owners == r
                ghost_idx = np.flatnonzero(~mine)
                if ghost_idx.size:
                    mine_idx = np.flatnonzero(mine)
                    nodes_mine = flat_nodes.take(mine_idx)
                    values_mine = flat_values.take(mine_idx, axis=1)
                else:
                    nodes_mine = flat_nodes
                    values_mine = flat_values
                # On-rank contributions accumulate directly.
                for c in range(nchannels):
                    acc[c] += np.bincount(
                        nodes_mine, weights=values_mine[c], minlength=nnodes
                    )
                chunk: dict[int, tuple[np.ndarray, np.ndarray]] = {}
                ghosts: dict[int, np.ndarray] = {}
                if ghost_idx.size:
                    # Off-rank contributions: duplicate removal + coalescing.
                    table = self.ghost_tables[r]
                    ops_before = table.stats.ops
                    table.accumulate(
                        flat_nodes.take(ghost_idx), flat_values.take(ghost_idx, axis=1)
                    )
                    uniq, summed = table.flush()
                    table_ops[r] = table.stats.ops - ops_before
                    ghost_owner = self.node_owner[uniq]
                    for owner in np.unique(ghost_owner):
                        sel = ghost_owner == owner
                        ids = uniq[sel]
                        chunk[int(owner)] = (ids, np.ascontiguousarray(summed[:, sel]))
                        ghosts[int(owner)] = ids
                sends.append(chunk)
                ghost_nodes.append(ghosts)
            vm.charge_ops("scatter", np.array([4.0 * p.n for p in self.particles]))
            vm.charge_ops("table", table_ops)

            recv = vm.alltoallv(sends)
            merge_ops = np.zeros(vm.p)
            for r in range(vm.p):
                for _, (ids, vals) in sorted(recv[r].items()):
                    for c in range(len(CHANNELS)):
                        acc[c] += np.bincount(ids, weights=vals[c], minlength=nnodes)
                    merge_ops[r] += ids.size
            vm.charge_ops("table", merge_ops)

        self._ghost_nodes = ghost_nodes
        self._cic_cache = cic_cache
        self._finish_scatter(acc)

    def gather_push(self) -> None:
        """Per-rank reference gather + push."""
        vm = self.vm
        grid = self.grid
        node_values = self._field_node_values()
        with vm.phase("gather"):
            recv = vm.alltoallv(self._gather_sends(node_values))
            if self.collect_debug:
                self.last_gather_messages = recv
            vm.charge_ops("gather", np.array([4.0 * p.n for p in self.particles]))
            cached = self._cic_cache
            self._cic_cache = None  # positions change in the push below
            eb = []
            for r in range(vm.p):
                parts = self.particles[r]
                if cached is not None and cached[r][0] is parts:
                    nodes, weights = cached[r][1], cached[r][2]
                else:
                    nodes, weights = grid.cic_vertices_weights(parts.x, parts.y)
                both = gather_from_node_values(node_values, nodes, weights)
                eb.append(both)
        with vm.phase("push"):
            vm.charge_ops("push", np.array([float(p.n) for p in self.particles]))
            for r in range(vm.p):
                parts = self.particles[r]
                if parts.n:
                    boris_push(grid, parts, eb[r][:3], eb[r][3:], self.dt)
        if self.movement == "eulerian":
            self._migrate_eulerian()

    def _migrate_eulerian(self) -> None:
        """Per-rank reference Eulerian migration."""
        vm = self.vm
        with vm.phase("migration"):
            payloads = []
            dests = []
            for r in range(vm.p):
                parts = self.particles[r]
                cells = self.grid.cell_id_of_positions(parts.x, parts.y)
                owner = self.decomp.owner_of_cells(cells)
                payloads.append(parts.to_matrix())
                dests.append(owner)
            vm.charge_ops("index", np.array([float(p.n) for p in self.particles]))
            received = exchange_by_destination(vm, payloads, dests)
            self.particles = [ParticleArray.from_matrix(m) for m in received]
            self._pool = None


def pic_class(engine: str) -> type[ParallelPIC]:
    """The stepper class a parity test's ``engine`` label names."""
    return {"looped": LoopedPIC, "flat": ParallelPIC}[engine]


def use_engine(monkeypatch, engine: str) -> None:
    """Make ``Simulation`` build ``pic_class(engine)`` steppers for this test."""
    monkeypatch.setattr(repro.pic.simulation, "ParallelPIC", pic_class(engine))


@contextlib.contextmanager
def looped_engine():
    """Build every ``Simulation`` stepper inside the block as a :class:`LoopedPIC`."""
    with pytest.MonkeyPatch.context() as mp:
        use_engine(mp, "looped")
        yield
