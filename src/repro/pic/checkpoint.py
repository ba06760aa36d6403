"""Exact-resume checkpoint / restart of simulation state (format v2).

A **v2 checkpoint** round-trips the *full* run state of a
:class:`~repro.pic.simulation.Simulation`, not just the physical state:

* physical state — per-rank :class:`~repro.particles.arrays.ParticleArray`
  matrices, the complete :class:`~repro.mesh.fields.FieldState`, grid
  geometry, and the iteration counter;
* machine state — the :class:`~repro.machine.virtual.VirtualMachine`'s
  per-rank clocks, compute/comm splits, per-phase time tables, per-phase
  :class:`~repro.machine.stats.CommStats`, and op counters;
* control state — the full :class:`~repro.pic.simulation.SimulationConfig`
  (including the machine model constants), the redistribution policy's
  internals (:class:`~repro.core.policies.DynamicSARPolicy` window and
  ``T_redistribution``), the decomposition's curve bounds (which adaptive
  rebalancing moves at runtime), the redistributor's build-time sort keys
  (which the incremental sort classifies against), and the per-iteration
  record history.  Each record carries its per-phase ``phase_time`` row,
  so a resumed run's ``SimulationResult.trace`` covers the full history,
  not just the post-resume tail.  Checkpoints written before records
  carried that row keep the rows in a parallel ``trace_rows`` list, which
  still loads: its rows are attached to the records when the two lists
  have the same length.

The exact-resume contract (pinned by ``tests/test_resume_equivalence.py``
and DESIGN.md §5.2): a run checkpointed at iteration ``k`` via
``Simulation.checkpoint`` and resumed via ``Simulation.from_checkpoint``
produces a ``SimulationResult`` — virtual times, per-phase breakdowns,
scatter comm-stat series, redistribution schedule and costs — *identical*
to the uninterrupted run, and the physical state matches at atol=0.

Writes are crash-safe: the archive is written to a temporary file in the
target directory and atomically installed with :func:`os.replace`, so an
interrupted write never leaves a file that :func:`load_checkpoint`
accepts.  Loading validates the format marker, version, and key set, and
raises :class:`CheckpointError` with the expected-vs-found key diff on
corrupt or truncated archives.

**v1 compatibility**: format-v1 files (particles / fields / iteration
only, written before this module serialized run state) still load — with
a :class:`UserWarning` — as a :class:`CheckpointData` whose ``run_state``
is ``None``.  They cannot seed ``Simulation.from_checkpoint``, which
needs the full v2 payload.
"""

from __future__ import annotations

import json
import warnings
import zipfile
from pathlib import Path

import numpy as np

from repro.mesh.fields import FieldState
from repro.mesh.grid import Grid2D
from repro.particles.arrays import ParticleArray
from repro.util import require
from repro.util.atomic_io import atomic_writer
from repro.util.errors import CheckpointError

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointData",
    "CheckpointError",
]

_FIELD_NAMES = ("ex", "ey", "ez", "bx", "by", "bz", "jx", "jy", "jz", "rho")
_FORMAT_VERSION = 2
_MAGIC = "repro-checkpoint"


class CheckpointData:
    """In-memory form of a checkpoint (what :func:`load_checkpoint` returns).

    ``run_state`` carries the v2 exact-resume payload (config, machine,
    policy, records, decomposition bounds) as a JSON-compatible dict;
    it is ``None`` for v1 files.  ``sort_keys`` are the redistributor's
    per-rank build-time keys (``None`` when the run had no redistributor
    or the file is v1).
    """

    def __init__(
        self,
        grid: Grid2D,
        fields: FieldState,
        particles: list[ParticleArray],
        iteration: int,
        *,
        version: int = _FORMAT_VERSION,
        run_state: dict | None = None,
        sort_keys: list[np.ndarray] | None = None,
    ) -> None:
        self.grid = grid
        self.fields = fields
        self.particles = particles
        self.iteration = iteration
        self.version = version
        self.run_state = run_state
        self.sort_keys = sort_keys

    @property
    def nranks(self) -> int:
        """Number of per-rank particle sets stored."""
        return len(self.particles)

    def all_particles(self) -> ParticleArray:
        """All particles concatenated in rank order."""
        return ParticleArray.concat(self.particles)


def _resolve_path(path: str | Path) -> Path:
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    return path


def save_checkpoint(
    path: str | Path,
    grid: Grid2D,
    fields: FieldState,
    particles: list[ParticleArray],
    iteration: int,
    *,
    run_state: dict | None = None,
    sort_keys: list[np.ndarray] | None = None,
) -> Path:
    """Write a format-v2 checkpoint to ``path`` (``.npz`` appended if missing).

    ``particles`` is a list of per-rank sets (pass ``[parts]`` for a
    sequential run).  ``run_state`` is the JSON-compatible exact-resume
    payload assembled by ``Simulation.checkpoint``; ``sort_keys`` are the
    redistributor's per-rank build-time keys.  Both are optional so the
    low-level physical-state round trip keeps working standalone.

    The write is atomic: the archive lands in a temporary file next to
    ``path`` and is installed with :func:`os.replace`, so a crash mid-write
    leaves either the previous checkpoint or a stray ``.tmp`` file — never
    a truncated archive under the target name.
    """
    require(iteration >= 0, "iteration must be >= 0")
    require(len(particles) >= 1, "need at least one particle set")
    if sort_keys is not None:
        require(
            len(sort_keys) == len(particles),
            "sort_keys must have one entry per particle set",
        )
    path = _resolve_path(path)
    payload: dict[str, np.ndarray] = {
        "format": np.array([_MAGIC]),
        "version": np.array([_FORMAT_VERSION]),
        "meta": np.array([grid.nx, grid.ny, iteration, len(particles)], dtype=np.int64),
        "extent": np.array([grid.lx, grid.ly]),
        "state_json": np.array(
            [json.dumps({"run_state": run_state, "has_sort_keys": sort_keys is not None})]
        ),
    }
    for name in _FIELD_NAMES:
        payload[f"field_{name}"] = getattr(fields, name)
    for r, parts in enumerate(particles):
        payload[f"rank{r}_matrix"] = parts.to_matrix()
    if sort_keys is not None:
        for r, keys in enumerate(sort_keys):
            payload[f"rank{r}_sortkeys"] = np.asarray(keys)
    with atomic_writer(path, "wb") as fh:
        np.savez_compressed(fh, **payload)
    return path


def _expected_keys(nranks: int, has_sort_keys: bool) -> set[str]:
    keys = {"format", "version", "meta", "extent", "state_json"}
    keys.update(f"field_{name}" for name in _FIELD_NAMES)
    keys.update(f"rank{r}_matrix" for r in range(nranks))
    if has_sort_keys:
        keys.update(f"rank{r}_sortkeys" for r in range(nranks))
    return keys


def _require_keys(path: Path, found: set[str], expected: set[str]) -> None:
    missing = sorted(expected - found)
    if missing:
        raise CheckpointError(
            f"{path} is not a complete repro checkpoint: missing keys {missing} "
            f"(found {sorted(found)})"
        )


def load_checkpoint(path: str | Path, *, strict: bool = False) -> CheckpointData:
    """Read a checkpoint written by :func:`save_checkpoint`.

    With ``strict=True`` (what ``--guards strict`` runs use) legacy
    format-v1 files raise :class:`CheckpointError` instead of loading
    with a :class:`UserWarning` — a degraded restore is an error, not a
    caveat, when integrity guarantees were requested.

    Raises
    ------
    FileNotFoundError
        ``path`` (with or without the ``.npz`` suffix) does not exist.
    CheckpointError
        The file exists but is not a valid repro checkpoint: not an npz
        archive, truncated, an unsupported version, missing required
        keys (the message lists the expected-vs-found diff), or a
        format-v1 file under ``strict=True``.
    """
    path = Path(path)
    if not path.exists():
        resolved = _resolve_path(path)
        if resolved.exists():
            path = resolved
        else:
            raise FileNotFoundError(
                f"checkpoint file not found: {path}"
                + (f" (also tried {resolved})" if resolved != path else "")
            )
    try:
        archive = np.load(path)
    except (zipfile.BadZipFile, ValueError, OSError, EOFError) as exc:
        raise CheckpointError(
            f"{path} is not a repro checkpoint (.npz archive): {exc}"
        ) from exc
    if not hasattr(archive, "files"):  # a bare .npy array, not an archive
        raise CheckpointError(f"{path} is not a repro checkpoint (.npz archive)")
    with archive as data:
        found = set(data.files)
        if "version" not in found:
            raise CheckpointError(
                f"{path} is not a repro checkpoint: no 'version' key "
                f"(found {sorted(found)})"
            )
        version = int(data["version"][0])
        if version == 1:
            if strict:
                raise CheckpointError(
                    f"{path} is a format-v1 checkpoint (particles/fields only); "
                    "strict guards refuse the degraded load — re-save the run "
                    "with Simulation.checkpoint to upgrade to v2"
                )
            return _load_v1(path, data, found)
        if version != _FORMAT_VERSION:
            raise CheckpointError(
                f"{path}: checkpoint version {version} not supported "
                f"(this build reads versions 1 and {_FORMAT_VERSION})"
            )
        magic = str(data["format"][0]) if "format" in found else None
        if magic != _MAGIC:
            raise CheckpointError(
                f"{path} is not a repro checkpoint: format marker is {magic!r}, "
                f"expected {_MAGIC!r}"
            )
        _require_keys(path, found, _expected_keys(0, False))
        try:
            state = json.loads(str(data["state_json"][0]))
            has_sort_keys = bool(state["has_sort_keys"])
            run_state = state["run_state"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise CheckpointError(f"{path}: corrupt state_json payload: {exc}") from exc
        nx, ny, iteration, nranks = (int(v) for v in data["meta"])
        _require_keys(path, found, _expected_keys(nranks, has_sort_keys))
        lx, ly = (float(v) for v in data["extent"])
        grid = Grid2D(nx, ny, lx=lx, ly=ly)
        fields = FieldState(*(data[f"field_{name}"].copy() for name in _FIELD_NAMES))
        particles = [
            ParticleArray.from_matrix(data[f"rank{r}_matrix"]) for r in range(nranks)
        ]
        sort_keys = None
        if has_sort_keys:
            sort_keys = [data[f"rank{r}_sortkeys"].copy() for r in range(nranks)]
    return CheckpointData(
        grid,
        fields,
        particles,
        iteration,
        version=version,
        run_state=run_state,
        sort_keys=sort_keys,
    )


def _load_v1(path: Path, data, found: set[str]) -> CheckpointData:
    """Read a legacy v1 archive: physical state only, with a warning."""
    warnings.warn(
        f"{path} is a format-v1 checkpoint: only particles/fields/iteration are "
        "stored, so it cannot seed an exact resume (Simulation.from_checkpoint). "
        "Re-save with Simulation.checkpoint to upgrade to v2.",
        UserWarning,
        stacklevel=3,
    )
    v1_keys = {"version", "meta", "extent"} | {f"field_{n}" for n in _FIELD_NAMES}
    _require_keys(path, found, v1_keys)
    nx, ny, iteration, nranks = (int(v) for v in data["meta"])
    _require_keys(path, found, v1_keys | {f"rank{r}_matrix" for r in range(nranks)})
    lx, ly = (float(v) for v in data["extent"])
    grid = Grid2D(nx, ny, lx=lx, ly=ly)
    fields = FieldState(*(data[f"field_{name}"].copy() for name in _FIELD_NAMES))
    particles = [
        ParticleArray.from_matrix(data[f"rank{r}_matrix"]) for r in range(nranks)
    ]
    return CheckpointData(grid, fields, particles, iteration, version=1)
