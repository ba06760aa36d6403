"""Layer spans recorded from outside the program.

The benchmark never edits the program to trace it.  :class:`Tracer`
wraps public methods of the classes behind the objects a ``Simulation``
exposes (``sim.pic``, ``sim.redistributor``, ``sim.backend``), plus
``Simulation.run``/``checkpoint``/``from_checkpoint`` and
``Scheduler.run``, and records one span per call: name, start, end and
the span that was open when the call began.

The wrappers are installed on the classes rather than on instances so
that simulations built inside forked job-service workers are traced too.
Spans of the benchmark process stay in memory.  A forked process appends
each span to ``spans-<pid>.jsonl`` in the spill directory as it closes,
because the service may SIGKILL that process at any moment.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from pathlib import Path

# (module, class, method, span name).  The span name is the repo's layer
# name followed by the operation.
TARGETS = [
    ("repro.pic.simulation", "Simulation", "__init__", "sim.setup"),
    ("repro.pic.simulation", "Simulation", "run", "sim.run"),
    ("repro.pic.simulation", "Simulation", "result", "sim.result"),
    ("repro.pic.simulation", "Simulation", "checkpoint", "checkpoint.write"),
    ("repro.pic.simulation", "Simulation", "from_checkpoint", "checkpoint.read"),
    ("repro.pic.parallel", "ParallelPIC", "step", "pic.step"),
    ("repro.pic.parallel", "ParallelPIC", "scatter", "pic.scatter"),
    ("repro.pic.parallel", "ParallelPIC", "field_solve", "pic.field_solve"),
    ("repro.pic.parallel", "ParallelPIC", "gather_push", "pic.gather_push"),
    ("repro.core.redistribution", "Redistributor", "redistribute", "core.redistribute"),
    ("repro.parallel_exec.backend", "FlatBackend", "scatter", "parallel_exec.scatter"),
    ("repro.parallel_exec.backend", "FlatBackend", "gather_push", "parallel_exec.gather_push"),
    ("repro.parallel_exec.backend", "FlatBackend", "pool_from_ranks", "parallel_exec.pool_rebuild"),
    ("repro.parallel_exec.backend", "FlatBackend", "classify", "parallel_exec.classify"),
    ("repro.service.scheduler", "Scheduler", "run", "service.batch"),
]


def _checkpoint_bytes(args, result) -> dict:
    return {"bytes": os.path.getsize(result)}


def _result_ops(args, result) -> dict:
    return {"ops_total": float(sum(args[0].vm.ops.as_dict().values()))}


def _redistribution_bytes(args, result) -> dict:
    # Simulation.run pops the comm ledger right after each redistribution,
    # so the "redistribution" record holds exactly this call's traffic.
    vm = args[1]
    return {"bytes": vm.stats.phase("redistribution").total_bytes}


# Counts recorded at the same boundary as the span.
COUNTERS = {
    "checkpoint.write": _checkpoint_bytes,
    "sim.result": _result_ops,
    "core.redistribute": _redistribution_bytes,
}


class Tracer:
    """Records nested spans around the wrapped methods while installed."""

    def __init__(self, spill_dir: str | Path) -> None:
        self.spill_dir = Path(spill_dir)
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._owner = self._pid
        self._saved: list[tuple[type, str, object]] = []

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        """Wrap every target method; idempotent."""
        if self._saved:
            return
        for module, cls_name, attr, name in TARGETS:
            cls = getattr(importlib.import_module(module), cls_name)
            raw = cls.__dict__[attr]
            self._saved.append((cls, attr, raw))
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(raw.__func__, name)))
            else:
                setattr(cls, attr, self._wrap(raw, name))

    def uninstall(self) -> None:
        """Restore the original methods."""
        for cls, attr, raw in reversed(self._saved):
            setattr(cls, attr, raw)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, {"error": True})
                raise
            self._close(idx, counter(args, result) if counter is not None else None)
            return result

        return traced

    # -- recording ------------------------------------------------------
    def _open(self, name: str) -> int:
        pid = os.getpid()
        if pid != self._pid:
            # first span in a forked process: start an empty record there
            self._pid = pid
            self.spans = []
            self._stack = []
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            {"name": name, "start": time.perf_counter(), "end": None,
             "parent": parent, "pid": pid, "attrs": {}}
        )
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, attrs: dict | None) -> None:
        span = self.spans[idx]
        span["end"] = time.perf_counter()
        if attrs:
            span["attrs"] = attrs
        self._stack.pop()
        if self._pid != self._owner:
            line = json.dumps(dict(span, id=idx)) + "\n"
            with open(self.spill_dir / f"spans-{self._pid}.jsonl", "a") as fh:
                fh.write(line)

    def mark(self) -> int:
        """Position in :attr:`spans`; spans recorded later start there."""
        return len(self.spans)

    def spilled(self, first: int = 0) -> list[dict]:
        """Spans written by forked processes, numbered from ``first`` on."""
        out: list[dict] = []
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            rows = [json.loads(line) for line in path.read_text().splitlines()]
            base = first + len(out)
            local = {row["id"]: base + i for i, row in enumerate(rows)}
            for row in rows:
                del row["id"]
                row["parent"] = local.get(row["parent"], -1)
                out.append(row)
        return out


def durations(spans: list[dict], name: str) -> list[float]:
    """Seconds spent in each span called ``name``."""
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one parent never overlap (one thread per process), so
    the covered time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            covered[s["parent"]] += s["end"] - s["start"]
    return [(s["end"] - s["start"]) - covered[i] for i, s in enumerate(spans)]


def since(spans: list[dict], mark: int) -> list[dict]:
    """Copies of ``spans[mark:]`` with parent indices rebased onto the slice.

    A parent opened before ``mark`` becomes -1, a root of the slice.
    """
    out = []
    for s in spans[mark:]:
        row = dict(s)
        row["parent"] = s["parent"] - mark if s["parent"] >= mark else -1
        out.append(row)
    return out
