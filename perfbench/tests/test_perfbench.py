"""The benchmark's own tests, at a tiny size.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gate  # noqa: E402
import measure  # noqa: E402
import tracing  # noqa: E402
from workloads import (  # noqa: E402
    FIG16_P32_PERIODIC5_WORKERS2,
    FIG17_P128,
    SUBMIT_POLICY_SWEEP,
    WORKLOADS,
)

TINY = {"nx": 16, "ny": 8, "nparticles": 512, "p": 4}
TINY_INPROCESS = replace(FIG17_P128, config=dict(FIG17_P128.config, **TINY), iterations=6)
TINY_WORKERS = replace(
    FIG16_P32_PERIODIC5_WORKERS2,
    config=dict(FIG16_P32_PERIODIC5_WORKERS2.config, **TINY),
    iterations=6,
)
TINY_SWEEP = replace(
    SUBMIT_POLICY_SWEEP,
    config=dict(SUBMIT_POLICY_SWEEP.config, **TINY),
    iterations=4,
    crash={"policy": "dynamic", "at_iteration": 3},
)
SEED = 3


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def sim_refs():
    return {
        wl.name: measure.derive_sim_reference(wl, SEED)
        for wl in (TINY_INPROCESS, TINY_WORKERS)
    }


@pytest.fixture(scope="module")
def sweep_refs():
    return measure.derive_sweep_reference(TINY_SWEEP, SEED)


def run(wl, refs, tmp_path, trace: bool) -> dict:
    if wl is TINY_SWEEP:
        return measure.run_sweep(wl, SEED, 0.0, trace, tmp_path, refs)
    return measure.run_sim(wl, SEED, 0.0, trace, tmp_path, refs[wl.name])


# ----------------------------------------------------------------------
# every metric is emitted, with its unit
# ----------------------------------------------------------------------
def test_spec_names_the_workloads():
    declared = {w["name"]: w["why"] for w in spec()["workloads"]}
    assert declared == {name: wl.why for name, wl in WORKLOADS.items()}


@pytest.mark.parametrize("which", ["inprocess", "workers", "sweep"])
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(which, trace, sim_refs, sweep_refs, tmp_path):
    wl = {"inprocess": TINY_INPROCESS, "workers": TINY_WORKERS, "sweep": TINY_SWEEP}[which]
    result = run(wl, sweep_refs if wl is TINY_SWEEP else sim_refs, tmp_path, trace)
    assert result["correct"], result["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec()["per_layer" if trace else "end_to_end"]
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in wanted
    ]
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_sweep_attributes_checkpoints_and_retries(sweep_refs, tmp_path):
    metrics = run(TINY_SWEEP, sweep_refs, tmp_path, True)["metrics"]
    jobs = len(TINY_SWEEP.policies)
    writes_per_job = TINY_SWEEP.iterations // 2
    # the retry resumes from the crashed attempt's last checkpoint, so
    # the crash adds a read and no write
    assert metrics["checkpoint.writes"]["value"] == jobs * writes_per_job
    assert metrics["checkpoint.read_ms"]["value"] > 0
    assert metrics["service.retries"]["value"] == 1


# ----------------------------------------------------------------------
# a corrupted reference makes the gate fail
# ----------------------------------------------------------------------
def test_corrupted_sim_reference_fails_every_run(sim_refs, tmp_path):
    ref = dict(sim_refs[TINY_INPROCESS.name])
    ref["vm_elapsed"] = math.nextafter(ref["vm_elapsed"], math.inf)
    result = measure.run_sim(TINY_INPROCESS, SEED, 0.0, False, tmp_path, ref)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert any("vm_elapsed" in f for f in result["failures"])


def test_corrupted_sweep_reference_fails_that_job(sweep_refs, tmp_path):
    refs = json.loads(json.dumps(sweep_refs))
    refs["dynamic"]["final_state"]["ux_sum"] += 1e-12
    result = measure.run_sweep(TINY_SWEEP, SEED, 0.0, False, tmp_path, refs)
    assert not result["correct"]
    assert result["failed"] == 1
    assert any(f.startswith("dynamic: final_state") for f in result["failures"])


def test_reference_of_another_definition_is_refused(sim_refs, tmp_path):
    path = tmp_path / "references.json"
    path.write_text(json.dumps({TINY_INPROCESS.name: {
        "definition": "0" * 16, "seeds": {str(SEED): sim_refs[TINY_INPROCESS.name]},
    }}))
    with pytest.raises(ValueError, match="another definition"):
        gate.load_reference(TINY_INPROCESS, SEED, path)


def test_shipped_references_match_the_definitions():
    refs = json.loads(gate.REFERENCES.read_text())
    for name, wl in WORKLOADS.items():
        assert refs[name]["definition"] == gate.definition_digest(wl.definition())
        assert refs[name]["seeds"]


# ----------------------------------------------------------------------
# a traced run's spans nest
# ----------------------------------------------------------------------
@pytest.mark.parametrize("which", ["workers", "sweep"])
def test_traced_spans_nest(which, sim_refs, sweep_refs, tmp_path):
    wl = TINY_WORKERS if which == "workers" else TINY_SWEEP
    run(wl, sweep_refs if wl is TINY_SWEEP else sim_refs, tmp_path, True)
    trace = json.loads((tmp_path / f"trace-{wl.name}-seed{SEED}.json").read_text())
    traced = [spans for spans in trace["operations"] if spans]
    assert traced
    names = set()
    for spans in traced:
        selfs = tracing.self_times(spans)
        children = [0.0] * len(spans)
        for s in spans:
            names.add(s["name"])
            assert s["end"] is not None and s["start"] <= s["end"]
            if s["parent"] >= 0:
                parent = spans[s["parent"]]
                assert parent["pid"] == s["pid"]
                assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
                children[s["parent"]] += s["end"] - s["start"]
        for i, s in enumerate(spans):
            assert children[i] <= s["end"] - s["start"] + 1e-9
            assert selfs[i] >= -1e-9
    expected = {"sim.run", "pic.step", "pic.scatter", "core.redistribute"}
    expected |= {"parallel_exec.scatter"} if which == "workers" else {
        "service.batch", "checkpoint.write", "checkpoint.read"}
    assert expected <= names


def test_tracer_restores_the_methods():
    from repro.pic.parallel import ParallelPIC

    original = ParallelPIC.__dict__["scatter"]
    tracer = tracing.Tracer(ROOT)
    tracer.install()
    assert ParallelPIC.__dict__["scatter"] is not original
    tracer.uninstall()
    assert ParallelPIC.__dict__["scatter"] is original


# ----------------------------------------------------------------------
# the command
# ----------------------------------------------------------------------
def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig17_p128", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
