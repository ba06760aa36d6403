"""Paper-scale, layer-attributed benchmark of the repro package.

Run from the repository root::

    python3 perfbench/run.py --workload fig17_p128 --seed 0 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (spans are written to ``.perfbench-out/``).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every operation passed the correctness gate.

Each run executes in an isolated child interpreter, so ``peak_rss_mb``
covers only that workload's process tree.  The program is imported from
``src/`` of the checkout; without it the command fails before printing a
result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

#: the whole run, reference included, must end inside the 180 s it may take
CHILD_TIMEOUT_S = 170


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", metavar="REFERENCE", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def child(args: argparse.Namespace) -> int:
    """Run the workload in this process and print its result as JSON."""
    import measure
    from workloads import WORKLOADS

    reference = json.loads(Path(args.child).read_text())
    result = measure.run(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), OUT, reference)
    print(json.dumps(result), flush=True)
    return 0


def parent(args: argparse.Namespace) -> int:
    """Start the isolated child, relay its result, stop what it left."""
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    import gate
    from workloads import WORKLOADS

    started = time.monotonic()
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(OUT / "tmp"))
    reference = OUT / f"reference-{args.workload}-seed{args.seed}.json"
    reference.write_text(json.dumps(gate.reference_for(WORKLOADS[args.workload], args.seed, env)))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--child", str(reference)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        stdout = ""
    finally:
        # the child's session holds every worker it forked
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: child exited with {proc.returncode}", file=sys.stderr)
        return 3
    result = json.loads(lines[-1])
    for failure in result.pop("failures"):
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    return child(args) if args.child else parent(args)


if __name__ == "__main__":
    sys.exit(main())
