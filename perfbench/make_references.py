"""Write ``references.json``: the exact outputs each workload must reproduce.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/make_references.py --seeds 0-31

Each reference comes from the workload's reference execution path (see
``gate``), never from the timed one.  Rerun after changing a workload
definition; the gate refuses references of another definition.
"""

from __future__ import annotations

import argparse
import json
import sys

import gate
import measure
from workloads import WORKLOADS, SweepWorkload


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def render(refs: dict) -> str:
    """JSON with one line per (workload, seed), so a diff shows whole seeds."""
    blocks = []
    for name, entry in sorted(refs.items()):
        seeds = ",\n".join(
            f"   {json.dumps(seed)}: {json.dumps(ref, sort_keys=True)}"
            for seed, ref in sorted(entry["seeds"].items(), key=lambda kv: int(kv[0]))
        )
        blocks.append(
            f" {json.dumps(name)}: {{\n"
            f"  \"definition\": {json.dumps(entry['definition'])},\n"
            f"  \"seeds\": {{\n{seeds}\n  }}\n }}"
        )
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def derive(wl, seed: int):
    if isinstance(wl, SweepWorkload):
        return measure.derive_sweep_reference(wl, seed)
    return measure.derive_sim_reference(wl, seed)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                    help="only these workloads (default: all)")
    ap.add_argument("--print", action="store_true",
                    help="print the references as JSON instead of writing the file")
    args = ap.parse_args(argv)
    if args.print:
        out = {name: {seed: derive(WORKLOADS[name], seed) for seed in parse_seeds(args.seeds)}
               for name in args.workload or sorted(WORKLOADS)}
        print(json.dumps(out))
        return 0
    refs = json.loads(gate.REFERENCES.read_text()) if gate.REFERENCES.exists() else {}
    for name in args.workload or sorted(WORKLOADS):
        wl = WORKLOADS[name]
        digest = gate.definition_digest(wl.definition())
        entry = refs.get(name)
        if entry is None or entry["definition"] != digest:
            entry = refs[name] = {"definition": digest, "seeds": {}}
        for seed in parse_seeds(args.seeds):
            entry["seeds"][str(seed)] = derive(wl, seed)
            print(f"{name} seed {seed}", file=sys.stderr, flush=True)
        gate.REFERENCES.write_text(render(refs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
