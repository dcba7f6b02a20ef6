#!/usr/bin/env python3
"""Regenerate ``perfbench/pins.json``: reference-tier statistics of the
pinned inputs, so benchmark runs on them need no reference run.

    python3 perfbench/pin.py [--workload NAME ...]

Pins the first ops of the default seed (0) and the held-out seed (1) for
certified_run and cached_sweep, and every pool instance of the array-native
workloads (a reference run at n = 10^5 takes about 90 s).  Entries of the
named workloads are replaced; the others are kept.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINS = Path(__file__).resolve().parent / "pins.json"

#: workload -> (seeds, ops per seed)
PLAN = {
    "certified_run": ((0, 1), 12),
    "cached_sweep": ((0, 1), 1),
    "columnar_scale": (None, 1),
    "recorded_replay": (None, 1),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(PLAN))
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.tracing import NullTracer
    from perfbench.workloads import POOL, WORKLOADS

    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    scratch = ROOT / ".perfbench" / "pin"
    for name in args.workload or sorted(PLAN):
        seeds, ops = PLAN[name]
        entries = {}
        for seed in seeds or range(POOL):
            shutil.rmtree(scratch, ignore_errors=True)
            scratch.mkdir(parents=True)
            workload = WORKLOADS[name](seed, False, scratch, {})
            workload.setup()
            for i in range(ops):
                problems = workload.check(workload.op(i, NullTracer()))
                if problems:
                    print("\n".join(problems), file=sys.stderr)
                    return 1
            entries.update(workload.references)
            print(f"{name} seed {seed}: {len(workload.references)} pins", flush=True)
        pins[name] = dict(sorted(entries.items()))
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
