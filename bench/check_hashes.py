#!/usr/bin/env python3
"""Check every recorded benchmark output hash against this checkout.

    python3 bench/check_hashes.py

Runs seeds 0-31 of every workload in ``perfbench/workloads.py`` through
``inputs``, ``execute`` and ``outputs_hash``, and compares each hash with
``perfbench/expected.json``.  Prints one line per mismatch and a total, and
exits 1 if any hash differs.  It only reads ``perfbench/``; the 128 runs
take about 90 s on one core.
"""

from __future__ import annotations

import importlib.util
import json
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEEDS = range(32)


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main() -> int:
    workloads = _load_workloads()
    expected = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))
    checked = mismatches = 0
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            scns = workloads.inputs(name, seed)
            with tempfile.TemporaryDirectory() as out, \
                    workloads.collect_runs() as runs:
                workloads.execute(name, scns, Path(out))
            got = workloads.outputs_hash(runs)
            want = expected["hashes"][name][str(seed)]
            checked += 1
            if got != want:
                mismatches += 1
                print(f"MISMATCH {name} seed {seed}: {got} != {want}")
    print(f"{mismatches} mismatches out of {checked}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
