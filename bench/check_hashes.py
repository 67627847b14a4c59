#!/usr/bin/env python3
"""Check the recorded benchmark output hashes against this checkout.

    python3 bench/check_hashes.py [WORKLOAD ...]

Runs seeds 0-31 of each named workload in ``perfbench/workloads.py``, or of
every workload when none is named, through ``inputs`` and ``execute``,
applies the workload's gates (``check``) to the collected runs, and
compares their ``outputs_hash`` with ``perfbench/expected.json``.  Prints
one line per mismatch or failed gate and a total, and exits 1 if any hash
differs or any gate fails, 2 if a name is not a workload.  It only reads
``perfbench/``; all 128 runs take about 45 s on one core.
"""

from __future__ import annotations

import importlib.util
import json
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEEDS = range(32)


def load_workloads():
    """``perfbench/workloads.py`` as a module."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_expected() -> dict:
    """The recorded output hashes, by workload name and seed."""
    text = (PERFBENCH / "expected.json").read_text(encoding="utf-8")
    return json.loads(text)["hashes"]


def run_seed(workloads, name: str, seed: int, outdir: Path) -> tuple[str, list]:
    """Run one seed of a workload: its output hash and the failures its
    gates report, one list per collected run."""
    scns = workloads.inputs(name, seed)
    with workloads.collect_runs() as runs:
        outcome = workloads.execute(name, scns, outdir)
    return workloads.outputs_hash(runs), workloads.check(name, runs, outcome)


def main(argv: list[str] | None = None) -> int:
    workloads = load_workloads()
    names = sys.argv[1:] if argv is None else argv
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"unknown workload(s): {', '.join(unknown)}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    expected = load_expected()
    checked = mismatches = failed = 0
    for name in names or workloads.WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as out:
                got, failures = run_seed(workloads, name, seed, Path(out))
            want = expected[name][str(seed)]
            checked += 1
            if got != want:
                mismatches += 1
                print(f"MISMATCH {name} seed {seed}: {got} != {want}")
            if any(failures):
                failed += 1
                print(f"FAILED {name} seed {seed}: {failures}")
    print(f"{mismatches} mismatches out of {checked}; "
          f"{failed} failed their gates")
    return 1 if mismatches or failed else 0


if __name__ == "__main__":
    sys.exit(main())
