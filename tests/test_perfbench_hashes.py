"""Each benchmark workload's simulated outputs at seed 1 match the record.

``perfbench/expected.json`` holds the output hashes the benchmark checks
every repeat against.  Running seed 1 of each workload here makes a change
that moves a hashed output fail the test suite, not only the benchmark.
This test only reads ``perfbench/``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()
EXPECTED = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", WORKLOADS.WORKLOADS)
def test_workload_outputs_match_expected(name, tmp_path):
    scns = WORKLOADS.inputs(name, SEED)
    with WORKLOADS.collect_runs() as runs:
        outcome = WORKLOADS.execute(name, scns, tmp_path)
    assert not any(WORKLOADS.check(name, runs, outcome))
    assert WORKLOADS.outputs_hash(runs) == EXPECTED["hashes"][name][str(SEED)]
