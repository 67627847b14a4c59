"""Each benchmark workload's simulated outputs at seed 1 match the record.

``perfbench/expected.json`` holds the output hashes the benchmark checks
every repeat against.  Running seed 1 of each workload here, through the
same steps as ``bench/check_hashes.py``, makes a change that moves a hashed
output fail the test suite, not only the benchmark.  This test only reads
``perfbench/``.
"""

import importlib.util
from pathlib import Path

import pytest

CHECK_HASHES = Path(__file__).resolve().parent.parent / "bench" / "check_hashes.py"
SEED = 1


def _load_check_hashes():
    spec = importlib.util.spec_from_file_location("bench_check_hashes", CHECK_HASHES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_hashes = _load_check_hashes()
WORKLOADS = check_hashes.load_workloads()
EXPECTED = check_hashes.load_expected()


@pytest.mark.parametrize("name", WORKLOADS.WORKLOADS)
def test_workload_outputs_match_expected(name, tmp_path):
    got, failures = check_hashes.run_seed(WORKLOADS, name, SEED, tmp_path)
    assert not any(failures)
    assert got == EXPECTED[name][str(SEED)]


def test_check_hashes_runs_only_the_named_workloads(monkeypatch, capsys):
    monkeypatch.setattr(check_hashes, "SEEDS", [SEED])
    assert check_hashes.main(["steady_130nm"]) == 0
    assert capsys.readouterr().out == "0 mismatches out of 1; 0 failed their gates\n"
    assert check_hashes.main(["steady_130nm", "bogus"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "bogus" in out.err
