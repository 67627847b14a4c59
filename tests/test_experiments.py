"""The multi-run studies live in ``experiments``, which imports ``harness``."""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.mark.parametrize("first, second", [("experiments", "harness"),
                                           ("harness", "experiments")])
def test_either_import_order_works(first, second):
    # harness forwards false_lock_experiment to experiments without a
    # module-level import, which would be circular.
    code = (
        f"import sys; sys.path.insert(0, {SRC!r})\n"
        f"import mesosync.{first}\n"
        f"import mesosync.{second}\n"
        "from mesosync import experiments, harness\n"
        "assert harness.false_lock_experiment is experiments.false_lock_experiment\n"
        "assert not hasattr(harness, 'sweep')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
