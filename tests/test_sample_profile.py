"""bench/sample_profile.py samples one short workload in this process."""

import importlib.util
from pathlib import Path

SAMPLE_PROFILE = Path(__file__).resolve().parent.parent / "bench" / "sample_profile.py"


def _load_sample_profile():
    spec = importlib.util.spec_from_file_location("bench_sample_profile", SAMPLE_PROFILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sample_profile_smoke(capsys):
    # One 20 us run: every sample lies under the workload's execute, most
    # under Simulation.run, and the self shares add up to the whole.
    sample_profile = _load_sample_profile()
    assert sample_profile.main(["steady_130nm"]) == 0
    head, columns, *rows = capsys.readouterr().out.splitlines()
    assert int(head.split()[0]) > 0
    assert columns.split() == ["self", "incl", "function"]
    table = [(float(own[:-1]), float(incl[:-1]), name)
             for own, incl, name in (r.split(maxsplit=2) for r in rows)]
    incl = {name.split()[-1]: incl for _, incl, name in table}
    assert incl["execute"] == 100.0
    assert incl["Simulation.run"] > 50.0
    assert abs(sum(own for own, _, _ in table) - 100.0) < 0.1 * len(table)
