"""The summary that bench/compare.py writes into BENCH_*.json.

Only the arithmetic is checked here, on fixed samples; no benchmark runs.
"""

import importlib.util
from pathlib import Path

import pytest

COMPARE = Path(__file__).resolve().parent.parent / "bench" / "compare.py"


def _load_compare():
    spec = importlib.util.spec_from_file_location("bench_compare", COMPARE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare = _load_compare()

BASE = [10.0, 12.0, 11.0, 13.0, 9.0]
CHANGE = [12.0, 14.0, 13.0, 15.0, 8.0]


def test_summary_higher_is_better():
    s = compare.summarize(BASE, CHANGE, "higher")
    assert s["base"] == {"median": 11.0, "q1": 10.0, "q3": 12.0, "iqr": 2.0}
    assert s["change"] == {"median": 13.0, "q1": 12.0, "q3": 14.0, "iqr": 2.0}
    assert s["ratio"] == 13.0 / 11.0
    assert s["change_wins"] == 4
    assert s["pairs"] == 5
    # A gap of 2 does not exceed an IQR of 2.
    assert s["gap_exceeds_base_iqr"] is False


def test_summary_lower_is_better():
    s = compare.summarize(BASE, CHANGE, "lower")
    assert s["change_wins"] == 1
    assert s["gap_exceeds_base_iqr"] is False
    s = compare.summarize([10.0, 10.5, 9.5, 10.0], [8.0, 8.5, 7.5, 9.0], "lower")
    assert s["base"]["median"] == 10.0
    assert s["base"]["iqr"] == 0.25
    assert s["change"]["median"] == 8.25
    assert s["change_wins"] == 4
    assert s["gap_exceeds_base_iqr"] is True


def test_summary_ties_are_not_wins():
    s = compare.summarize([2.0, 2.0, 2.0], [2.0, 2.0, 2.0], "lower")
    assert s["change_wins"] == 0
    assert s["ratio"] == 1.0
    assert s["base"]["iqr"] == 0.0
    assert s["gap_exceeds_base_iqr"] is False


def test_summary_single_pair():
    s = compare.summarize([4.0], [5.0], "higher")
    assert s["base"] == {"median": 4.0, "q1": 4.0, "q3": 4.0, "iqr": 0.0}
    assert s["change_wins"] == 1
    assert s["gap_exceeds_base_iqr"] is True


@pytest.mark.parametrize("base, change, better", [
    ([1.0, 2.0], [1.0], "higher"),
    ([], [], "higher"),
    ([1.0], [2.0], "faster"),
])
def test_summary_rejects_bad_input(base, change, better):
    with pytest.raises(ValueError):
        compare.summarize(base, change, better)
