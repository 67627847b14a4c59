"""The summary that bench/compare.py writes into BENCH_*.json.

The summary arithmetic is checked on fixed samples, the pairing of
``compare()``, the traced runs of ``layers()`` and the report ``main()``
writes with ``bench_once`` stubbed out; no benchmark runs.
"""

import importlib.util
import json
import os
import subprocess
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


METRICS = [
    {"name": "cycles_per_norm_s", "unit": "1/s", "better": "higher"},
    {"name": "wall_norm_s", "unit": "s", "better": "lower"},
]


def _stub_runs(monkeypatch, failed_side=None):
    """Replace bench_once with a stub that spawns nothing; returns its log.

    Call i returns the metric values i and 100 + i, so every per-pair value
    names the call that produced it.
    """
    calls = []
    base_root = Path("/nonexistent/base")

    def bench_once(root, workload, seed):
        side = "base" if root == base_root else "change"
        calls.append((side, workload, seed))
        i = len(calls)
        return {
            "correct": True,
            "failed": 1 if side == failed_side else 0,
            "metrics": {"cycles_per_norm_s": {"value": float(i)},
                        "wall_norm_s": {"value": 100.0 + i}},
        }

    monkeypatch.setattr(compare, "bench_once", bench_once)
    return base_root, calls


def _fixed(base_root, change_root=Path("/nonexistent/work")):
    """A ``place`` that keeps both sides at the same roots for every pair."""
    return lambda i: (base_root, change_root)


def test_compare_alternates_sides_per_pair(monkeypatch):
    base_root, calls = _stub_runs(monkeypatch)
    summary, runs, correct = compare.compare(
        _fixed(base_root), ["w1", "w2"], 3, 7, METRICS)
    assert correct is True
    # Each pair runs every workload on both sides; the side that goes first
    # alternates from one pair to the next.
    firsts = ["base", "change", "base"]
    expected = []
    for first in firsts:
        second = "change" if first == "base" else "base"
        for w in ("w1", "w2"):
            expected += [(first, w, 7), (second, w, 7)]
    assert calls == expected
    assert list(runs) == ["w1", "w2"]
    for w in ("w1", "w2"):
        assert [p["order"] for p in runs[w]] == [f + "-first" for f in firsts]
        for p in runs[w]:
            assert set(p) == {"order", "paths", "base", "change"}
            assert set(p["base"]) == set(p["change"]) == {
                "cycles_per_norm_s", "wall_norm_s"}
    # Pair 2 of w2 (the 7th and 8th calls) ran the change first.
    assert runs["w2"][1] == {
        "order": "change-first",
        "paths": {"base": os.path.relpath(base_root, compare.ROOT),
                  "change": os.path.relpath("/nonexistent/work", compare.ROOT)},
        "base": {"cycles_per_norm_s": 8.0, "wall_norm_s": 108.0},
        "change": {"cycles_per_norm_s": 7.0, "wall_norm_s": 107.0},
    }
    s = summary["w1"]["cycles_per_norm_s"]
    assert s["unit"] == "1/s" and s["better"] == "higher" and s["pairs"] == 3
    # w1: base ran calls 1, 6 and 9, the change calls 2, 5 and 10.
    assert s["base"]["median"] == 6.0 and s["change"]["median"] == 5.0
    assert s["change_wins"] == 2
    assert summary["w2"]["wall_norm_s"]["better"] == "lower"


@pytest.mark.parametrize("failed_side", ["base", "change"])
def test_compare_failed_runs_are_not_correct(monkeypatch, failed_side):
    base_root, calls = _stub_runs(monkeypatch, failed_side)
    _, runs, correct = compare.compare(
        _fixed(base_root), ["w1", "w2"], 3, 1, METRICS)
    assert correct is False
    # A failed run does not stop the comparison.
    assert len(calls) == 12
    assert all(len(runs[w]) == 3 for w in ("w1", "w2"))


def test_compare_swaps_copy_paths_per_pair(monkeypatch):
    # The sides trade copy paths from one pair to the next, so each side's
    # median covers both; every pair records where each side ran.
    copies = (compare.COPIES / "copy0", compare.COPIES / "copy1")
    placed = []

    def place(i):
        placed.append(i)
        return copies if i % 2 == 0 else copies[::-1]

    ran = []

    def bench_once(root, workload, seed):
        ran.append(root)
        return {"correct": True, "failed": 0,
                "metrics": {"cycles_per_norm_s": {"value": 1.0},
                            "wall_norm_s": {"value": 1.0}}}

    monkeypatch.setattr(compare, "bench_once", bench_once)
    _, runs, _ = compare.compare(place, ["w1", "w2"], 4, 1, METRICS)
    assert placed == [0, 1, 2, 3]
    # Even pairs run the base first, odd ones the change; either way copy0
    # goes first here, and each side ran from both copies.
    assert ran == [copies[0], copies[1]] * 8
    names = {"copy0": ".perfbench/copy0", "copy1": ".perfbench/copy1"}
    for w in ("w1", "w2"):
        assert [p["paths"] for p in runs[w]] == [
            {"base": names["copy0"], "change": names["copy1"]},
            {"base": names["copy1"], "change": names["copy0"]},
        ] * 2


def _layer_metrics(edge_calls, harness_s):
    """The metrics of a traced perfbench run, cut to a few layers."""
    values = {
        "timebase.edge_calls": (edge_calls, "count"),
        "timebase.self_s": (0.5, "s"),
        "dll_cdt.cdt_transfer_s": (0.25, "s"),
        "dll_cdt.edge_calls": (2 * edge_calls, "count"),
        "dll_cdt.missed_share": (0.0, "share"),
        "harness.init_s": (0.125, "s"),
        "harness.self_s": (harness_s, "s"),
        "harness.self_s_per_cycle": (harness_s / 100, "s/cycle"),
        "trace.wall_s": (2.0, "s"),
        "trace.cycles": (100, "count"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def test_layer_profile_counts_and_shares():
    # Every figure of the traced run is kept: counts apart, the rest
    # (absolute times, spans, per-cycle figures and shares) with its unit.
    profile = compare.layer_profile(_layer_metrics(7, 1.0))
    assert profile == {
        "counts": {"timebase.edge_calls": 7, "dll_cdt.edge_calls": 14,
                   "trace.cycles": 100},
        "figures": {
            "timebase.self_s": {"value": 0.5, "unit": "s"},
            "dll_cdt.cdt_transfer_s": {"value": 0.25, "unit": "s"},
            "dll_cdt.missed_share": {"value": 0.0, "unit": "share"},
            "harness.init_s": {"value": 0.125, "unit": "s"},
            "harness.self_s": {"value": 1.0, "unit": "s"},
            "harness.self_s_per_cycle": {"value": 0.01, "unit": "s/cycle"},
            "trace.wall_s": {"value": 2.0, "unit": "s"},
        },
        "wall_share": {"timebase": 0.25, "harness": 0.5},
    }


def test_layers_traces_each_side_once(monkeypatch, capsys):
    base_root = Path("/nonexistent/base")
    calls = []

    def bench_once(root, workload, seed, trace=False):
        side = "base" if root == base_root else "change"
        calls.append((side, workload, seed, trace))
        edges = 10 if side == "base" or workload == "w1" else 11
        return {"correct": True, "failed": 1 if workload == "w2" else 0,
                "metrics": _layer_metrics(edges, 1.0)}

    monkeypatch.setattr(compare, "bench_once", bench_once)
    profiles, correct = compare.layers(
        base_root, Path("/nonexistent/work"), ["w1", "w2"], 5)
    assert calls == [(side, w, 5, True) for w in ("w1", "w2")
                     for side in ("base", "change")]
    assert correct is False
    assert profiles["w2"]["base"]["counts"]["timebase.edge_calls"] == 10
    assert profiles["w2"]["change"]["counts"]["timebase.edge_calls"] == 11
    assert profiles["w1"]["change"]["wall_share"]["harness"] == 0.5
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "traced w1: every count equal"
    assert out[1] == ("traced w2: timebase.edge_calls 10 -> 11, "
                      "dll_cdt.edge_calls 20 -> 22")


def _git(root, *args):
    return subprocess.run(
        ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
         "-c", "commit.gpgsign=false", *args],
        cwd=root, check=True, capture_output=True, text=True,
    ).stdout.strip()


def test_main_runs_twin_copies_and_removes_them(monkeypatch, tmp_path, capsys):
    # A throwaway two-commit repository stands in for the checkout; the
    # parent commit is the base, the files on disk are the change, and
    # bench_once is stubbed.
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 25,
        "workloads": [{"name": "w1"}],
        "end_to_end": [{"name": "wall_norm_s", "unit": "s", "better": "lower"}],
    }))
    (repo / ".gitignore").write_text(".perfbench/\n")
    (repo / "src" / "sim.py").write_text("SPEED = 1\n")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "base")
    (repo / "src" / "sim.py").write_text("SPEED = 2\n")
    _git(repo, "commit", "-q", "-am", "change")
    # Uncommitted: the change side runs the files as they are on disk.
    (repo / "src" / "sim.py").write_text("SPEED = 3\n")
    base_commit = _git(repo, "rev-parse", "HEAD~1")
    change_commit = _git(repo, "rev-parse", "HEAD")

    roots = []

    def bench_once(root, workload, seed, trace=False):
        roots.append((root, trace))
        value = float((root / "src" / "sim.py").read_text().split("=")[1])
        if trace:
            return {"correct": True, "failed": 0,
                    "metrics": _layer_metrics(int(value), 0.1 * value)}
        return {"correct": True, "failed": 0,
                "metrics": {"wall_norm_s": {"value": value}}}

    monkeypatch.setattr(compare, "ROOT", repo)
    monkeypatch.setattr(compare, "COPIES", repo / ".perfbench")
    monkeypatch.setattr(compare, "bench_once", bench_once)
    assert compare.main(["--label", "t", "--pairs", "2"]) == 0

    report = json.loads((repo / "BENCH_t.json").read_text())
    assert report["base"]["commit"] == base_commit
    assert report["change"]["commit"] == change_commit
    assert report["base"]["src_tree"] == _git(repo, "rev-parse", f"{base_commit}:src")
    _git(repo, "add", "src")
    assert report["change"]["src_tree"] == _git(repo, "write-tree", "--prefix=src")
    assert report["change"]["uncommitted_changes"] is True
    assert report["correct"] is True
    s = report["summary"]["w1"]["wall_norm_s"]
    assert s["base"]["median"] == 1.0 and s["change"]["median"] == 3.0
    # One traced run per side follows the timed pairs.
    assert [trace for _, trace in roots] == [False] * 4 + [True] * 2
    assert report["layers"]["w1"]["base"]["counts"]["timebase.edge_calls"] == 1
    assert report["layers"]["w1"]["change"]["counts"]["timebase.edge_calls"] == 3
    # Two copies under .perfbench/, never the checkout, with paths of the
    # same length; the sides swap them on the second pair, each copied
    # afresh, and the traced runs go back to the first pair's paths.
    roots = [root for root, _ in roots]
    assert len(set(roots)) == 2 and roots[4:] == roots[:2]
    base_root, change_root = roots[0], roots[1]
    assert base_root.parent == change_root.parent == repo / ".perfbench"
    assert len(str(base_root)) == len(str(change_root))
    paths = [p["paths"] for p in report["runs"]["w1"]]
    first = {"base": ".perfbench/copy0", "change": ".perfbench/copy1"}
    assert paths == [first, {"base": first["change"], "change": first["base"]}]
    # Both copies are gone, and no worktree or index was left behind.
    assert not base_root.exists() and not change_root.exists()
    assert list((repo / ".perfbench").iterdir()) == []
    assert _git(repo, "worktree", "list").count("\n") == 0
