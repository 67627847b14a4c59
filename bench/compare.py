#!/usr/bin/env python3
"""Before/after benchmark of a change against its parent commit.

    python3 bench/compare.py --label NAME --pairs 10 --workload steady_130nm
    python3 bench/compare.py --label NAME --base REV --seed 29

Both sides run from twin copies under ``.perfbench/``, at the two paths
``copy0`` and ``copy1``: one holds the base revision (``--base``, default
``HEAD~1``), the other this checkout's files as they were on disk at the
start, uncommitted ones included.  A run's peak RSS depends on the
directory it starts from, so neither side runs from the checkout itself,
and the two sides swap paths from one pair to the next (both trees are
copied afresh), so that each side's median covers both paths.  Each pair
runs ``perfbench/run.py`` once on each side, per workload, alternating
which side goes first so that a slow drift of the host does not favour
one side; each run lasts perfbench's own default run length, which is
``run_seconds`` in ``BENCHMARK.json``.  The workloads, the end-to-end
metrics and their better direction also come from ``BENCHMARK.json``.  The
summary per workload and metric holds both sides' median and quartiles,
the median ratio, the number of pairs the change won and whether the gap between the
medians exceeds the base's interquartile range.  It is written to
``BENCH_<label>.json`` at the root of the checkout, with the seed, the
per-pair values and copy paths, and both commit ids.  After the timed
pairs, each side
runs each workload once more with ``--trace 1 --seconds 1``; the report
keeps every per-layer figure of that run (``layer_profile``) and each
layer's share of the traced wall time.  Both copies are removed at the
end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIES = ROOT / ".perfbench"
RUNNER = Path("perfbench") / "run.py"
# Length of the one traced run per side and workload, in seconds.
TRACE_SECONDS = 1


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3), with quartiles interpolated between the samples
    (``statistics.quantiles``, inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(base: list[float], change: list[float], better: str) -> dict:
    """Compare paired samples of one metric; pair i is (base[i], change[i]).

    The change wins a pair when it is strictly better there.  ``ratio`` is
    the change's median over the base's.
    """
    if len(base) != len(change) or not base:
        raise ValueError("need the same, nonzero number of base and change samples")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1 if better == "higher" else -1
    b1, b2, b3 = quartiles(base)
    c1, c2, c3 = quartiles(change)
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    return {
        "base": {"median": b2, "q1": b1, "q3": b3, "iqr": b3 - b1},
        "change": {"median": c2, "q1": c1, "q3": c3, "iqr": c3 - c1},
        "ratio": c2 / b2 if b2 else None,
        "change_wins": wins,
        "pairs": len(base),
        "gap_exceeds_base_iqr": sign * (c2 - b2) > b3 - b1,
    }


def git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, env=env,
                          capture_output=True, text=True).stdout.strip()


def _temp_index(name: str) -> tuple[Path, dict]:
    """A fresh index file under ``COPIES`` and the git environment using it,
    so that the checkout's own index is not touched."""
    index = COPIES / f"{name}.index"
    index.unlink(missing_ok=True)
    return index, {**os.environ, "GIT_INDEX_FILE": str(index)}


def working_tree() -> str:
    """The tree id of the checkout's files as they are on disk (untracked
    files included, ignored ones left out)."""
    index, env = _temp_index("work")
    try:
        git("add", "-A", ".", env=env)
        return git("write-tree", env=env)
    finally:
        index.unlink(missing_ok=True)


def copy_tree(dest: Path, tree: str) -> None:
    """Replace ``dest`` with the files of ``tree`` (a tree or commit id)."""
    index, env = _temp_index(dest.name)
    shutil.rmtree(dest, ignore_errors=True)
    try:
        git("read-tree", tree, env=env)
        git("checkout-index", "-a", f"--prefix={dest}/", env=env)
    finally:
        index.unlink(missing_ok=True)


def bench_once(root: Path, workload: str, seed: int,
               trace: bool = False) -> dict:
    """One ``perfbench/run.py`` call in checkout ``root``: its JSON line.
    A traced call lasts ``TRACE_SECONDS`` and reports per-layer metrics."""
    cmd = [sys.executable, str(root / RUNNER), "--workload", workload,
           "--seed", str(seed), "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--seconds", str(TRACE_SECONDS)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root / RUNNER} {workload} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def compare(place, workloads: list[str], pairs: int, seed: int,
            metrics: list[dict]) -> tuple[dict, dict, bool]:
    """Alternate the two sides for ``pairs`` pairs per workload.

    ``place(i)`` puts both trees in place for pair i and returns their
    roots, (base, change).
    """
    runs: dict[str, list] = {w: [] for w in workloads}
    correct = True
    for i in range(pairs):
        roots = dict(zip(("base", "change"), place(i)))
        paths = {side: os.path.relpath(root, ROOT) for side, root in roots.items()}
        for w in workloads:
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {"order": order[0] + "-first", "paths": paths}
            for side in order:
                out = bench_once(roots[side], w, seed)
                correct = correct and out["correct"] and out["failed"] == 0
                pair[side] = {m["name"]: out["metrics"][m["name"]]["value"]
                              for m in metrics}
            runs[w].append(pair)
            print(f"pair {i + 1}/{pairs} {w}: " + ", ".join(
                f"{m['name']} {pair['base'][m['name']]:.6g} -> "
                f"{pair['change'][m['name']]:.6g}" for m in metrics), flush=True)
    summary = {
        w: {m["name"]: {"unit": m["unit"], "better": m["better"],
                        **summarize([p["base"][m["name"]] for p in runs[w]],
                                    [p["change"][m["name"]] for p in runs[w]],
                                    m["better"])}
            for m in metrics}
        for w in workloads
    }
    return summary, runs, correct


def layer_profile(metrics: dict) -> dict:
    """Every per-layer figure of one traced run: its counts, its other
    figures (times, per-cycle figures, shares, bytes) with their units, and
    each layer's self time as a share of the run's traced wall time."""
    wall = metrics["trace.wall_s"]["value"]
    return {
        "counts": {k: m["value"] for k, m in metrics.items()
                   if m["unit"] == "count"},
        "figures": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in metrics.items() if m["unit"] != "count"},
        "wall_share": {k.split(".")[0]: m["value"] / wall
                       for k, m in metrics.items() if k.endswith(".self_s")},
    }


def layers(base_root: Path, change_root: Path, workloads: list[str],
           seed: int) -> tuple[dict, bool]:
    """One traced run per side and workload: its layer profile."""
    profiles: dict[str, dict] = {}
    correct = True
    for w in workloads:
        profiles[w] = {}
        for side, root in (("base", base_root), ("change", change_root)):
            out = bench_once(root, w, seed, trace=True)
            correct = correct and out["correct"] and out["failed"] == 0
            profiles[w][side] = layer_profile(out["metrics"])
        base, change = (profiles[w][side]["counts"] for side in ("base", "change"))
        moved = [f"{k} {base[k]} -> {change[k]}" for k in base
                 if base[k] != change.get(k)]
        print(f"traced {w}: " + (", ".join(moved) or "every count equal"),
              flush=True)
    return profiles, correct


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--base", default="HEAD~1", help="base revision")
    ap.add_argument("--workload", choices=(*names, "all"), default="all")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    workloads = names if args.workload == "all" else [args.workload]
    metrics = benchmark["end_to_end"]
    base_commit = git("rev-parse", args.base)
    change_commit = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain"))
    COPIES.mkdir(exist_ok=True)
    change_tree = working_tree()
    # The src/ tree names the simulator that ran, also when the change is
    # not committed yet.
    base_src = git("rev-parse", f"{base_commit}:src")
    change_src = git("rev-parse", f"{change_tree}:src")
    copies = (COPIES / "copy0", COPIES / "copy1")

    def place(i: int) -> tuple[Path, Path]:
        """Even pairs run the base from copy0, odd pairs from copy1."""
        base_root, change_root = copies if i % 2 == 0 else copies[::-1]
        copy_tree(base_root, base_commit)
        copy_tree(change_root, change_tree)
        return base_root, change_root

    try:
        summary, runs, correct = compare(place, workloads, args.pairs,
                                         args.seed, metrics)
        profiles, traced_correct = layers(*place(0), workloads, args.seed)
        correct = correct and traced_correct
    finally:
        for copy in copies:
            shutil.rmtree(copy, ignore_errors=True)

    report = {
        "label": args.label,
        "base": {"rev": args.base, "commit": base_commit,
                 "src_tree": base_src},
        "change": {"commit": change_commit, "uncommitted_changes": dirty,
                   "src_tree": change_src},
        "seed": args.seed,
        "pairs": args.pairs,
        "seconds_per_run": benchmark["run_seconds"],
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(), "cpus": os.cpu_count()},
        "correct": correct,
        "summary": summary,
        "runs": runs,
        "traced_seconds_per_run": TRACE_SECONDS,
        "layers": profiles,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for w, per_metric in summary.items():
        for name, s in per_metric.items():
            ratio = "n/a" if s["ratio"] is None else f"{s['ratio']:.4f}"
            print(f"{w} {name}: median {s['base']['median']:.6g} -> "
                  f"{s['change']['median']:.6g} (x{ratio}), change won "
                  f"{s['change_wins']}/{s['pairs']}, base IQR "
                  f"{s['base']['iqr']:.4g}")
    print(f"wrote {out.relative_to(ROOT)}; outputs correct on both sides: {correct}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
