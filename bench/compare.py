#!/usr/bin/env python3
"""Before/after benchmark of a change against its parent commit.

    python3 bench/compare.py --label NAME --pairs 10 --workload steady_130nm
    python3 bench/compare.py --label NAME --base REV --seed 29

Both sides run from twin copies under ``.perfbench/``, at paths of equal
length: ``base`` holds the base revision (``--base``, default ``HEAD~1``)
and ``work`` this checkout's files as they are on disk, uncommitted ones
included.  A run's peak RSS depends on the directory it starts from, so
neither side runs from the checkout itself.  Each pair runs
``perfbench/run.py`` once on each side, per workload, alternating which
side goes first so that a slow drift of the host does not favour one side;
each run lasts perfbench's own default run length, which is
``run_seconds`` in ``BENCHMARK.json``.  The workloads, the end-to-end
metrics and their better direction also come from ``BENCHMARK.json``.  The
summary per workload and metric holds both sides' median and quartiles,
the median ratio, the number of pairs the change won and whether the gap between the
medians exceeds the base's interquartile range.  It is written to
``BENCH_<label>.json`` at the root of the checkout, with the seed, the
per-pair values and both commit ids.  Both copies are removed at the end.
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


def copy_tree(dest: Path, rev: str | None = None) -> str:
    """Write the files of ``rev``, or of the working tree as it is on disk
    (untracked files included, ignored ones left out), to ``dest``; return
    the tree id of their ``src/``.  The copy goes through a scratch index,
    so the checkout's own index is not touched."""
    index = COPIES / f"{dest.name}.index"
    index.unlink(missing_ok=True)
    shutil.rmtree(dest, ignore_errors=True)
    env = {**os.environ, "GIT_INDEX_FILE": str(index)}
    try:
        if rev is None:
            git("add", "-A", ".", env=env)
        else:
            git("read-tree", rev, env=env)
        git("checkout-index", "-a", f"--prefix={dest}/", env=env)
        return git("rev-parse", git("write-tree", env=env) + ":src")
    finally:
        index.unlink(missing_ok=True)


def bench_once(root: Path, workload: str, seed: int) -> dict:
    """One ``perfbench/run.py`` call in checkout ``root``: its JSON line."""
    proc = subprocess.run(
        [sys.executable, str(root / RUNNER), "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root / RUNNER} {workload} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def compare(base_root: Path, change_root: Path, workloads: list[str],
            pairs: int, seed: int, metrics: list[dict]
            ) -> tuple[dict, dict, bool]:
    """Alternate the two sides for ``pairs`` pairs per workload."""
    runs: dict[str, list] = {w: [] for w in workloads}
    correct = True
    for i in range(pairs):
        for w in workloads:
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {"order": order[0] + "-first"}
            for side in order:
                out = bench_once(base_root if side == "base" else change_root,
                                 w, seed)
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
    base_root, change_root = COPIES / "base", COPIES / "work"
    try:
        base_src = copy_tree(base_root, base_commit)
        # The src/ tree names the simulator that ran, also when the change
        # is not committed yet.
        change_src = copy_tree(change_root)
        summary, runs, correct = compare(base_root, change_root, workloads,
                                         args.pairs, args.seed, metrics)
    finally:
        shutil.rmtree(base_root, ignore_errors=True)
        shutil.rmtree(change_root, ignore_errors=True)

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
