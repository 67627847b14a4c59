#!/usr/bin/env python3
"""mesosync benchmark: host speed, memory and fidelity of four workloads.

    python3 perfbench/run.py --workload steady_130nm --seed 1 --seconds 25
    python3 perfbench/run.py --workload all          # every workload in turn
    python3 perfbench/run.py --workload falselock --trace 1   # per-layer run
    python3 perfbench/run.py --record                # re-record expected.json

Each repeat of a workload runs in a fresh interpreter (perfbench/child.py),
one at a time, until ``--seconds`` have passed (at least three repeats).
Host-time metrics are medians over the repeats; the ``_norm`` ones and
``setup_s`` are scaled to a nominal host speed first (see hostspeed.py).
The last line of the
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``; the exit code is 0 whenever it is printed, and
2 when the benchmark could not run.  With ``--trace 1`` the repeats alternate
between untraced and traced, so the tracing overhead has both bases.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
EXPECTED = HERE / "expected.json"
TRACE_DIR = ROOT / ".perfbench"

# Same names as workloads.WORKLOADS (a test checks it): the parent does not
# import workloads, which imports mesosync and numpy, so that it stays light
# and fails cleanly where the sources are missing.
WORKLOADS = ("steady_130nm", "lock_sweep", "jitter_65nm_out", "falselock")
DEFAULT_SEED = 1
RECORDED_SEEDS = range(32)   # seeds whose output hashes expected.json holds
MIN_REPEATS = 3
CHILD_TIMEOUT_S = 120

# name -> (unit, host or sim, description); the host metrics are measured,
# the sim metrics are modelled-time statistics that repeat exactly for a seed.
END_TO_END = {
    "wall_s": ("s", "host", "wall time of one workload repeat, median"),
    "wall_norm_s": ("s", "host", "wall time at the nominal host speed, median"),
    "cycles_per_s": ("1/s", "host", "simulated bit cycles per host second, median"),
    "cycles_per_norm_s": ("1/s", "host", "cycles_per_s at the nominal host speed"),
    "setup_raw_s": ("s", "host", "fresh interpreter to first Simulation built, median"),
    "setup_s": ("s", "host", "setup_raw_s at the nominal host speed, median"),
    "peak_rss_mb": ("MB", "host", "peak RSS of the repeat's process, median"),
    "host_speed": ("ratio", "host", "nominal / mean probe time, median"),
    "latency_max_t": ("T", "sim", "worst delivery latency in clock periods"),
    "failed_share": ("share", "check", "runs failing their output check / runs"),
    "phase_error_max_ui": ("UI", "sim", "worst |sampling phase - oracle eye centre|"),
    "lock_time_max_us": ("us", "sim", "worst simulated lock time"),
    "ber_errors": ("count", "sim", "post-lock bit errors"),
}
# Metrics named in BENCHMARK.json (never zero); the others are printed only.
REPORTED = ("wall_norm_s", "cycles_per_norm_s", "setup_s", "peak_rss_mb",
            "latency_max_t")


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed output check)."""


def spawn(name: str, seed: int, traced: bool) -> dict:
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), name, str(seed), "1" if traced else "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{name} repeat exceeded {CHILD_TIMEOUT_S} s") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{name} repeat exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["setup_end"] - t0 - result["setup_probe_s"]
    return result


def expected_hash(name: str, seed: int) -> str | None:
    if not EXPECTED.is_file():
        return None
    hashes = json.loads(EXPECTED.read_text(encoding="utf-8"))["hashes"]
    return hashes.get(name, {}).get(str(seed))


def measure(name: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Fresh-process repeats until ``seconds`` have passed."""
    results = []
    start = time.monotonic()
    while len(results) < MIN_REPEATS or time.monotonic() - start < seconds:
        results.append(spawn(name, seed, traced=trace and len(results) % 2 == 1))
    return results


def verify(name: str, seed: int, results: list[dict]) -> list[str]:
    """Output-hash failures: repeats must agree, and match the record."""
    problems = []
    first = results[0]["hash"]
    for r in results[1:]:
        if r["hash"] != first:
            problems.append(f"repeat hash {r['hash'][:12]} != {first[:12]}")
    want = expected_hash(name, seed)
    if want is not None:
        problems += [f"hash {r['hash'][:12]} != recorded {want[:12]}"
                     for r in results if r["hash"] != want]
    return problems


def end_to_end(results: list[dict], attempted: int, failed: int) -> dict:
    """Medians over the untraced repeats; each repeat is scaled to the
    nominal host speed by its own probe before the median is taken."""
    plain = [r for r in results if "layers" not in r]
    sim = plain[0]["sim"]

    def median(f):
        return statistics.median(f(r) for r in plain)

    return {
        "wall_s": median(lambda r: r["wall_s"]),
        "wall_norm_s": median(lambda r: r["wall_s"] * r["host_speed"]),
        "cycles_per_s": median(lambda r: r["sim"]["cycles"] / r["wall_s"]),
        "cycles_per_norm_s":
            median(lambda r: r["sim"]["cycles"] / (r["wall_s"] * r["host_speed"])),
        "setup_raw_s": median(lambda r: r["setup_s"]),
        "setup_s": median(lambda r: r["setup_s"] * r["host_speed"]),
        "peak_rss_mb": median(lambda r: r["peak_rss_mb"]),
        "host_speed": median(lambda r: r["host_speed"]),
        "latency_max_t": sim["latency_max_t"],
        "failed_share": failed / attempted,
        "phase_error_max_ui": sim["phase_error_max_ui"],
        "lock_time_max_us": sim["lock_time_max_us"],
        "ber_errors": sim["ber_errors"],
    }


def per_layer(results: list[dict]) -> dict:
    plain = [r for r in results if "layers" not in r]
    traced = [r for r in results if "layers" in r]
    metrics = {key: statistics.median(r["layers"][key] for r in traced)
               for key in traced[0]["layers"]}
    wall = statistics.median(r["wall_s"] for r in traced)
    base = statistics.median(r["wall_s"] for r in plain)
    metrics["trace.wall_s"] = wall
    metrics["trace.untraced_wall_s"] = base
    metrics["trace.overhead_ratio"] = wall / base
    metrics["trace.cycles"] = traced[0]["sim"]["cycles"]
    return metrics


def write_spans(name: str, seed: int, traced: dict) -> Path:
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{name}-seed{seed}.json"
    spans = [{"name": n, "start_ns": t0, "end_ns": t1, "parent": p}
             for n, t0, t1, p in traced["spans"]]
    path.write_text(json.dumps({"workload": name, "seed": seed, "spans": spans,
                                "layers": traced["layers"]}, indent=1),
                    encoding="utf-8")
    return path


def fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def bench(name: str, seed: int, seconds: float, trace: bool) -> dict:
    results = measure(name, seed, seconds, trace)
    problems = verify(name, seed, results)
    attempted = sum(r["runs"] for r in results)
    failed = sum(r["failed"] for r in results) + len(problems)
    plain = [r for r in results if "layers" not in r]
    print(f"== {name} seed={seed}: {len(results)} fresh-process repeats "
          f"({len(plain)} untraced), {attempted} simulation runs, {failed} failed")
    for r in results:
        for bad in r["failures"]:
            print(f"   FAIL {'; '.join(bad)}")
    for p in problems:
        print(f"   FAIL {p}")

    e2e = end_to_end(results, attempted, failed)
    walls = [r["wall_s"] for r in plain]
    print(f"   wall_s over repeats: min {min(walls):.4f} median "
          f"{statistics.median(walls):.4f} max {max(walls):.4f} (n={len(walls)})")
    for key, (unit, kind, what) in END_TO_END.items():
        print(f"   {key:<20} {fmt(e2e[key]):>12} {unit:<6} [{kind}] {what}")
    metrics = {k: {"value": e2e[k], "unit": END_TO_END[k][0]} for k in REPORTED}
    if trace:
        layers = per_layer(results)
        print(f"   per-layer (traced, median of {len(results) - len(plain)}):")
        for key, value in layers.items():
            print(f"   {key:<34} {fmt(value):>12} {LAYER_UNITS[key]}")
        last = [r for r in results if "layers" in r][-1]
        self_sum = sum(v for k, v in last["layers"].items() if k.endswith(".self_s"))
        print(f"   last traced repeat: layer self times {self_sum:.4f} s + residual "
              f"{last['layers']['trace.residual_s']:.4f} s = traced wall "
              f"{last['wall_s']:.4f} s; spans in "
              f"{write_spans(name, seed, last).relative_to(ROOT)}")
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layers.items()}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def record(names) -> int:
    """Re-record the output hashes of RECORDED_SEEDS (one repeat each)."""
    hashes: dict = {}
    if EXPECTED.is_file():
        hashes = json.loads(EXPECTED.read_text(encoding="utf-8"))["hashes"]
    for name in names:
        hashes[name] = {}
        for seed in RECORDED_SEEDS:
            r = spawn(name, seed, traced=False)
            if r["failed"]:
                print(f"{name} seed {seed}: output check failed, not recording: "
                      f"{r['failures']}")
                return 1
            hashes[name][str(seed)] = r["hash"]
        print(f"{name}: {len(hashes[name])} seeds recorded")
    EXPECTED.write_text(json.dumps({"hashes": hashes}, indent=1) + "\n",
                        encoding="utf-8")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="re-record the output hashes of --workload and exit")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "mesosync" / "__init__.py").is_file():
        print(f"no mesosync sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        if args.record:
            return record(names)
        reports = {n: bench(n, args.seed, args.seconds, bool(args.trace))
                   for n in names}
    except BenchError as e:
        print(f"benchmark could not run: {e}", file=sys.stderr)
        return 2
    if len(reports) == 1:
        (summary,) = reports.values()
    else:
        summary = {
            "correct": all(r["correct"] for r in reports.values()),
            "attempted": sum(r["attempted"] for r in reports.values()),
            "failed": sum(r["failed"] for r in reports.values()),
            "metrics": {f"{n}.{k}": v for n, r in reports.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
