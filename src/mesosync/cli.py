"""Command-line front end: run, sweep and falselock subcommands.

Exit codes: 0 all assertions passed, 2 non-convergence, scenario error or
jitter error (a jittered clock edge generated behind its predecessor),
3 timing violation.  A bad ``--set``, ``--settle`` or ``--out`` (not a
directory, or a sweep point directory that is a file) is a scenario error,
reported before anything is simulated.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .harness import false_lock_experiment, run, sweep
from .reports import summary_items, write_outputs
from .scenario import ScenarioError, apply_settings, load_scenario
from .timebase import NonMonotonicEdgeError


def _parse_sets(pairs: list[str]) -> dict[str, str]:
    settings = {}
    for p in pairs:
        if "=" not in p:
            raise ScenarioError(f"--set expects key=value, got {p!r}")
        k, _, v = p.partition("=")
        settings[k.strip()] = v.strip()
    return settings


def _load(args) -> "Scenario":
    scn = load_scenario(args.scenario)
    if args.set:
        scn = apply_settings(scn, _parse_sets(args.set))
    if args.seed is not None:
        scn = replace(scn, seed=args.seed)
    if args.duration is not None:
        scn = replace(scn, duration_us=args.duration)
    return scn


def _make_out(args, points: int) -> None:
    """Create the --out directory before anything is simulated, and refuse
    one where the directory of a sweep point (``points`` of them) is a
    file."""
    if args.out is None:
        return
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ScenarioError(f"--out {args.out}: {e.strerror}") from None
    for i in range(points):
        path = _point_dir(args.out, i)
        if path.exists() and not path.is_dir():
            raise ScenarioError(f"--out {path}: File exists")


def _point_dir(out: str, i: int) -> Path:
    return Path(out) / f"point_{i:03d}"


def cmd_run(args) -> int:
    scn = _load(args)
    _make_out(args, 0)
    m = run(scn, keep_traces=args.out is not None)
    for key, value in summary_items(m):
        print(f"{key} = {value}")
    if args.out:
        write_outputs(m, args.out)
        print(f"outputs written to {Path(args.out).resolve()}")
    return m.exit_code


def cmd_sweep(args) -> int:
    scn = _load(args)
    grid = [g.strip() for g in args.grid.split(",") if g.strip()]
    _make_out(args, len(grid))
    if not grid:
        print("empty grid")
        return 0
    results = sweep(scn, args.param, grid, stop_after_lock_us=args.settle,
                    keep_traces=args.out is not None)
    worst = 0
    print("index,value,locked,lock_time_us,phase_error_ui,ber,latency_max_t,violations")
    for i, (v, m) in enumerate(zip(grid, results)):
        if m.error:
            print(f"{i},{v},error,{m.error}")
            worst = max(worst, 2)
            continue
        lock_us = "" if m.lock_time_fs is None else f"{m.lock_time_fs / 1e9:.3f}"
        perr = "" if m.phase_error_ui is None else f"{m.phase_error_ui:.4f}"
        lmax = "" if m.latency_max_t is None else f"{m.latency_max_t:.3f}"
        print(
            f"{i},{v},{str(m.locked).lower()},{lock_us},{perr},"
            f"{m.ber_errors}/{m.ber_bits},{lmax},{m.post_lock_violations}"
        )
        if args.out:
            write_outputs(m, _point_dir(args.out, i))
        worst = max(worst, m.exit_code)
    return worst


def cmd_falselock(args) -> int:
    scn = _load(args)
    report = false_lock_experiment(scn, n_seeds=args.seeds)
    print(f"alpha_used = {report.alpha_used:.6f}")
    print(f"hold_dvc_max_mv = {report.hold_dvc_max * 1e3:.3f}")
    print(f"hold_locked = {str(report.hold_locked).lower()}")
    for seed, escaped, esc_us, lock_us in report.stochastic_runs:
        e = "-" if esc_us is None else f"{esc_us:.3f}"
        l = "-" if lock_us is None else f"{lock_us:.3f}"
        print(f"stochastic seed={seed} escaped={str(escaped).lower()} "
              f"escape_us={e} lock_us={l}")
    for seed, dwell_us, lock_us in report.restored_runs:
        d = "-" if dwell_us is None else f"{dwell_us:.4f}"
        l = "-" if lock_us is None else f"{lock_us:.3f}"
        print(f"restored seed={seed} dwell_us={d} lock_us={l}")
    print(f"ok = {str(report.ok).lower()}")
    return 0 if report.ok else 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mesosync",
        description="Event-driven simulator of a mesochronous clock synchronizer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("scenario", help="path to a .scn scenario file")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--duration", type=float, default=None,
                        help="simulated duration in microseconds")
    common.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE", help="override a scenario key")

    p_run = sub.add_parser("run", parents=[common], help="single simulation")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", parents=[common], help="parameter sweep")
    p_sweep.add_argument("--param", required=True, help="scenario key to sweep")
    p_sweep.add_argument("--grid", required=True, help="comma-separated values")
    p_sweep.add_argument("--settle", type=float, default=1.0,
                         help="extra simulated us after lock before stopping")
    p_sweep.set_defaults(func=cmd_sweep)

    # Only run and sweep write outputs.
    for p in (p_run, p_sweep):
        p.add_argument("--out", default=None, help="output directory for CSVs")

    p_fl = sub.add_parser("falselock", parents=[common],
                          help="false edge-lock study")
    p_fl.add_argument("--seeds", type=int, default=20)
    p_fl.set_defaults(func=cmd_falselock)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as e:
        print(f"scenario error: {e}", file=sys.stderr)
        return 2
    except NonMonotonicEdgeError as e:
        print(f"jitter error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
