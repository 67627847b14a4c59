"""Benchmark workloads: inputs from a seed, runners, and the output check.

Every scenario seed is derived from the workload seed, so one workload seed
fixes every input.  The runners call the simulator through its public entry
points (``harness.run``, ``cli.main``, ``false_lock_experiment``); the
``RunMetrics`` of each simulation are collected by wrapping
``Simulation.run`` for the duration of the workload.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from dataclasses import replace
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
sys.path.insert(0, str(ROOT / "src"))

from mesosync import cli, harness  # noqa: E402
from mesosync.scenario import Scenario, apply_settings, load_scenario  # noqa: E402
from mesosync.timebase import derive_seed  # noqa: E402

WORKLOADS = ("steady_130nm", "lock_sweep", "jitter_65nm_out", "falselock")

STEADY_US = 20.0
SWEEP_N = (0, 1, 2)
SWEEP_ALPHAS = (0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95)
SWEEP_SETTLE_US = 1.0
JITTER_US = 6.0
JITTER_SETTINGS = (
    ("jitter.correlated", "false"),
    ("jitter.tx.sin_amp_ui", "0.4"),
    ("jitter.tx.sin_freq_hz", "200e6"),
    ("channel.alpha", "0.62"),
)
FALSELOCK_SEEDS = 4

# Acceptance gates, as in tests/test_acceptance.py.
PHASE_ERROR_MAX_UI = 0.05
LATENCY_MAX_T = 3.0
HOLD_DVC_MAX_V = 0.010
RESTORED_DWELL_MAX_US = 0.05

# RunMetrics fields whose values are hashed to detect any change in the
# simulated outputs.  Text summaries are left out on purpose: counters may
# be added to them without changing the simulation.
HASH_FIELDS = (
    "lock_time_fs",
    "final_hot",
    "counter_path",
    "pd_event_count",
    "ber_errors",
    "ber_bits",
    "latency_max_t",
    "latency_mean_t",
    "latency_hist",
    "phase_error_ui",
    "vc_final",
    "excursion_max_divided",
)


def inputs(name: str, seed: int) -> list[Scenario]:
    """Scenarios a workload runs, in order, all derived from ``seed``."""
    base = load_scenario(SCENARIOS / "defaults-130nm.scn")
    if name == "steady_130nm":
        return [replace(base, alpha=0.3, duration_us=STEADY_US,
                        seed=derive_seed(seed, 0))]
    if name == "lock_sweep":
        return [
            replace(base, n=n, alpha=a, duration_us=8.0, seed=derive_seed(seed, i))
            for i, (n, a) in enumerate(product(SWEEP_N, SWEEP_ALPHAS))
        ]
    if name == "jitter_65nm_out":
        scn = apply_settings(load_scenario(SCENARIOS / "defaults-65nm.scn"),
                             dict(JITTER_SETTINGS))
        return [replace(scn, duration_us=JITTER_US, seed=derive_seed(seed, 0))]
    if name == "falselock":
        return [replace(base, duration_us=8.0, seed=derive_seed(seed, 0))]
    raise ValueError(f"unknown workload: {name!r}")


def jitter_argv(scn: Scenario, outdir: Path) -> list[str]:
    """``mesosync run`` arguments that rebuild ``scn`` from the 65 nm file."""
    argv = ["run", str(SCENARIOS / "defaults-65nm.scn")]
    for key, value in JITTER_SETTINGS:
        argv += ["--set", f"{key}={value}"]
    return argv + ["--seed", str(scn.seed), "--duration", repr(scn.duration_us),
                   "--out", str(outdir)]


@contextlib.contextmanager
def collect_runs():
    """Collect the RunMetrics of every ``Simulation.run`` inside the block."""
    sim_cls = harness.Simulation
    original = sim_cls.__dict__["run"]
    runs: list = []

    def run(self):
        m = original(self)
        runs.append(m)
        return m

    sim_cls.run = run
    try:
        yield runs
    finally:
        sim_cls.run = original


def execute(name: str, scns: list[Scenario], outdir: Path):
    """Run one repeat of a workload; returns what its check needs.

    Simulations run back to back in this process, each waiting for the one
    before it (a closed loop with one client).
    """
    if name == "steady_130nm":
        return [harness.run(s) for s in scns]
    if name == "lock_sweep":
        return [harness.run(s, stop_after_lock_us=SWEEP_SETTLE_US) for s in scns]
    if name == "jitter_65nm_out":
        with contextlib.redirect_stdout(io.StringIO()):
            return [cli.main(jitter_argv(s, outdir)) for s in scns]
    if name == "falselock":
        return [harness.false_lock_experiment(s, phase1_us=2.0,
                                              n_seeds=FALSELOCK_SEEDS)
                for s in scns]
    raise ValueError(f"unknown workload: {name!r}")


def _locked_run_failures(m, with_oracle: bool) -> list[str]:
    bad = []
    if m.error is not None:
        bad.append(f"error {m.error}")
    if not m.locked:
        bad.append("not locked")
    if with_oracle and (m.phase_error_ui is None
                        or abs(m.phase_error_ui) > PHASE_ERROR_MAX_UI):
        bad.append(f"phase error {m.phase_error_ui}")
    if m.latency_max_t is None or m.latency_max_t > LATENCY_MAX_T:
        bad.append(f"latency {m.latency_max_t}")
    if m.post_lock_violations or m.missed_deliveries_post_lock:
        bad.append(f"{m.post_lock_violations} violations, "
                   f"{m.missed_deliveries_post_lock} missed deliveries")
    if m.ber_errors:
        bad.append(f"{m.ber_errors} bit errors")
    if m.one_hot_violations or m.vc_bound_violations:
        bad.append("invariant violation")
    return bad


def check(name: str, runs: list, outcome) -> list[list[str]]:
    """Failures of each collected run against the gates that apply to it."""
    if name in ("steady_130nm", "lock_sweep"):
        return [_locked_run_failures(m, with_oracle=True) for m in runs]
    if name == "jitter_65nm_out":
        failures = [_locked_run_failures(m, with_oracle=False) for m in runs]
        for bad, code in zip(failures, outcome):
            if code != 0:
                bad.append(f"exit code {code}")
        return failures
    if name == "falselock":
        (report,) = outcome
        n = FALSELOCK_SEEDS
        if len(runs) != 2 * n + 2:
            return [[f"expected {2 * n + 2} legs, got {len(runs)}"]]
        hold, stoch, ref, restored = runs[0], runs[1:n + 1], runs[n + 1], runs[n + 2:]
        failures = [[] for _ in runs]
        if report.hold_locked or report.hold_dvc_max >= HOLD_DVC_MAX_V:
            failures[0].append(f"hold leg moved {report.hold_dvc_max} V "
                               f"or locked ({hold.locked})")
        for i, (_, escaped, _, lock_us) in enumerate(report.stochastic_runs):
            if not (escaped and lock_us is not None):
                failures[1 + i].append("stochastic leg did not escape and lock")
        for i, (_, dwell, lock_us) in enumerate(report.restored_runs):
            if dwell is None or dwell >= RESTORED_DWELL_MAX_US or lock_us is None:
                failures[n + 2 + i].append(f"restored leg dwell {dwell}")
        for i, m in enumerate([*stoch, ref, *restored], start=1):
            failures[i] += _locked_run_failures(m, with_oracle=False)
        return failures
    raise ValueError(f"unknown workload: {name!r}")


def outputs_hash(runs: list) -> str:
    """SHA-256 over HASH_FIELDS of every run, in run order."""
    rows = [[getattr(m, f) for f in HASH_FIELDS] for m in runs]
    text = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def sim_metrics(runs: list) -> dict:
    """Modelled-time statistics of one workload repeat (None: not defined)."""
    locks = [m.lock_time_fs / 1e9 for m in runs if m.lock_time_fs is not None]
    lats = [m.latency_max_t for m in runs if m.latency_max_t is not None]
    perr = [abs(m.phase_error_ui) for m in runs if m.phase_error_ui is not None]
    return {
        "cycles": sum(m.pd_event_count for m in runs),
        "lock_time_max_us": max(locks, default=None),
        "latency_max_t": max(lats, default=None),
        "phase_error_max_ui": max(perr, default=None),
        "ber_errors": sum(m.ber_errors for m in runs),
    }
