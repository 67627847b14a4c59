"""Acceptance suite: every criterion at its stated tolerance.

Each test registers a PASS/FAIL line that the terminal summary prints at
the end of the session (see conftest).
"""

import statistics
import time
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import record_acceptance
from mesosync import defaults_130nm, false_lock_experiment, load_scenario, run
from mesosync.fine_loop import pump_current, pump_integrate
from mesosync.harness import HOLD_DVC_MAX_V
from mesosync.reports import write_outputs
from mesosync.timebase import derive_seed

SCENARIO_FILE = Path(__file__).resolve().parent.parent / "scenarios" / "defaults-130nm.scn"

ALPHAS = [a / 100 for a in range(0, 100, 2)]
N_DELAYS = [0, 1, 2]


@pytest.fixture(scope="module")
def sweep_results():
    base = load_scenario(SCENARIO_FILE)
    t0 = time.monotonic()
    results = []
    i = 0
    for n in N_DELAYS:
        for alpha in ALPHAS:
            scn = replace(base, alpha=alpha, n=n, duration_us=8.0,
                          seed=derive_seed(base.seed, i))
            results.append(run(scn, stop_after_lock_us=1.0))
            i += 1
    return results, time.monotonic() - t0


@pytest.fixture(scope="module")
def jitter_results():
    base = load_scenario(SCENARIO_FILE)
    # Jitter tolerance is a property of the locked loop, so these scenarios
    # park the cold-start phase near the lock point and measure the steady
    # state over the final 10+ us.
    common = dict(alpha=0.62, duration_us=12.5)
    correlated = run(
        replace(base, correlated=True, tx_sin_amp_ui=0.5, tx_sin_freq_hz=1e6,
                dll_mode="tracking", loop_bw_hz=100e6, **common),
        measure_from_us=2.0,
    )
    uncorrelated = {
        (amp, freq): run(
            replace(base, correlated=False, tx_sin_amp_ui=amp,
                    tx_sin_freq_hz=freq, **common),
            measure_from_us=2.0,
        )
        for amp, freq in [(0.1, 50e6), (0.4, 50e6), (0.4, 200e6)]
    }
    return correlated, uncorrelated


def test_criterion_1_lock_sweep(sweep_results):
    results, elapsed = sweep_results
    failures = [
        (m.scenario.alpha, m.scenario.n)
        for m in results
        if not (m.locked and m.phase_error_ui is not None
                and abs(m.phase_error_ui) <= 0.05)
    ]
    worst = max(abs(m.phase_error_ui) for m in results if m.phase_error_ui is not None)
    ok = not failures and elapsed < 300.0
    record_acceptance(
        "1 lock sweep",
        ok,
        f"{len(results)} runs, worst |phase error| {worst:.4f} UI "
        f"(<= 0.05), runtime {elapsed:.1f}s (< 300s)",
    )
    assert not failures, failures
    assert elapsed < 300.0


def test_criterion_2_latency_bound(sweep_results):
    results, _ = sweep_results
    bad = [
        (m.scenario.alpha, m.scenario.n, m.latency_max_t, m.post_lock_violations)
        for m in results
        if m.latency_max_t is None or m.latency_max_t > 3.0
        or m.post_lock_violations or m.missed_deliveries_post_lock
    ]
    worst = max(m.latency_max_t for m in results if m.latency_max_t is not None)
    record_acceptance(
        "2 latency <= 3T, zero setup violations",
        not bad,
        f"max latency {worst:.4f} T, violations 0 across sweep",
    )
    assert not bad, bad


def test_criterion_3_invariants(sweep_results, jitter_results):
    results, _ = sweep_results
    correlated, uncorrelated = jitter_results
    everything = results + [correlated] + list(uncorrelated.values())
    one_hot = sum(m.one_hot_violations for m in everything)
    vc_bounds = sum(m.vc_bound_violations for m in everything)
    monotone_ok = all(m.counter_monotone for m in results)
    ok = one_hot == 0 and vc_bounds == 0 and monotone_ok
    record_acceptance(
        "3 one-hot and Vc-bound invariants",
        ok,
        f"{len(everything)} runs, 0 one-hot / 0 Vc-bound violations, "
        f"cold walks monotone",
    )
    assert ok


def test_criterion_4_correlated_low_freq_jitter(jitter_results):
    correlated, _ = jitter_results
    m = correlated
    window_width = m.scenario.v_dd / 2  # 3Vdd/4 - Vdd/4
    span_us = (m.duration_fs - 2_000_000_000) / 1e9
    ok = (
        m.locked
        and span_us >= 10.0
        and m.ber_errors == 0
        and m.ber_bits >= 12_000
        and m.vc_peak_to_peak_post_lock <= 0.25 * window_width
    )
    record_acceptance(
        "4 correlated 1 MHz 0.5 UI (tracking DLL)",
        ok,
        f"BER {m.ber_errors}/{m.ber_bits} over {span_us:.1f} us, "
        f"Vc pp {m.vc_peak_to_peak_post_lock * 1e3:.0f} mV "
        f"(<= {0.25 * window_width * 1e3:.0f} mV)",
    )
    assert ok


def test_criterion_5_uncorrelated_high_freq_jitter(jitter_results):
    _, uncorrelated = jitter_results
    details = []
    ok = True
    for (amp, freq), m in uncorrelated.items():
        good = m.locked and m.ber_errors == 0 and m.ber_bits >= 12_000
        ok = ok and good
        details.append(f"{amp} UI @ {freq/1e6:.0f} MHz: {m.ber_errors}/{m.ber_bits}")
    record_acceptance("5 uncorrelated HF jitter, up to 0.4 UI", ok, "; ".join(details))
    assert ok


def test_criterion_6_strong_pump_recentering(sweep_results, jitter_results):
    results, _ = sweep_results
    correlated, uncorrelated = jitter_results
    everything = results + [correlated] + list(uncorrelated.values())
    excursions = [
        m.excursion_max_divided
        for m in everything
        if m.excursion_max_divided is not None
    ]
    worst = max(excursions)
    total = sum(len(m.excursions) for m in everything)
    ok = worst <= 2.0
    record_acceptance(
        "6 recentering within 2 divided cycles",
        ok,
        f"{total} excursions, worst {worst:.2f} divided cycles (<= 2)",
    )
    assert ok


def test_criterion_7_charge_pump_slope_oracle():
    # Constant UP for 0.2 us, integrated exactly as the simulator does.
    cfg = defaults_130nm().pump_config()
    i = pump_current(cfg, 1, 0, 0, 0)
    period = 769_231
    v = 0.0
    t = 0
    target = 200_000_000  # 0.2 us in fs
    while t < target:
        dt = min(period, target - t)
        v, _ = pump_integrate(v, i, dt, cfg)
        t += dt
    slope_v_per_us = v / (target / 1e9)
    err = abs(slope_v_per_us - 5.0) / 5.0
    ok = err <= 0.001
    record_acceptance(
        "7 charge-pump slope oracle",
        ok,
        f"measured {slope_v_per_us:.6f} V/us vs 5 V/us ({err * 100:.4f}% <= 0.1%)",
    )
    assert ok


def test_criterion_8_false_lock_study():
    base = replace(load_scenario(SCENARIO_FILE), duration_us=8.0)
    rep = false_lock_experiment(base, phase1_us=2.0, n_seeds=20)
    escapes = [r for r in rep.stochastic_runs if r[1]]
    ok = rep.ok and len(rep.stochastic_runs) == 20 and len(rep.restored_runs) == 20
    spread = sorted(r[2] for r in escapes)
    record_acceptance(
        "8 false edge lock study",
        ok,
        f"hold dVc {rep.hold_dvc_max * 1e3:.3f} mV over 2 us "
        f"(< {HOLD_DVC_MAX_V * 1e3:g} mV); "
        f"stochastic 20/20 escape+lock (escape {spread[0]:.3f}-{spread[-1]:.3f} us); "
        f"restored 20/20 clean",
    )
    assert ok


def test_criterion_9_snapshot_fast_relock():
    base = replace(load_scenario(SCENARIO_FILE), alpha=0.3, duration_us=8.0)
    ref = run(base, stop_after_lock_us=0.2)
    assert ref.locked
    cold, snap = [], []
    for i in range(20):
        seed = derive_seed(4242, i)
        m_cold = run(replace(base, seed=seed), stop_after_lock_us=0.1)
        m_snap = run(
            replace(base, seed=seed, snapshot_hot=ref.final_hot),
            stop_after_lock_us=0.1,
        )
        assert m_cold.locked and m_snap.locked
        cold.append(m_cold.lock_time_fs)
        snap.append(m_snap.lock_time_fs)
    ratio = statistics.median(snap) / statistics.median(cold)
    ok = ratio <= 0.25
    record_acceptance(
        "9 snapshot fast relock",
        ok,
        f"median cold {statistics.median(cold)/1e9:.3f} us, "
        f"snapshot {statistics.median(snap)/1e9:.3f} us, ratio {ratio:.3f} (<= 0.25)",
    )
    assert ok


def test_criterion_10_determinism(tmp_path):
    scn = replace(load_scenario(SCENARIO_FILE), alpha=0.34, duration_us=3.0)
    dirs = []
    for name in ("first", "second"):
        d = tmp_path / name
        write_outputs(run(scn, keep_traces=True), d)
        dirs.append(d)
    files = ["vc_trace.csv", "counter_trace.csv", "eye_hist.csv", "metrics.txt"]
    identical = all(
        (dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes() for f in files
    )
    record_acceptance(
        "10 determinism",
        identical,
        f"{len(files)} output files byte-identical across reruns",
    )
    assert identical
