"""Closed-loop behavior of the full simulation."""

import gc
import math
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import pytest

from mesosync import (defaults_130nm, defaults_65nm, experiments, harness,
                      phase_detector, run, sweep, timebase)
from mesosync.dll_cdt import cdt_transfer
from mesosync.fine_loop import pump_current, pump_integrate, vcdl_delay
from mesosync.harness import Simulation
from mesosync.scenario import ScenarioError, apply_settings, load_scenario
from mesosync.timebase import (
    FS_PER_NS,
    FS_PER_SECOND,
    ClockGen,
    GridClock,
    clamp_voltage,
    derive_seed,
)


BASE = defaults_130nm()
SCN_FILE = Path(__file__).resolve().parent.parent / "scenarios" / "defaults-130nm.scn"


@pytest.fixture(scope="module")
def locked_run():
    scn = replace(BASE, alpha=0.3, duration_us=6.0)
    return run(scn, stop_after_lock_us=1.0, keep_traces=True)


def test_locks_and_centers(locked_run):
    m = locked_run
    assert m.locked
    assert abs(m.phase_error_ui) <= 0.05
    assert m.ber_bits > 500
    assert m.ber_errors == 0


@pytest.mark.parametrize("k_divide, seed, cycles, reported",
                         [(4, 2, 8, True), (3, 1, 6, False)])
def test_sampling_phase_needs_eight_cycles(k_divide, seed, cycles, reported):
    # Runs stopped at their lock instant: a phase history of 8 cycles gives
    # a sampling phase, one of 6 gives none (nor an oracle comparison).
    scn = replace(BASE, alpha=0.3, k_divide=k_divide, seed=seed, duration_us=2.0)
    m = run(scn, stop_after_lock_us=0)
    assert m.locked
    assert m.pd_event_count == cycles
    assert (m.sampling_phase_ui is not None) == reported
    assert (m.phase_error_ui is not None) == reported


def test_counter_walk_monotone(locked_run):
    assert locked_run.counter_monotone
    assert len(locked_run.counter_path) >= 2


def test_latency_and_violations(locked_run):
    assert locked_run.post_lock_violations == 0
    assert 2.0 <= locked_run.latency_max_t <= 3.0


def test_traces_time_ordered(locked_run):
    ts = list(locked_run.vc_times)
    assert ts and ts == sorted(ts)
    assert len(locked_run.vc_volts) == len(ts)
    ts = [row[0] for row in locked_run.counter_trace]
    assert ts and ts == sorted(ts)


def test_invariant_counters_clean(locked_run):
    assert locked_run.one_hot_violations == 0
    assert locked_run.vc_bound_violations == 0


def test_vc_bound_counter_fires_on_rail_clamp():
    # Starting on the upper rail with an early sampling clock, the weak pump
    # drives Vc into the rail and the clamp engages before the coarse loop
    # pulls it back into the window.
    m = run(replace(BASE, vc_init_v=BASE.v_dd, alpha=0.0, duration_us=0.2))
    assert m.vc_bound_violations > 0


def test_run_metrics_memory_per_cycle():
    # A finished run without traces keeps its summary figures, not one
    # record per simulated bit: about 1 B per cycle.  While it runs, the
    # transfer chain holds one block of detector events and deliveries at
    # a time: the peak is about 190 B per cycle on this short run, and
    # falls as runs get longer.
    scn = replace(BASE, alpha=0.3, duration_us=3.0)
    gc.collect()
    tracemalloc.start()
    try:
        m = run(scn)
        gc.collect()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m.pd_event_count > 3000
    assert kept / m.pd_event_count < 200
    assert peak / m.pd_event_count < 350


def _traced_peak(scn, **options) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        run(scn, **options)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_memory_does_not_grow_with_length():
    # Without traces, a run holds one transfer block of detector events and
    # a window of clock edges, whatever its length.
    short = _traced_peak(replace(BASE, alpha=0.3, duration_us=3.0))
    long = _traced_peak(replace(BASE, alpha=0.3, duration_us=8.0))
    assert long < 1.5 * short


def test_kept_trace_memory_per_cycle():
    # A run that keeps its traces holds each Vc point in two typed columns,
    # 16 B, about one point per cycle, and a counter-trace row per coarse
    # step.  The bound leaves no room for a list of (t, v) tuples, which
    # takes about 128 B per cycle.
    short = replace(BASE, alpha=0.3, duration_us=3.0)
    long = replace(BASE, alpha=0.3, duration_us=8.0)
    growth = (_traced_peak(long, keep_traces=True)
              - _traced_peak(short, keep_traces=True))
    cycles = (long.duration_fs - short.duration_fs) // BASE.period
    assert growth / cycles <= 40


# Runs that cross transfer-chain blocks in each measurement state: locked,
# stopped after lock, measured from a later instant, never locked (exit 2)
# and locked with setup violations and missed deliveries (exit 3, from
# receiver-clock jitter the DLL passes on untracked).
BLOCK_RUNS = (
    (replace(BASE, alpha=0.3, duration_us=2.0), {}, 0),
    (replace(BASE, alpha=0.7, duration_us=4.0), {"stop_after_lock_us": 0.5}, 0),
    (replace(BASE, alpha=0.3, duration_us=2.5), {"measure_from_us": 1.5}, 0),
    (replace(BASE, pattern="ones", duration_us=1.0), {}, 2),
    (replace(BASE, alpha=0.3, correlated=False, rx_gauss_sigma_ui=0.05,
             duration_us=2.0), {}, 3),
)


def _run_fields(m):
    return {f.name: getattr(m, f.name) for f in fields(m) if f.name != "scenario"}


@pytest.fixture(scope="module")
def default_block_runs():
    return [run(scn, **kw) for scn, kw, _ in BLOCK_RUNS]


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_transfer_blocks_match_default(monkeypatch, default_block_runs, block):
    # Each delivery depends only on the three detector events after it, so
    # any block size gives the metrics of the default one, exactly.  The
    # blocks arrive in detector order, which must also be the order of the
    # mid-eye samples for the per-block sort to equal one sort of the run.
    # The detector-event count, derived from the cycle index, is the
    # number of cycles run.
    t_centers = []
    cycles = 0
    sim = None
    sample = phase_detector.Sampler.sample

    def recording_transfer(events, phases, rx_clock, chain, lookahead=0):
        out = cdt_transfer(events, phases, rx_clock, chain, lookahead=lookahead)
        t_centers.extend(ev[2] for ev in events[:len(out)])
        return out

    def counted_sample(sampler, *args):
        # One mid-eye sample per cycle.
        nonlocal cycles
        cycles += sampler is sim.center_sampler
        return sample(sampler, *args)

    monkeypatch.setattr(harness, "_CDT_BLOCK", block)
    monkeypatch.setattr(harness, "cdt_transfer", recording_transfer)
    monkeypatch.setattr(phase_detector.Sampler, "sample", counted_sample)
    for (scn, kw, code), ref in zip(BLOCK_RUNS, default_block_runs):
        t_centers.clear()
        cycles = 0
        sim = Simulation(scn, **kw)
        m = sim.run()
        assert ref.exit_code == code
        assert _run_fields(m) == _run_fields(ref)
        assert m.pd_event_count == cycles > 0
        assert len(t_centers) == m.pd_event_count - 1
        assert all(a < b for a, b in zip(t_centers, t_centers[1:]))


@pytest.mark.parametrize("center", [0, 1])
@pytest.mark.parametrize("primed", range(4))
def test_decision_table_is_alexander_step(center, primed):
    # The run's decision table holds alexander_step's answer for every
    # state and sample pair, and the base of the state it steps to.
    state = phase_detector.AlexanderState(center, primed)
    base = 16 * center + 4 * primed
    for edge_sample in (0, 1):
        for center_sample in (0, 1):
            up, dn, retimed, nxt = phase_detector.alexander_step(
                state, edge_sample, center_sample)
            assert harness._DECISIONS[base + 2 * edge_sample + center_sample] == (
                up, dn, retimed, 16 * nxt.center + 4 * nxt.primed)
    assert len(harness._DECISIONS) == 32


# The block runs, a measurement start before lock and jittered 65 nm edges.
TRACE_RUNS = BLOCK_RUNS + (
    (replace(BASE, alpha=0.45, duration_us=3.0), {"measure_from_us": 0.1}, 0),
    (replace(defaults_65nm(), alpha=0.62, correlated=False, tx_sin_amp_ui=0.4,
             tx_sin_freq_hz=200e6, duration_us=3.0), {}, 0),
)


@pytest.mark.parametrize("i", range(len(TRACE_RUNS)))
def test_keep_traces_changes_no_metric(i):
    # Without traces the post-lock Vc peak-to-peak is folded block by block
    # and the clocks drop their old edges; every other figure is the same.
    # Every post-lock bit but the missed ones has one latency, the count
    # the latency mean divides by.
    scn, kw, code = TRACE_RUNS[i]
    kept = run(scn, keep_traces=True, **kw)
    lean = run(scn, **kw)
    assert kept.exit_code == code
    assert (sum(c for _, c in kept.latency_hist)
            == kept.ber_bits - kept.missed_deliveries_post_lock)
    assert kept.vc_times and kept.counter_trace
    assert len(kept.vc_volts) == len(kept.vc_times)
    assert (kept.eye_hist is not None) == kept.locked
    assert not lean.vc_times and not lean.vc_volts and lean.counter_trace == []
    assert lean.eye_hist is None
    traces = ("vc_times", "vc_volts", "counter_trace", "eye_hist")
    assert ({k: v for k, v in _run_fields(kept).items() if k not in traces}
            == {k: v for k, v in _run_fields(lean).items() if k not in traces})


def test_flat_pump_skip_is_exact(monkeypatch):
    # A pump event that keeps the weak levels on a flat Vc segment skips
    # _set_levels; a run that always calls it reports the same figures,
    # with and without traces.  The runs cover strong pulses, window
    # crossings, a lock, a never-locked run and a -0.0 start, which
    # Scenario.vc_start turns into 0.0.
    skipped = 0
    pulses = crossings = 0
    runs = [(scn, kw, keep) for scn, kw, _ in BLOCK_RUNS for keep in (False, True)]
    runs.append((replace(BASE, vc_init_v=-0.0, duration_us=0.5), {}, True))
    fast = [run(scn, keep_traces=keep, **kw) for scn, kw, keep in runs]

    def always_set_levels(self, drive_up, drive_dn):
        nonlocal skipped
        if (self.i == 0.0 and drive_up == self.w_up
                and drive_dn == self.w_dn):
            skipped += 1
        self._set_levels(drive_up, drive_dn, self.s_up, self.s_dn)

    monkeypatch.setattr(Simulation, "_on_pump", always_set_levels)
    for (scn, kw, keep), m in zip(runs, fast):
        ref = run(scn, keep_traces=keep, **kw)
        assert repr(_run_fields(m)) == repr(_run_fields(ref)), (scn.alpha, kw, keep)
        pulses += sum(1 for r in ref.counter_trace if r[4] or r[5])
        crossings += len(ref.excursions)
    assert skipped > 1000 and pulses and crossings
    assert any(m.locked for m in fast) and not all(m.locked for m in fast)


@pytest.mark.parametrize("scn, kw", [
    (replace(BASE, alpha=0.7, duration_us=3.0), {}),
    (replace(BASE, alpha=0.3, correlated=False, rx_gauss_sigma_ui=0.05,
             tx_sin_amp_ui=0.2, tx_sin_freq_hz=50e6, duration_us=2.0), {}),
    (replace(BASE, pattern="alternating",
             alpha=experiments.false_lock_alpha(BASE), duration_us=2.0),
     {"hold_until_us": 1.0}),
], ids=["cold-start", "jittered", "hold-then-stochastic"])
def test_delay_memo_never_stale(monkeypatch, scn, kw):
    # Every sample that OPP or CYCLE takes sits one VCDL delay after the
    # event, and that delay is the curve's value at the current Vc, which
    # is pump_integrate's over the segment so far.
    # A read on a flat segment returns its origin's Vc.
    sim = Simulation(scn, **kw)
    sample = phase_detector.Sampler.sample
    checked = computed = flat = 0

    def checking_sample(self, waveform, t, rng):
        nonlocal checked, flat
        v = pump_integrate(sim.vc, sim.i, sim.now - sim.t_vc, sim.pump)[0]
        assert sim._delay_vc == v, sim.now
        assert t - sim.now == vcdl_delay(v, sim.curve), sim.now
        checked += 1
        flat += sim.i == 0.0
        return sample(self, waveform, t, rng)

    def counting_delay(v, curve):
        nonlocal computed
        computed += 1
        return vcdl_delay(v, curve)

    monkeypatch.setattr(phase_detector.Sampler, "sample", checking_sample)
    monkeypatch.setattr(harness, "vcdl_delay", counting_delay)
    m = sim.run()
    # An OPP whose cycle falls after the end of the run has no CYCLE.
    assert checked - 2 * m.pd_event_count in (0, 1)
    assert computed < checked  # the memo served some samples
    assert flat > 0


def test_segment_table_is_pump_current():
    # Every reachable level set has its pump current and that current's
    # slope in V per fs; no key asserts both strong levels.
    sim = Simulation(BASE)
    assert len(sim._segments) == 12
    for (w_up, w_dn, s_up, s_dn), (i, slope) in sim._segments.items():
        assert not (s_up and s_dn)
        assert i == pump_current(sim.pump, w_up, w_dn, s_up, s_dn)
        assert slope == i / sim.pump.c_filter / FS_PER_SECOND


def test_latency_bin_needs_no_round():
    # _transfer bins a latency x as int(x * 10) / 10: k / 10 is already the
    # double nearest the decimal k/10, which round(..., 1) would return.
    assert all(round(k / 10, 1) == k / 10 for k in range(-100_000, 100_000))


def test_phase_wrap_opp_reads_vc_backwards(monkeypatch):
    # When the ring steps from the last phase to phase 0, the next cycle's
    # OPP lies before the CYCLE just run (here cycle 113's OPP, 0.4 T before
    # cycle 112's CYCLE), and a crossing in between has already moved the
    # segment origin past it.  The OPP then reads Vc at dt < 0, which
    # pump_integrate refuses; the segment's linear expression is what it
    # uses.  The run is `run --set loop.vc_init_v=-0.0 --duration 0.5`.
    # OPP and CYCLE are watched through their samplers: cycle k's OPP is
    # the edge sampler's (k - 1)th sample, cycles being numbered from 2.
    scn = replace(apply_settings(load_scenario(SCN_FILE), {"loop.vc_init_v": "-0.0"}),
                  duration_us=0.5)
    sim = Simulation(scn, keep_traces=True)
    sample = phase_detector.Sampler.sample
    opps = 0
    last_cycle = None
    backward = []

    def watched_sample(self, waveform, t, rng):
        nonlocal opps, last_cycle
        if self is sim.center_sampler:
            last_cycle = sim.now
            return sample(self, waveform, t, rng)
        opps += 1
        if last_cycle is not None and sim.now < last_cycle:
            v = sim.vc + sim.i * (sim.now - sim.t_vc) / FS_PER_SECOND / sim.pump.c_filter
            assert sim._delay_vc == clamp_voltage(v, sim.pump.v_dd)
            backward.append((opps + 1, sim.now, last_cycle, sim.t_vc))
        return sample(self, waveform, t, rng)

    monkeypatch.setattr(phase_detector.Sampler, "sample", watched_sample)
    m = sim.run()
    assert m.counter_path[:3] == [0, 9, 0]
    assert backward == [(113, 86_538_488, 86_846_180, 86_674_856)]
    k, t_opp, t_cycle, t_vc = backward[0]
    assert t_opp < t_vc < t_cycle
    with pytest.raises(ValueError, match="dt must be >= 0"):
        pump_integrate(sim.vc, sim.i, t_opp - t_vc, sim.pump)


@pytest.mark.parametrize("alpha", [0.333, 0.305])
def test_off_grid_alpha_centres(alpha):
    # Off the oracle's 0.01 UI grid no swept phase lands on a bit boundary,
    # so the oracle falls back on the channel's mid-bit phase; the loop
    # locks there too.
    m = run(replace(BASE, alpha=alpha, duration_us=3.0), stop_after_lock_us=0.5)
    assert m.locked
    assert m.oracle_center_ui == (alpha + 0.5) % 1.0
    assert abs(m.phase_error_ui) <= 0.05


@pytest.mark.parametrize("scn", [
    replace(BASE, alpha=0.3, duration_us=2.0),
    replace(BASE, pattern="ones", duration_us=1.0),
], ids=["locking", "ones"])
def test_lock_gate_running_sums(scn):
    # The activity and metastability gates read running totals over one
    # deque of flags, and the drift and margin gates the fronts of two
    # monotone deques; after every lock-detector update they equal a
    # recount of their windows.  The Vc the cycle passes in is Vc at now.
    sim = Simulation(scn)
    lock = sim.lock
    update = lock.update
    checked = 0

    def update_and_recount(now, v, *args):
        nonlocal checked
        assert now == sim.now
        assert v == pump_integrate(sim.vc, sim.i, now - sim.t_vc, sim.pump)[0]
        gate = update(now, v, *args)
        assert lock.act_sum == sum(a for _, a, _ in lock.flags)
        assert lock.meta_sum == sum(f for _, _, f in lock.flags)
        if gate is not None:
            vs = [v for _, v in lock.vc_hist]
            assert lock.vc_max[0][1] == max(vs)
            assert lock.vc_min[0][1] == min(vs)
        checked += 1
        return gate

    lock.update = update_and_recount
    m = sim.run()
    assert checked > 500
    assert m.locked == (scn.pattern != "ones")


def test_two_hot_ring_word_is_counted():
    # RingCounter rejects a word that is not one-hot, so the fault is set
    # around it on the running simulation's ring.  Vc starts above the
    # window, so the first divided edge steps the ring.
    sim = Simulation(replace(BASE, alpha=0.3, vc_init_v=0.93, duration_us=1.0))
    on_divided = sim._on_divided

    def corrupt_then_step(m):
        if m == 1:
            object.__setattr__(sim.ring, "q", 0b11)
        on_divided(m)

    sim._on_divided = corrupt_then_step
    m = sim.run()
    assert m.one_hot_violations >= 1
    assert m.exit_code in (0, 2, 3)


def test_counter_path_reversal_is_not_monotone():
    assert harness._is_monotone([8, 9, 0, 1], 10)       # up, wrapping
    assert harness._is_monotone([2, 1, 0, 9], 10)       # down, wrapping
    assert harness._is_monotone([4], 10)
    assert not harness._is_monotone([3, 4, 5, 4], 10)   # up, then down


def test_zero_duration_is_empty():
    # A zero-duration run takes the path of any other run and ends at
    # t = 0: the ring's start is its one counter_path entry.
    scn = replace(BASE, duration_us=0.0)
    lean = run(scn)
    assert not lean.vc_times and not lean.vc_volts and lean.counter_trace == []
    assert lean.ber_bits == 0 and lean.ber_errors == 0
    for m in (lean, run(scn, keep_traces=True)):
        assert not m.locked and m.pd_event_count == 0
        assert m.counter_path == [0]


def test_comparator_trip_delay_visible():
    # Start with Vc above the window: the strong discharge begins at the
    # first divided edge after the trip delay, and recovery completes
    # within two divided cycles.
    scn = replace(BASE, alpha=0.3, vc_init_v=0.93, duration_us=1.0)
    m = run(scn, keep_traces=True)
    strong_rows = [r for r in m.counter_trace if r[5]]
    assert strong_rows
    first = strong_rows[0][0]
    assert first >= round(6 * FS_PER_NS)
    assert m.excursions
    start, end = m.excursions[0]
    assert start == 0
    assert end - start <= 2 * scn.k_divide * scn.period


def test_divided_clock_cadence():
    scn = replace(BASE, alpha=0.0, duration_us=0.5)
    m = run(scn, keep_traces=True)
    times = [row[0] for row in m.counter_trace]
    diffs = {b - a for a, b in zip(times, times[1:])}
    # Pure divided-edge rows are K*T apart; async events may interleave.
    assert scn.k_divide * scn.period in diffs


def test_event_tiebreak_order(monkeypatch):
    # Simultaneous events run in fixed module priority, then insertion
    # order: the predicted window crossing, kept in its slot beside the
    # heap, runs first, then the heap events, and the cycle slot's OPP or
    # CYCLE last.
    # OPP is watched through the edge sampler, and CYCLE through the
    # detector event it appends: (cycle index, selected phase), the index
    # counting cycles from 2.  The run ends at the probe instant.
    from mesosync.harness import PRIO_DIVIDED, PRIO_PUBLISH, PRIO_PUMP
    t = 999
    sample = phase_detector.Sampler.sample
    for last in ("cycle", "opp"):
        sim = Simulation(replace(BASE, duration_us=t / 1e9))
        end = sim.scn.duration_fs
        assert end == t
        popped = []

        def recorder(name):
            def handler(*args):
                if sim.now == t:
                    popped.append((name, args))
                if name == "crossing":
                    sim.cross = None
            return handler

        class CycleEvents(list):
            def append(self, event):
                if sim.now == t:
                    popped.append(("cycle", (len(self) + 2, event[3])))
                super().append(event)

        def watched_sample(self, waveform, t_sample, rng):
            if self is sim.edge_sampler and sim.now == t:
                popped.append(("opp", ()))
            return sample(self, waveform, t_sample, rng)

        for name in ("crossing", "publish", "strong_end", "divided", "pump"):
            setattr(sim, f"_on_{name}", recorder(name))
        sim.pd_pending = CycleEvents()
        monkeypatch.setattr(phase_detector.Sampler, "sample", watched_sample)
        for prio in (PRIO_PUMP, PRIO_DIVIDED, PRIO_PUBLISH):
            sim._push(t, prio, ("probe",))
        sim._push(t, PRIO_PUMP, ("probe2",))
        # The recorders queue no divided edge; this one keeps the heap from
        # running empty and lies beyond the end of the run.
        sim._push(end + 1, PRIO_DIVIDED, ("sentinel",))
        # OPP runs half a period before the cycle's sampling-clock edge.
        es = t if last == "cycle" else t + sim.T // 2
        sim.next_cycle = (es, 2, 0)
        # run() predicts the first crossing after queueing its own events.
        sim._predict_crossing = lambda: setattr(sim, "cross", (t, "probe"))
        sim.run()
        slot_event = ("cycle", (2, 0)) if last == "cycle" else ("opp", ())
        assert popped == [
            ("crossing", ("probe",)),
            ("publish", ("probe",)),
            ("divided", ("probe",)),
            ("pump", ("probe",)),
            ("pump", ("probe2",)),
            slot_event,
        ], last


def test_crossings_never_enter_the_heap(monkeypatch):
    # Only the newest predicted crossing is valid, so it lives in the slot
    # beside the heap, and each cycle sets the next one in the cycle slot:
    # no heap entry carries the crossing, OPP or CYCLE priority, and the
    # locked run still sees its window crossings.
    from mesosync.harness import PRIO_CROSSING, PRIO_CYCLE, PRIO_OPP
    slot_prios = {PRIO_CROSSING, PRIO_OPP, PRIO_CYCLE}
    # The heap is checked at every OPP and CYCLE sample, so both before
    # and after each cycle's own pushes.
    sim = Simulation(replace(BASE, alpha=0.3, duration_us=1.0))
    sample = phase_detector.Sampler.sample
    on_crossing = sim._on_crossing
    cycles = crossings = 0

    def checked_sample(self, waveform, t, rng):
        nonlocal cycles
        assert all(entry[1] not in slot_prios for entry in sim.heap)
        cycles += self is sim.center_sampler
        return sample(self, waveform, t, rng)

    def counted_crossing(*args):
        nonlocal crossings
        on_crossing(*args)
        crossings += 1

    monkeypatch.setattr(phase_detector.Sampler, "sample", checked_sample)
    sim._on_crossing = counted_crossing
    m = sim.run()
    assert m.locked
    assert cycles > 1000 and crossings > 0
    assert sim.heap
    assert all(entry[1] not in slot_prios for entry in sim.heap)


def test_crossings_and_publications_leave_their_region():
    # A crossing's target comes from the region Vc occupies, so none is
    # predicted into that region again, and every publication changes the
    # published region.  The hunting golden's walk (tests/test_cli.py)
    # crosses the window thresholds many times.
    scn = apply_settings(load_scenario(SCN_FILE), {
        "window.trip_delay_ns": "20", "channel.alpha": "0.05"})
    sim = Simulation(replace(scn, duration_us=3.0))
    on_crossing, on_publish = sim._on_crossing, sim._on_publish
    crossings, publications = [], []

    def recorded_crossing(after):
        crossings.append((sim.actual_region, after))
        on_crossing(after)

    def recorded_publish(region):
        publications.append((sim.published, region))
        on_publish(region)

    sim._on_crossing = recorded_crossing
    sim._on_publish = recorded_publish
    sim.run()
    assert [c for c in crossings if c[0] == c[1]] == []
    assert [p for p in publications if p[0] == p[1]] == []
    assert len(crossings) == 156 and len(publications) == 155


def test_cold_start_shows_strong_pump_resets(locked_run):
    # A multi-step acquisition leaves strong-pump pulses and counter
    # progression in the trace.
    m = locked_run
    steps = len(m.counter_path) - 1
    assert steps >= 2
    strong_rows = [r for r in m.counter_trace if r[4] or r[5]]
    assert len(strong_rows) >= steps
    assert len(m.excursions) >= steps


def test_correlated_clocks_share_edges():
    # Correlated clocks are two objects, one per reach, that draw the same
    # edges; uncorrelated ones differ.
    scn = replace(BASE, correlated=True, tx_sin_amp_ui=0.2, tx_sin_freq_hz=5e6)
    sim = Simulation(scn)
    assert sim.rx_clock is not sim.tx_clock
    tx = [sim.tx_clock.edge(k) for k in range(5000)]
    assert [sim.rx_clock.edge(k) for k in range(5000)] == tx
    assert tx != [k * BASE.period for k in range(5000)]
    scn2 = replace(scn, correlated=False)
    sim2 = Simulation(scn2)
    assert [sim2.rx_clock.edge(k) for k in range(5000)] != tx


def test_quiet_clocks_are_grid_clocks():
    sim = Simulation(BASE)
    assert type(sim.tx_clock) is GridClock
    assert type(sim.rx_clock) is GridClock
    # The settings of the jittered 65 nm benchmark run: only the transmit
    # clock has jitter, and the receiver clock is its own.
    scn = apply_settings(defaults_65nm(), {
        "jitter.correlated": "false",
        "jitter.tx.sin_amp_ui": "0.4",
        "jitter.tx.sin_freq_hz": "200e6",
        "channel.alpha": "0.62",
    })
    sim = Simulation(scn)
    assert type(sim.tx_clock) is ClockGen
    assert type(sim.rx_clock) is GridClock


def _jittered_tracking(correlated):
    """A 20 us tracking-DLL run whose clocks are all jittered ClockGens, the
    receive clock drawing the transmit clock's edges when ``correlated``,
    with a channel delay longer than a clock keeps."""
    rx = {} if correlated else dict(rx_sin_amp_ui=0.05, rx_sin_freq_hz=3e6,
                                    rx_gauss_sigma_ui=0.01)
    return replace(BASE, alpha=0.3, n=2100, duration_us=20.0,
                   dll_mode="tracking", correlated=correlated,
                   tx_sin_amp_ui=0.1, tx_sin_freq_hz=5e6,
                   tx_gauss_sigma_ui=0.01, **rx)


@pytest.fixture(scope="module", params=[True, False], ids=["correlated", "own"])
def tracking_run(request):
    sim = Simulation(_jittered_tracking(request.param))
    return sim, sim.run()


def test_clocks_keep_a_bounded_cache(tracking_run):
    # Every clock drops its own old edges: none holds more than _EDGE_KEEP.
    sim, m = tracking_run
    assert m.locked
    clocks = (sim.tx_clock, sim.rx_clock, sim.dll.ref)
    assert all(type(c) is not GridClock for c in clocks)
    assert len({id(c) for c in clocks}) == 3
    for clock in clocks:
        assert clock._base > 0
        assert len(clock._edges) <= timebase._EDGE_KEEP


def test_edge_keep_covers_the_readers_reach(tracking_run):
    # The farthest reader is the transfer chain, back to the oldest pending
    # detector event from a newest edge up to a block ahead.  A keep of that
    # reach plus a block gives the same run; a larger block or a smaller
    # keep fails here before it fails a user's run.
    sim, m = tracking_run
    keep = harness._CDT_BLOCK + 3 + 2 * timebase._EDGE_BLOCK
    assert keep < timebase._EDGE_KEEP
    with mock.patch.object(timebase, "_EDGE_KEEP", keep):
        short = Simulation(sim.scn).run()
    assert short == m


def test_snapshot_restore_locks_adjacent(locked_run):
    # Re-running the same channel from the saved counter state must land on
    # the same phase give or take one step.
    saved = locked_run.final_hot
    scn = replace(BASE, alpha=0.3, duration_us=6.0, snapshot_hot=saved, seed=77)
    m = run(scn, stop_after_lock_us=0.5)
    assert m.locked
    n = scn.n_phases
    assert min((m.final_hot - saved) % n, (saved - m.final_hot) % n) <= 1


def test_sweep_empty_grid():
    assert sweep(BASE, "channel.alpha", []) == []


def test_sweep_quarter_grid_all_lock():
    res = sweep(replace(BASE, duration_us=6.0), "channel.alpha",
                ["0", "0.25", "0.5", "0.75"], stop_after_lock_us=0.3)
    assert len(res) == 4
    assert all(m.locked for m in res)


def test_sweep_same_seed_identical():
    grid = ["0.1", "0.35"]
    a = sweep(replace(BASE, duration_us=4.0), "channel.alpha", grid,
              stop_after_lock_us=0.5, keep_traces=True)
    b = sweep(replace(BASE, duration_us=4.0), "channel.alpha", grid,
              stop_after_lock_us=0.5, keep_traces=True)
    assert [m.lock_time_fs for m in a] == [m.lock_time_fs for m in b]
    assert all(m.vc_times for m in a)
    assert [m.vc_times for m in a] == [m.vc_times for m in b]
    assert [m.vc_volts for m in a] == [m.vc_volts for m in b]


def test_sweep_propagates_failures_without_aborting():
    res = sweep(replace(BASE, duration_us=1.0), "channel.alpha",
                ["0.2", "1.7", "0.4"], stop_after_lock_us=0.2)
    assert len(res) == 3
    assert res[0].error is None
    assert res[1].error is not None and res[1].exit_code == 2
    assert res[2].error is None


@pytest.mark.parametrize("settle", [-1.0, math.nan, math.inf])
def test_bad_stop_after_lock_is_a_scenario_error(settle):
    # Refused before the first point, not recorded as one error per point.
    # run's other two instants share the check.
    for key in ("stop_after_lock_us", "hold_until_us", "measure_from_us"):
        with pytest.raises(ScenarioError, match=key):
            sweep(BASE, "channel.alpha", ["0.1", "0.3"], **{key: settle})
        with pytest.raises(ScenarioError, match=key):
            run(BASE, **{key: settle})


def test_65nm_scenario_locks():
    scn = replace(defaults_65nm(), alpha=0.3, duration_us=6.0)
    m = run(scn, stop_after_lock_us=0.5)
    assert m.locked
    assert m.ber_errors == 0
    assert m.post_lock_violations == 0
    assert abs(m.phase_error_ui) <= 0.05
    assert m.excursion_max_divided is None or m.excursion_max_divided <= 2.0


def test_exit_codes():
    ok = run(replace(BASE, alpha=0.3, duration_us=5.0), stop_after_lock_us=0.5)
    assert ok.exit_code == 0
    # Constant data carries no phase information: no lock.
    stuck = run(replace(BASE, pattern="ones", duration_us=1.0))
    assert not stuck.locked
    assert stuck.exit_code == 2
