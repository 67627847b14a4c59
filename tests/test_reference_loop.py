"""A plain reference loop against which every scheduling shortcut is exact.

``ReferenceSimulation`` runs the model of ``harness.Simulation`` with both
scheduler slots, each of the nine shortcuts that the ``harness`` docstring
lists and the clocks' edge eviction turned off.  It owns the definitional
OPP and CYCLE handlers, which ``Simulation.run`` runs inline, so the two
loops are independent implementations of the detector cycle:

* no slots: one plain heap, with window crossings at priority 0 (a new
  prediction voids the older ones) and OPP and CYCLE at priorities 5 and 6;
* no flat reads: every Vc read evaluates the segment's linear expression;
  the read may lie before the segment origin at a phase wrap, so it cannot
  go through ``pump_integrate``;
* no flat pump events: every pump event starts a new Vc segment;
* no pump table: every segment calls ``pump_current``;
* no delay memo: every Vc read computes a fresh VCDL delay;
* no cursor samples: samplers that go through
  ``nearest_transition_distance``, ``sample_comparator`` and ``value_at``
  (``DefinitionalSampler``), a bit index from ``bit_at`` and each next
  sampling edge from ``DllPhases.edge``;
* no decision table: each cycle calls ``alexander_step``;
* no clock blocks: a ``ClockGen`` for every clock, quiet ones too,
  generating one edge at a time;
* no edge eviction: every clock keeps every edge it made, since the one
  transfer-chain call reads from edge 0;
* no transfer blocks: one transfer-chain call at the end of the run
  (``_finalize``'s);
* no eye plateaus: an eye histogram that reads every bin with
  ``value_at``.

The property below checks that both loops report the same ``RunMetrics``.
"""

import heapq
from dataclasses import fields, replace
from unittest import mock

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mesosync import (defaults_130nm, defaults_65nm, experiments, harness,
                      phase_detector, timebase)
from mesosync.fine_loop import pump_current, pump_integrate, vcdl_delay
from mesosync.coarse_loop import WITHIN
from mesosync.harness import (
    PRIO_CROSSING,
    PRIO_CYCLE,
    PRIO_DIVIDED,
    PRIO_OPP,
    PRIO_PUMP,
    Simulation,
)
from mesosync.link import RxWaveform
from mesosync.phase_detector import (
    PD_PIPELINE_CYCLES,
    AlexanderState,
    alexander_step,
)
from mesosync.scenario import ScenarioError, apply_settings
from mesosync.timebase import (
    FS_PER_SECOND,
    ClockGen,
    GridClock,
    clamp_voltage,
)
from test_cli import _setting
from test_phase_detector import DefinitionalSampler

BASE = defaults_130nm()


class ReferenceSimulation(Simulation):
    """``Simulation`` with every shortcut off (see the module docstring)."""

    def __init__(self, scn, **kwargs):
        super().__init__(scn, **kwargs)
        self._cross_gen = 0  # the number of the one valid crossing
        c, e = self.center_sampler, self.edge_sampler
        self.center_sampler = DefinitionalSampler(c.tw, c.hold)
        self.edge_sampler = DefinitionalSampler(e.tw, e.hold)
        self.alex = AlexanderState()
        self._edge_sample = 0  # set by each cycle's OPP, read by its CYCLE

    def _vc_at(self, t):
        # The segment's linear expression: at a phase wrap an OPP may lie
        # before the segment origin, which pump_integrate refuses.
        v = self.vc + self.i * (t - self.t_vc) / FS_PER_SECOND / self.pump.c_filter
        return clamp_voltage(v, self.pump.v_dd)

    def _advance_vc(self, t):
        self.vc, clamped = pump_integrate(self.vc, self.i, t - self.t_vc, self.pump)
        if clamped:
            self.totals.vc_bound_violations += 1
        self.t_vc = t

    def _set_levels(self, w_up, w_dn, s_up, s_dn):
        self._advance_vc(self.now)
        self.w_up, self.w_dn, self.s_up, self.s_dn = w_up, w_dn, s_up, s_dn
        self.i = pump_current(self.pump, w_up, w_dn, s_up, s_dn)
        self._slope = self.i / self.pump.c_filter / 1e15
        self.vc_trace.append((self.now, self.vc))
        self._predict_crossing()

    def _on_pump(self, drive_up, drive_dn):
        self._set_levels(drive_up, drive_dn, self.s_up, self.s_dn)

    def _predict_crossing(self):
        super()._predict_crossing()
        self._cross_gen += 1
        if self.cross is not None:
            t, after = self.cross
            self._push(t, PRIO_CROSSING, (self._cross_gen, after))

    def _on_queued_crossing(self, gen, after):
        if gen == self._cross_gen:
            self._on_crossing(after)

    def _on_opp(self):
        t_sample = self.now + vcdl_delay(self._vc_at(self.now), self.curve)
        self._edge_sample = self.edge_sampler.sample(self.waveform, t_sample,
                                                     self.rng_meta)

    def _on_cycle(self, k, n_used):
        hold = self.hold_until_fs
        if hold is not None and self.now >= hold:
            self.center_sampler.hold = self.edge_sampler.hold = False
        v = self._vc_at(self.now)
        t_center = self.now + vcdl_delay(v, self.curve)
        center = self.center_sampler.sample(self.waveform, t_center, self.rng_meta)
        metastable = self.center_sampler.last_was_metastable
        m = self.totals
        if m.first_clean_sample_fs is None and not metastable:
            if hold is None or self.now >= hold:
                m.first_clean_sample_fs = t_center
        up, dn, retimed, self.alex = alexander_step(self.alex,
                                                    self._edge_sample, center)
        # Every event stays pending until the end of the run.
        self.pd_pending.append((self.waveform.bit_at(t_center), retimed,
                                t_center, n_used))
        self._push(t_center + PD_PIPELINE_CYCLES * self.T, PRIO_PUMP, (dn, up))
        self._phase_hist.append(t_center)
        if self.lock.time is None:
            reentry = None
            if self.published == WITHIN and self.actual_region == WITHIN:
                excursions = self.totals.excursions
                reentry = excursions[-1][1] if excursions else 0
            self.lock.update(self.now, v, up, dn, metastable, reentry)
        n_next = self.ring.hot_index
        self.next_cycle = (self.dll.edge(n_next, k + 1), k + 1, n_next)

    def _push_cycle(self):
        es, k, n_used = self.next_cycle
        self._push(es - self.T // 2, PRIO_OPP, ())
        self._push(es, PRIO_CYCLE, (k, n_used))

    def _eye_histogram(self):
        scn = self.scn
        waveform = RxWaveform(self.bits, scn.channel_config(),
                              self._new_tx_clock())
        bins = harness._EYE_BINS
        counts = {}
        centres = [
            (round((b + 0.5) * self.T / bins), round((b + 0.5) / bins, 4))
            for b in range(bins)
        ]
        start_bit = waveform.bit_at(self.lock.time) + 1
        for j in range(start_bit, start_bit + harness._EYE_BITS):
            base = waveform.boundary(j)
            for offset, phase in centres:
                key = (phase, round(waveform.value_at(base + offset), 3))
                counts[key] = counts.get(key, 0) + 1
        return sorted((p, v, c) for (p, v), c in counts.items())

    def run(self):
        end = self.scn.duration_fs
        self._push(self.rx_clock.edge(self.K), PRIO_DIVIDED, (1,))
        self._predict_crossing()
        self._push_cycle()
        handlers = (self._on_queued_crossing, self._on_publish,
                    self._on_strong_end, self._on_divided, self._on_pump,
                    self._on_opp, self._on_cycle)
        while True:
            t, prio, _, args = heapq.heappop(self.heap)
            if t > end:
                break
            self.now = t
            handlers[prio](*args)
            if prio == PRIO_CYCLE:
                if self.lock.time is not None and self.stop_after_lock_fs is not None:
                    end = min(end, self.lock.time + self.stop_after_lock_fs)
                self._push_cycle()
        self.now = end
        self._advance_vc(end)
        self.vc_trace.append((end, self.vc))
        return self._finalize(end)


def _clock_gen(period, jitter, rng=None, name="clk"):
    return ClockGen(period, jitter, rng, name)


def reference_run(scn, **kwargs):
    """``ReferenceSimulation(scn, **kwargs).run()`` with every clock a
    ``ClockGen`` that generates one edge at a time and keeps them all."""
    with mock.patch.object(harness, "make_clock", _clock_gen), \
            mock.patch.object(timebase, "_EDGE_BLOCK", 1), \
            mock.patch.object(timebase, "_EDGE_KEEP", 1 << 62):
        sim = ReferenceSimulation(scn, **kwargs)
        assert all(type(c) is not GridClock
                   for c in (sim.tx_clock, sim.rx_clock))
        return sim.run()


def _outcome(simulate, scn, kwargs):
    """The run's fields but ``scenario`` (repr, so -0.0 and nan count), or
    the error it raised."""
    try:
        m = simulate(scn, **kwargs)
    except Exception as e:  # both loops must fail alike
        return f"{type(e).__name__}: {e}"
    return repr({f.name: getattr(m, f.name) for f in fields(m)
                 if f.name != "scenario"})


def _simulation_run(scn, **kwargs):
    return Simulation(scn, **kwargs).run()


def test_reference_samples_through_sample_comparator():
    # The reference's samplers take the definitional path, so the property
    # below compares two different ways of sampling.
    scn = replace(BASE, alpha=0.3, duration_us=0.05)
    with mock.patch.object(phase_detector, "sample_comparator",
                           wraps=phase_detector.sample_comparator) as spy:
        m = reference_run(scn)
        reference_calls = spy.call_count
        _simulation_run(scn)
    # Two samples per cycle, and maybe the edge sample of an unfinished one;
    # the harness's own samplers make no call.
    assert reference_calls - 2 * m.pd_event_count in (0, 1)
    assert m.pd_event_count > 0 and spy.call_count == reference_calls


# The 65 nm link with sinusoidal transmit jitter and gaussian receive
# jitter: it locks, so its eye histogram and block-drawn edges are compared.
JITTER_65NM = ["sim.bit_rate_hz=4e9", "supply.v_dd=1.0", "coarse.k_divide=32",
               "jitter.correlated=false", "jitter.tx.sin_amp_ui=0.4",
               "jitter.tx.sin_freq_hz=200e6", "jitter.rx.gauss_sigma_ui=0.02",
               "channel.alpha=0.62"]


# Runs that lock, hunt, clamp on a rail, start at -0.0 and wrap the ring,
# hold metastable samples, jitter the transmit clock and jitter both clocks
# at 4 Gb/s.
@example(sets=["channel.alpha=0.3"], duration="2", stop=None, hold=None)
@example(sets=["channel.alpha=0.7"], duration="3", stop=0.5, hold=None)
@example(sets=["window.trip_delay_ns=20", "channel.alpha=0.05"],
         duration="3", stop=None, hold=None)
@example(sets=["loop.vc_init_v=1.2", "channel.alpha=0"], duration="0.2",
         stop=None, hold=None)
@example(sets=["loop.vc_init_v=-0.0"], duration="0.5", stop=None, hold=None)
@example(sets=["data.pattern=alternating",
               f"channel.alpha={experiments.false_lock_alpha(BASE)!r}"],
         duration="1.5", stop=0.2, hold=1.0)
@example(sets=["jitter.correlated=false", "jitter.tx.sin_amp_ui=0.4",
               "jitter.tx.sin_freq_hz=200e6"], duration="1", stop=None, hold=None)
@example(sets=JITTER_65NM, duration="1.5", stop=None, hold=None)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    sets=st.lists(_setting(), max_size=3),
    duration=st.sampled_from(["0", "0.05", "0.3", "1"]),
    stop=st.sampled_from([None, 0.2]),
    hold=st.sampled_from([None, 0.1]),
)
def test_reference_loop_matches(sets, duration, stop, hold):
    try:
        scn = apply_settings(BASE, dict(s.split("=", 1) for s in sets))
        scn = replace(scn, duration_us=float(duration)).validate()
    except ScenarioError:
        assume(False)
    kwargs = {"stop_after_lock_us": stop, "hold_until_us": hold}
    for keep in (False, True):
        got = _outcome(_simulation_run, scn, {**kwargs, "keep_traces": keep})
        ref = _outcome(reference_run, scn, {**kwargs, "keep_traces": keep})
        assert got == ref, (sets, duration, stop, hold, keep)


_EYE_JITTER = (
    st.builds(lambda amp, freq: {"jitter.tx.sin_amp_ui": repr(amp),
                                 "jitter.tx.sin_freq_hz": repr(freq)},
              st.floats(min_value=0.0, max_value=0.45),
              st.floats(min_value=1e6, max_value=5e8))
    | st.builds(lambda sigma: {"jitter.tx.gauss_sigma_ui": repr(sigma)},
                st.floats(min_value=0.0, max_value=0.1))
)


@settings(max_examples=12, deadline=None)
@given(
    base=st.sampled_from([BASE, defaults_65nm()]),
    bins=st.sampled_from([1, 7, 100, 1000]),
    transition_ui=st.floats(min_value=0.0, max_value=0.9),
    alpha=st.floats(min_value=0.0, max_value=0.99),
    jitter=_EYE_JITTER,
    seed=st.integers(min_value=0, max_value=2**32),
    lock_ui=st.floats(min_value=0.0, max_value=3000.0),
)
def test_eye_histogram_matches_bin_by_bin(base, bins, transition_ui, alpha,
                                          jitter, seed, lock_ui):
    # Bins on a bit's plateau are counted without a value_at call; every
    # count equals the loop that reads each bin, ramps and bins past a bit
    # shortened by jitter included.
    scn = apply_settings(base, {"channel.transition_time_ui": repr(transition_ui),
                                "channel.alpha": repr(alpha),
                                "sim.seed": str(seed), **jitter})
    sim = ReferenceSimulation(scn)
    sim.lock.time = round(lock_ui * sim.T)
    with mock.patch.object(harness, "_EYE_BINS", bins):
        assert Simulation._eye_histogram(sim) == sim._eye_histogram()
