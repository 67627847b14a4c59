"""Deterministic event-driven simulation of the full synchronizer loop.

One simulation owns a single scheduler; simultaneous events are ordered by
a fixed per-module priority, then by insertion sequence, so repeated runs
of the same scenario produce byte-identical traces.  The scheduler is a
heap plus two slots, and ``Simulation.run`` merges them in that order:

* The crossing slot (``cross``) holds the control voltage's predicted
  window crossing.  Every change of the pump levels starts a new Vc
  segment and replaces the prediction, so at most one crossing is ever
  pending.  It has the first priority and runs before any heap event at
  the same instant.
* The heap holds the publish, strong-end, divided-clock and pump events,
  ordered by (time, priority, insertion sequence).
* The cycle slot (``next_cycle``) holds the detector's next cycle.  Each
  cycle sets the next one, so exactly one is pending; it runs as two
  events, the edge sample (OPP) half a period before the cycle's
  sampling-clock edge and the cycle itself (CYCLE) at the edge.  They have
  the two last priorities, so every heap event or crossing at or before
  their instant runs first.

Loop wiring (see fine_loop for the sign conventions): the detector's UP
output flags a late sampling clock and therefore drives the pump's
discharge input, while DN (early) drives the charge input.  The control
voltage rises when more delay is needed; leaving the comparator window
upward selects the next-later DLL phase with a strong discharge pulse.

Two exact shortcuts spare the fine loop work whose result is known.  A
pump event that keeps the weak levels while the segment is flat (slope
0.0) only records its trace point: a zero-current segment leaves Vc
bit-identical and no crossing is pending, so no new segment starts.  OPP
and CYCLE reuse the last VCDL delay while Vc equals the value it was
computed for.

The transfer chain runs during the simulation: every ``_CDT_BLOCK``
detector events pass through ``cdt_transfer`` together with the two
events after them that their deliveries depend on; each of its stages
walks its clock's edges once per block.  BER, violation and
latency figures are folded into running totals, so memory does not hold
one record per simulated bit.  Each block also folds the control-voltage
points into the post-lock Vc extremes and lets the clocks drop the edges
more than ``_EDGE_LOOKBACK`` periods old.  Unless a run keeps its traces
(``keep_traces``, which ``--out`` sets), ``vc_trace`` and
``counter_trace`` come back empty and a run's memory does not grow with
its length.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field, replace

from . import oracle as _oracle
from .coarse_loop import (
    ABOVE,
    BELOW,
    WITHIN,
    CoarseFsm,
    RingCounter,
    fsm_step,
    ring_step,
    window_classify,
)
from .dll_cdt import CdtChain, cdt_transfer
from .fine_loop import FineLoopState, pump_current, pump_integrate, vcdl_delay
from .link import BitSource, RxWaveform
from .phase_detector import (
    HOLD,
    PD_PIPELINE_CYCLES,
    STOCHASTIC,
    AlexanderState,
    MetastabilityModel,
    Sampler,
    alexander_step,
)
from .scenario import Scenario, ScenarioError
from .timebase import ClockGen, Rng, SimTime, clamp_voltage, derive_seed

# Fixed tiebreak order for simultaneous events (low value runs first).  The
# heap priorities 1-4 also index the event's handler in Simulation.run;
# crossings, OPP and CYCLE are never queued on the heap but kept in slots
# (see the module docstring).
PRIO_CROSSING = 0
PRIO_PUBLISH = 1
PRIO_STRONG_END = 2
PRIO_DIVIDED = 3
PRIO_PUMP = 4
PRIO_OPP = 5
PRIO_CYCLE = 6

_PHASE_HISTORY = 64  # cycles averaged for the final sampling-phase estimate
_EYE_BITS = 512      # bits folded into the eye histogram after lock
_CDT_BLOCK = 1024    # detector events delivered per transfer-chain call
# Clock edges kept behind the current period.  The transfer chain reaches
# back no further than the oldest pending detector event (at most 1,027 of
# them, one per cycle) and SEEK_PERIODS more for its seeks, and jitter keeps
# every edge within a period of its nominal instant; this covers both with
# margin, wherever in the block the edges are dropped.
_EDGE_LOOKBACK = 2048


@dataclass
class RunMetrics:
    """Everything a run reports; traces are strictly time-ordered.

    ``vc_trace``, ``counter_trace`` and ``eye_hist`` are filled only when
    the run keeps its traces (``keep_traces``); otherwise they stay empty
    (``eye_hist`` None).
    """

    scenario: Scenario
    locked: bool = False
    lock_time_fs: int | None = None
    sampling_phase_ui: float | None = None
    oracle_center_ui: float | None = None
    phase_error_ui: float | None = None
    ber_errors: int = 0
    ber_bits: int = 0
    latency_max_t: float | None = None
    latency_mean_t: float | None = None
    latency_hist: list = field(default_factory=list)  # (bin_t, count), 0.1T bins
    post_lock_violations: int = 0
    total_violations: int = 0
    missed_deliveries_post_lock: int = 0
    excursion_max_divided: float | None = None
    one_hot_violations: int = 0
    vc_bound_violations: int = 0
    counter_monotone: bool = True
    final_hot: int = 0
    vc_final: float = 0.0
    vc_peak_to_peak_post_lock: float | None = None
    pd_event_count: int = 0
    duration_fs: int = 0
    vc_trace: list = field(default_factory=list)
    counter_trace: list = field(default_factory=list)
    counter_path: list = field(default_factory=list)
    excursions: list = field(default_factory=list)
    eye_hist: list | None = None
    first_clean_sample_fs: int | None = None
    error: str | None = None

    @property
    def exit_code(self) -> int:
        if self.error is not None:
            return 2
        if not self.locked:
            return 2
        if self.post_lock_violations or self.missed_deliveries_post_lock:
            return 3
        return 0


class Simulation:
    """Single closed-loop run of a scenario."""

    def __init__(
        self,
        scn: Scenario,
        *,
        hold_until_fs: SimTime | None = None,
        stop_after_lock_fs: SimTime | None = None,
        measure_from_fs: SimTime | None = None,
        keep_traces: bool = False,
    ):
        scn.validate()
        self.scn = scn
        self.T = scn.period
        self.N = scn.n_phases
        self.K = scn.k_divide
        self.hold_until_fs = hold_until_fs
        self.stop_after_lock_fs = stop_after_lock_fs
        self.measure_from_fs = measure_from_fs
        self.keep_traces = keep_traces

        self.rng_meta = Rng(derive_seed(scn.seed, 0))
        self.bits = BitSource(scn.pattern, derive_seed(scn.seed, 3))

        self.tx_clock = self._new_tx_clock()
        if scn.correlated:
            # Receiver reference shares the transmitter's edge offsets.
            self.rx_clock = self.tx_clock
        else:
            self.rx_clock = ClockGen(self.T, scn.jitter()[1],
                                     Rng(derive_seed(scn.seed, 2)), name="rx")

        self.waveform = RxWaveform(self.bits, scn.channel_config(), self.tx_clock)
        self.window = scn.window_comparator()
        self.pump = scn.pump_config()
        self.curve = scn.vcdl_curve()
        self.dll = scn.dll_phases(self.rx_clock)

        preset = scn.snapshot_hot if scn.snapshot_hot >= 0 else 0
        self.ring = RingCounter(self.N, 1 << preset)
        self.fsm = CoarseFsm()
        self.vc = scn.vc_start()
        self.t_vc: SimTime = 0
        self.w_up = self.w_dn = 0
        self.s_up = self.s_dn = 0
        self.strong_gen = 0
        # Vc slope of the current pump levels: flat while every level is off.
        self.slope = 0.0
        # The last VCDL delay and the Vc it was computed for (see _on_opp).
        self._delay_vc: float | None = None
        self._delay_fs: SimTime = 0

        meta = scn.metastability_model()
        if hold_until_fs is not None:
            meta = replace(meta, resolution_mode=HOLD)
        self.center_sampler = Sampler(meta)
        self.edge_sampler = Sampler(meta)
        self.alex = AlexanderState()

        self.heap: list = []
        # The one valid predicted window crossing, (t, region after), or
        # None; see _predict_crossing.
        self.cross: tuple[SimTime, str] | None = None
        # The pending detector cycle, (sampling-clock edge, cycle index,
        # selected phase); each cycle sets the next one (see _on_cycle).
        n0 = self.ring.hot_index
        self.next_cycle: tuple[SimTime, int, int] = (self.dll.edge(n0, 2), 2, n0)
        self.seq = 0
        self.now: SimTime = 0

        # Traces and bookkeeping.  Without keep_traces each transfer block
        # folds vc_trace into the post-lock extremes and empties it.
        self.vc_trace: list[tuple[SimTime, float]] = [(0, self.vc)]
        self._vc_hi: float | None = None
        self._vc_lo: float | None = None
        self.counter_trace: list = []
        self.counter_path: list[int] = [self.ring.hot_index]
        # Detector events not yet delivered, (bit_id, value, t_center,
        # phase), at most _CDT_BLOCK + 3; running totals of the delivered
        # ones (see _transfer).
        self.pd_pending: list[tuple[int, int, SimTime, int]] = []
        self.pd_event_count = 0
        self.chain = CdtChain(
            period=self.T,
            t_setup=round(scn.t_setup_ui * self.T),
            t_hold=round(scn.t_hold_ui * self.T),
        )
        self.totals = RunMetrics(scenario=scn)
        self._lat_sum = 0.0
        self._lat_count = 0
        self._lat_hist: dict[float, int] = {}
        self.excursions: list[tuple[SimTime, SimTime | None]] = []
        self.one_hot_violations = 0
        self.vc_bound_violations = 0
        self.lock_time: SimTime | None = None
        self.last_ring_change: SimTime = 0
        self.last_nonwithin: SimTime = 0
        self.first_clean_sample: SimTime | None = None
        self._edge_sample: int | None = None
        self._vc_hist: deque = deque()
        # Monotone deques over _vc_hist: their fronts are its max and min.
        self._vc_max: deque = deque()
        self._vc_min: deque = deque()
        # (t, active decision, metastable sample) per pre-lock cycle, and
        # running totals of both flags.
        self._flag_hist: deque = deque()
        self._act_sum = 0
        self._meta_sum = 0
        self._phase_hist: deque = deque(maxlen=_PHASE_HISTORY)

        self.actual_region = window_classify(self.vc, self.window)
        self.published = self.actual_region
        if self.actual_region != WITHIN:
            self.excursions.append((0, None))

    # -- scheduling ------------------------------------------------------

    def _push(self, t: SimTime, prio: int, args: tuple):
        heapq.heappush(self.heap, (t, prio, self.seq, args))
        self.seq += 1

    # -- control voltage segments ----------------------------------------

    def _vc_at(self, t: SimTime) -> float:
        v = self.vc + self.slope * (t - self.t_vc)
        return clamp_voltage(v, self.pump.v_dd)

    def _advance_vc(self, t: SimTime):
        state = pump_integrate(
            FineLoopState(self.vc),
            self.w_up,
            self.w_dn,
            self.s_up,
            self.s_dn,
            t - self.t_vc,
            self.pump,
        )
        self.vc = state.v_c
        if state.clamped:
            self.vc_bound_violations += 1
        self.t_vc = t

    def _set_levels(self, w_up: int, w_dn: int, s_up: int, s_dn: int):
        """Start a new Vc segment at ``now`` with these weak and strong
        pump levels."""
        self._advance_vc(self.now)
        self.w_up = w_up
        self.w_dn = w_dn
        self.s_up = s_up
        self.s_dn = s_dn
        i = pump_current(self.pump, w_up, w_dn, s_up, s_dn)
        self.slope = i / self.pump.c_filter / 1e15
        self.vc_trace.append((self.now, self.vc))
        self._predict_crossing()

    def _predict_crossing(self):
        """Replace the pending crossing with the one the current segment
        reaches first, if any.

        A new segment starts at every level change, and each prediction
        starts from the segment origin, so only the newest prediction is
        ever valid: it is kept in ``cross`` rather than on the heap.
        """
        self.cross = None
        slope = self.slope
        if slope == 0.0:
            return
        v = self.vc
        w = self.window
        # The nearest threshold ahead of Vc, and the region beyond it.
        if slope > 0.0:
            if v <= w.v_low:
                target, after = w.v_low, WITHIN
            elif v <= w.v_high:
                target, after = w.v_high, ABOVE
            else:
                return
        elif v >= w.v_high:
            target, after = w.v_high, WITHIN
        elif v >= w.v_low:
            target, after = w.v_low, BELOW
        else:
            return
        dt = (target - v) / slope
        self.cross = (self.t_vc + max(1, math.ceil(dt)), after)

    # -- event handlers ---------------------------------------------------

    def _on_crossing(self, after: str):
        # Move the segment origin to the crossing so the next prediction
        # starts from the threshold (exact: the segment is linear).
        self._advance_vc(self.now)
        prev = self.actual_region
        self.actual_region = after
        if prev == WITHIN and after != WITHIN:
            self.excursions.append((self.now, None))
        elif prev != WITHIN and after == WITHIN:
            if self.excursions and self.excursions[-1][1] is None:
                self.excursions[-1] = (self.excursions[-1][0], self.now)
            self.last_nonwithin = self.now
        self._push(self.now + self.window.trip_delay, PRIO_PUBLISH, (after,))
        self._predict_crossing()

    def _on_publish(self, region: str):
        self.published = region
        fsm, _, _, s_up, s_dn = fsm_step(self.fsm, region, False)
        changed = fsm != self.fsm
        self.fsm = fsm
        if region == WITHIN and (self.s_up or self.s_dn):
            # Asynchronous reset truncates the strong pulse at window entry.
            self.strong_gen += 1
            self._set_levels(self.w_up, self.w_dn, 0, 0)
            changed = True
        if changed:
            self._trace_counter()

    def _on_strong_end(self, gen: int):
        if gen != self.strong_gen:
            return
        if self.s_up or self.s_dn:
            self._set_levels(self.w_up, self.w_dn, 0, 0)
            self._trace_counter()

    def _on_divided(self, m: int):
        fsm, stepped, direction, s_up, s_dn = fsm_step(self.fsm, self.published, True)
        self.fsm = fsm
        if stepped and direction is not None:
            # ring_step rejects a word that is not one-hot; RingCounter
            # already rejects one at construction, so only a word set
            # around it (object.__setattr__) reaches this branch.
            try:
                self.ring = ring_step(self.ring, direction)
            except ValueError:
                self.one_hot_violations += 1
            self.last_ring_change = self.now
            self.counter_path.append(self.ring.hot_index)
        if (s_up, s_dn) != (self.s_up, self.s_dn):
            self.strong_gen += 1
            self._set_levels(self.w_up, self.w_dn, s_up, s_dn)
            if s_up or s_dn:
                self._push(
                    self.now + self.K * self.T, PRIO_STRONG_END, (self.strong_gen,)
                )
        self._trace_counter()
        nxt = self.rx_clock.edge((m + 1) * self.K)
        self._push(nxt, PRIO_DIVIDED, (m + 1,))

    def _trace_counter(self):
        if not self.keep_traces:
            return
        self.counter_trace.append(
            (
                self.now,
                self.ring.hot_index,
                self.fsm.enable,
                self.fsm.up_dn,
                self.s_up,
                self.s_dn,
            )
        )

    def _on_opp(self):
        # OPP and CYCLE reuse the last VCDL delay while Vc has not moved
        # (the curve is a pure function of Vc).
        v = self._vc_at(self.now)
        if v != self._delay_vc:
            self._delay_vc = v
            self._delay_fs = vcdl_delay(v, self.curve)
        t_sample = self.now + self._delay_fs
        self._edge_sample = self.edge_sampler.sample(
            self.waveform, t_sample, self.rng_meta
        )

    def _on_cycle(self, k: int, n_used: int):
        if self.hold_until_fs is not None and self.now >= self.hold_until_fs:
            if self.center_sampler.model.resolution_mode == HOLD:
                stoch = MetastabilityModel(
                    self.center_sampler.model.time_window_tw, STOCHASTIC
                )
                self.center_sampler.model = stoch
                self.edge_sampler.model = stoch
        v = self._vc_at(self.now)
        if v != self._delay_vc:
            self._delay_vc = v
            self._delay_fs = vcdl_delay(v, self.curve)
        t_center = self.now + self._delay_fs
        center_val = self.center_sampler.sample(self.waveform, t_center, self.rng_meta)
        if self.first_clean_sample is None and not self.center_sampler.last_was_metastable:
            if self.hold_until_fs is None or self.now >= self.hold_until_fs:
                self.first_clean_sample = t_center
        edge_val = self._edge_sample if self._edge_sample is not None else center_val
        self._edge_sample = None
        up, dn, retimed, self.alex = alexander_step(self.alex, edge_val, center_val)

        bit_id = self.waveform.bit_at(t_center)
        self.pd_event_count += 1
        self.pd_pending.append((bit_id, retimed, t_center, n_used))
        if len(self.pd_pending) == _CDT_BLOCK + 3:
            self._transfer(lookahead=2)

        # Late clock (UP) discharges, early clock (DN) charges: more control
        # voltage means more delay.  Applied one bit period per evaluation,
        # two cycles after the mid-eye sample.
        self._push(t_center + PD_PIPELINE_CYCLES * self.T, PRIO_PUMP, (dn, up))

        self._update_lock(t_center, up, dn, v)

        n_next = self.ring.hot_index
        self.next_cycle = (self.dll.edge(n_next, k + 1), k + 1, n_next)

    def _on_pump(self, drive_up: int, drive_dn: int):
        if self.slope == 0.0 and drive_up == self.w_up and drive_dn == self.w_dn:
            # A flat segment needs no new one: integrating it would leave Vc
            # bit-identical (it never starts at -0.0, see Scenario.vc_start),
            # the stale segment origin is read only as 0.0 * dt, and no
            # crossing is pending.  The point stays for a lock declared at
            # this instant.
            self.vc_trace.append((self.now, self.vc))
            return
        self._set_levels(drive_up, drive_dn, self.s_up, self.s_dn)

    # -- transfer chain ----------------------------------------------------

    def _measure_start(self) -> SimTime | None:
        """Start of the post-lock measurement window, None before lock."""
        if self.lock_time is None or self.measure_from_fs is None:
            return self.lock_time
        return max(self.lock_time, self.measure_from_fs)

    def _transfer(self, lookahead: int):
        """Deliver the pending events but the last ``lookahead`` + 1.

        Each event is re-timed at the next event's mid-eye sample, so the
        newest event only supplies a retiming edge.  A block runs three
        detector cycles after the last sample it delivers (about 3 T, with
        the sample at most 1 UI after its cycle), so when no lock has been
        declared yet, a later lock instant lies after every sample in the
        block, which then counts only towards ``total_violations``, as in
        one pass over the whole run.  Mid-eye samples rise strictly in
        detector order, as ``cdt_transfer`` requires, so deliveries come
        out in ``(t_center, bit_id)`` order.
        """
        pending = self.pd_pending
        deliveries = cdt_transfer(
            pending[:-1], [ev[2] for ev in pending[1:]], self.dll,
            self.rx_clock, self.chain, lookahead=lookahead,
        )
        del pending[:len(deliveries)]
        start = self._measure_start()
        forget = self.now // self.T - _EDGE_LOOKBACK
        self.tx_clock.forget_before(forget)
        self.rx_clock.forget_before(forget)
        self.dll.forget_before(forget)
        if not self.keep_traces:
            if start is not None:
                self._fold_vc(start)
                self.vc_trace.clear()
            else:
                # A lock declared at this instant still counts the points
                # set at it before this cycle.
                now = self.now
                self.vc_trace[:] = [p for p in self.vc_trace if p[0] == now]
        m = self.totals
        bit = self.bits.bit
        hist = self._lat_hist
        for d in deliveries:
            m.total_violations += len(d.violations)
            if start is None or d.t_center < start:
                continue
            m.ber_bits += 1
            m.post_lock_violations += len(d.violations)
            if d.t_deliver <= 0:
                m.missed_deliveries_post_lock += 1
                continue
            if d.value != bit(d.bit_id):
                m.ber_errors += 1
            x = d.latency / self.T
            # Summed left to right in delivery order, so the mean does not
            # depend on the block size.
            self._lat_sum += x
            self._lat_count += 1
            if m.latency_max_t is None or x > m.latency_max_t:
                m.latency_max_t = x
            b = round(int(x * 10) / 10, 1)
            hist[b] = hist.get(b, 0) + 1

    def _fold_vc(self, start: SimTime):
        """Fold the vc_trace points at or after ``start`` into the running
        post-lock Vc extremes."""
        hi, lo = self._vc_hi, self._vc_lo
        for t, v in self.vc_trace:
            if t >= start:
                if hi is None or v > hi:
                    hi = v
                if lo is None or v < lo:
                    lo = v
        self._vc_hi, self._vc_lo = hi, lo

    # -- lock detection ----------------------------------------------------

    def _update_lock(self, t_center: SimTime, up: int, dn: int, v: float):
        """One lock-detector update per cycle; ``v`` is Vc at ``now``."""
        self._phase_hist.append((t_center % self.T) / self.T)
        if self.lock_time is not None:
            return  # the gate histories below are read only before lock
        win = self.scn.lock_window_divided * self.K * self.T
        point = (self.now, v)
        self._vc_hist.append(point)
        vc_max, vc_min = self._vc_max, self._vc_min
        while vc_max and vc_max[-1][1] <= v:
            vc_max.pop()
        vc_max.append(point)
        while vc_min and vc_min[-1][1] >= v:
            vc_min.pop()
        vc_min.append(point)
        act = 1 if (up ^ dn) else 0
        meta = 1 if self.center_sampler.last_was_metastable else 0
        flags = self._flag_hist
        flags.append((self.now, act, meta))
        self._act_sum += act
        self._meta_sum += meta
        horizon = self.now - win
        while len(self._vc_hist) > 2 and self._vc_hist[1][0] <= horizon:
            self._vc_hist.popleft()
        oldest = self._vc_hist[0][0]
        while vc_max[0][0] < oldest:
            vc_max.popleft()
        while vc_min[0][0] < oldest:
            vc_min.popleft()
        while flags and flags[0][0] < horizon:
            _, old_act, old_meta = flags.popleft()
            self._act_sum -= old_act
            self._meta_sum -= old_meta
        if self.published != WITHIN or self.actual_region != WITHIN:
            return
        if self.now - self.last_ring_change < win:
            return
        if self.now - self.last_nonwithin < win and self.last_nonwithin > 0:
            return
        if self._vc_hist[0][0] > horizon + self.T:
            return  # not enough history yet
        activity = self._act_sum
        if activity < max(1, len(flags) // 4):
            return
        # A one-directional acquisition creep moves Vc by one pump step per
        # active decision, whatever the data transition density; the locked
        # limit cycle stays well under that.  Bounding the window excursion
        # by a fraction of the activity-driven maximum separates the two.
        v_max = vc_max[0][1]
        v_min = vc_min[0][1]
        step_v = self.pump.weak_slope_v_per_fs * self.T
        drift_bound = self.scn.lock_drift_frac * activity * step_v
        if v_max - v_min > drift_bound:
            return
        # Equilibria hugging a comparator threshold are one dither step from
        # a coarse hop: only an interior control voltage counts as locked.
        margin = self.scn.lock_vc_margin_frac * (self.window.v_high - self.window.v_low)
        if v_min < self.window.v_low + margin or v_max > self.window.v_high - margin:
            return
        # Mid-eye samples landing in the metastability window mean the loop
        # is parked on a data edge, not in the eye.
        if self._meta_sum:
            return
        self.lock_time = self.now

    # -- main loop ---------------------------------------------------------

    def run(self) -> RunMetrics:
        scn = self.scn
        end = scn.duration_fs
        if end <= 0:
            return RunMetrics(scenario=scn, final_hot=self.ring.hot_index,
                              vc_final=self.vc)

        self._push(self.rx_clock.edge(self.K), PRIO_DIVIDED, (1,))
        self._predict_crossing()

        # Indexed by heap priority: the one table mapping heap event kinds
        # to handlers.
        handlers = (
            None,                  # PRIO_CROSSING: the crossing slot
            self._on_publish,      # PRIO_PUBLISH
            self._on_strong_end,   # PRIO_STRONG_END
            self._on_divided,      # PRIO_DIVIDED
            self._on_pump,         # PRIO_PUMP
        )
        on_crossing = self._on_crossing
        on_opp = self._on_opp
        on_cycle = self._on_cycle
        half = self.T // 2
        heap = self.heap
        pop = heapq.heappop
        es, k, n_used = self.next_cycle
        # The cycle slot's next event: OPP at es - T/2, then CYCLE at es.
        due = es - half
        opp_next = True
        # The divided clock always has its next edge queued, so the heap
        # never runs empty.
        while True:
            t = heap[0][0]
            cross = self.cross
            if cross is not None and cross[0] <= t:
                # The crossing slot ranks first among events at one instant.
                t = cross[0]
            else:
                cross = None
            if t <= due:
                if t > end:
                    break
                self.now = t
                if cross is None:
                    _, prio, _, args = pop(heap)
                    handlers[prio](*args)
                else:
                    on_crossing(cross[1])
                continue
            # OPP and CYCLE rank last: every heap event and crossing up to
            # their instant has run.
            if due > end:
                break
            self.now = due
            if opp_next:
                on_opp()
                due = es
                opp_next = False
                continue
            on_cycle(k, n_used)
            if self.lock_time is not None and self.stop_after_lock_fs is not None:
                end = min(end, self.lock_time + self.stop_after_lock_fs)
            es, k, n_used = self.next_cycle
            due = es - half
            opp_next = True

        self.now = end
        self._advance_vc(end)
        self.vc_trace.append((end, self.vc))
        return self._finalize(end)

    # -- metrics -----------------------------------------------------------

    def _finalize(self, end: SimTime) -> RunMetrics:
        """Complete the running totals into the run's metrics.

        The last transfer-chain call delivers the pending tail with no
        look-ahead, so the end of the run is treated as in one pass.
        """
        scn = self.scn
        m = self.totals
        m.duration_fs = end
        m.locked = self.lock_time is not None
        m.lock_time_fs = self.lock_time
        m.vc_trace = self.vc_trace if self.keep_traces else []
        m.counter_trace = self.counter_trace
        m.counter_path = self.counter_path
        m.final_hot = self.ring.hot_index
        m.vc_final = self.vc
        m.one_hot_violations = self.one_hot_violations
        m.vc_bound_violations = self.vc_bound_violations
        m.pd_event_count = self.pd_event_count
        m.first_clean_sample_fs = self.first_clean_sample
        m.excursions = [e for e in self.excursions if e[1] is not None]
        if m.excursions:
            div = self.K * self.T
            m.excursion_max_divided = max((b - a) / div for a, b in m.excursions)
        m.counter_monotone = _is_monotone(self.counter_path, self.N)

        # Sampling phase and oracle comparison (locked runs with clean
        # clocks only): before lock the phase history is acquisition, not a
        # centring error.
        if self.lock_time is not None and len(self._phase_hist) >= 8:
            m.sampling_phase_ui = _circular_mean(list(self._phase_hist))
        tx_jit, rx_jit = scn.jitter()
        quiet = tx_jit.is_quiet and (scn.correlated or rx_jit.is_quiet)
        if quiet and m.sampling_phase_ui is not None and scn.pattern == "prbs15":
            center = _oracle.eye_center_phase(
                self.bits,
                scn.n,
                scn.alpha,
                scn.transition_time_ui,
            )
            if not math.isnan(center):
                m.oracle_center_ui = center
                m.phase_error_ui = _oracle.wrap_ui(m.sampling_phase_ui - center)

        # Transfer chain tail, BER and latency over the delivered stream.
        if self.pd_event_count >= 2:
            self._transfer(lookahead=0)
            m.ber_errors += m.missed_deliveries_post_lock
            if self._lat_count:
                m.latency_mean_t = self._lat_sum / self._lat_count
                m.latency_hist = sorted(self._lat_hist.items())
            start = self._measure_start()
            if start is not None:
                self._fold_vc(start)
                if self._vc_hi is not None:
                    m.vc_peak_to_peak_post_lock = self._vc_hi - self._vc_lo

        if self.keep_traces and self.lock_time is not None:
            m.eye_hist = self._eye_histogram()
        return m

    def _new_tx_clock(self) -> ClockGen:
        """A transmitter clock from edge 0; every one draws the same edges."""
        return ClockGen(self.T, self.scn.jitter()[0],
                        Rng(derive_seed(self.scn.seed, 1)), name="tx")

    def _eye_histogram(self) -> list:
        # The run's transmitter clock has dropped its old edges; a fresh one
        # draws the same edges again.
        scn = self.scn
        waveform = RxWaveform(self.bits, scn.channel_config(),
                              self._new_tx_clock())
        bins = scn.eye_bins
        counts: dict[tuple[float, float], int] = {}
        # (offset into the bit in fs, phase in UI) at each bin centre.
        centres = [
            (round((b + 0.5) * self.T / bins), round((b + 0.5) / bins, 4))
            for b in range(bins)
        ]
        start_bit = waveform.bit_at(self.lock_time) + 1
        for j in range(start_bit, start_bit + _EYE_BITS):
            base = waveform.boundary(j)
            for offset, phase in centres:
                key = (phase, round(waveform.value_at(base + offset), 3))
                counts[key] = counts.get(key, 0) + 1
        return sorted((p, v, c) for (p, v), c in counts.items())


def _is_monotone(path: list[int], n: int) -> bool:
    if len(path) < 2:
        return True
    steps = {(b - a) % n for a, b in zip(path, path[1:])}
    return steps <= {1} or steps <= {n - 1}


def _circular_mean(phases: list[float]) -> float:
    s = sum(math.sin(2 * math.pi * p) for p in phases)
    c = sum(math.cos(2 * math.pi * p) for p in phases)
    return (math.atan2(s, c) / (2 * math.pi)) % 1.0


def run(
    scn: Scenario,
    *,
    keep_traces: bool = False,
    stop_after_lock_us: float | None = None,
    hold_until_us: float | None = None,
    measure_from_us: float | None = None,
) -> RunMetrics:
    """Execute one scenario to completion and collect metrics.

    ``keep_traces`` keeps ``vc_trace``, ``counter_trace`` and the eye
    histogram in the result; without it their memory is not spent.
    ``measure_from_us`` pushes the start of the post-lock measurement window
    later than the detector's lock instant (useful when jitter makes the
    lock instant itself fuzzy but the steady state is what matters).
    """
    sim = Simulation(
        scn,
        hold_until_fs=None if hold_until_us is None else round(hold_until_us * 1e9),
        stop_after_lock_fs=(
            None if stop_after_lock_us is None else round(stop_after_lock_us * 1e9)
        ),
        measure_from_fs=(
            None if measure_from_us is None else round(measure_from_us * 1e9)
        ),
        keep_traces=keep_traces,
    )
    return sim.run()


def sweep(
    base: Scenario,
    param: str,
    grid: list,
    *,
    stop_after_lock_us: float | None = None,
    keep_traces: bool = False,
) -> list[RunMetrics]:
    """Independent runs over a parameter grid with derived per-point seeds.

    Failures are recorded on the result rather than aborting the sweep.
    """
    from .scenario import apply_settings

    results = []
    for i, value in enumerate(grid):
        try:
            scn = apply_settings(base, {param: str(value)})
            scn = replace(scn, seed=derive_seed(base.seed, i))
            results.append(run(scn, stop_after_lock_us=stop_after_lock_us,
                               keep_traces=keep_traces))
        except Exception as e:  # record per-point failures, keep sweeping
            m = RunMetrics(scenario=base, error=f"{type(e).__name__}: {e}")
            results.append(m)
    return results


@dataclass
class FalseLockReport:
    alpha_used: float
    hold_dvc_max: float
    hold_locked: bool
    stochastic_runs: list  # (seed, escaped, escape_after_switch_us, lock_us)
    restored_runs: list    # (seed, dwell_us, lock_us)

    @property
    def all_stochastic_escaped_and_locked(self) -> bool:
        return all(e and (l is not None) for _, e, _, l in self.stochastic_runs)

    @property
    def restored_never_false_locked(self) -> bool:
        return all(
            (dw is not None and dw < 0.05 and l is not None)
            for _, dw, l in self.restored_runs
        )


def false_lock_alpha(scn: Scenario) -> float:
    """Channel alpha that parks the cold-start sampling edge on transitions."""
    d = vcdl_delay(scn.vc_start(), scn.vcdl_curve())
    return (d % scn.period) / scn.period


def false_lock_experiment(
    scn: Scenario,
    *,
    phase1_us: float = 2.0,
    n_seeds: int = 20,
    run_us: float = 8.0,
) -> FalseLockReport:
    """Three-legged study of the half-period unstable equilibrium.

    Leg 1 holds every metastable sample at its previous value, pinning the
    loop at the wrong edge: the control voltage must stay put and no lock
    may be declared.  Leg 2 repeats the hold phase, then switches the
    comparators to random resolution: every seed must escape the
    equilibrium and lock.  Leg 3 restores a snapshot near the correct
    lock: the loop must never dwell at the false equilibrium.  Legs 2
    and 3 need at least one seed each.
    """
    if n_seeds < 1:
        raise ScenarioError(f"the false-lock study needs at least one seed, "
                            f"got {n_seeds}")
    alpha = false_lock_alpha(scn)
    base = replace(
        scn,
        alpha=alpha,
        pattern="alternating",
        duration_us=max(phase1_us, scn.duration_us),
    )

    hold_scn = replace(base, resolution="hold", duration_us=phase1_us)
    hold_m = run(hold_scn, keep_traces=True)
    v0 = hold_scn.vc_start()
    dvc = max((abs(v - v0) for _, v in hold_m.vc_trace), default=0.0)

    stoch_runs = []
    for i in range(n_seeds):
        s = replace(
            base,
            duration_us=phase1_us + run_us,
            seed=derive_seed(scn.seed, 100 + i),
        )
        mm = run(s, hold_until_us=phase1_us, stop_after_lock_us=0.5)
        escaped = mm.first_clean_sample_fs is not None
        stoch_runs.append(
            (
                s.seed,
                escaped,
                None if not escaped
                else mm.first_clean_sample_fs / 1e9 - phase1_us,
                None if mm.lock_time_fs is None else mm.lock_time_fs / 1e9,
            )
        )

    # Reference lock for the snapshot leg: same channel, random resolution.
    ref = run(
        replace(base, resolution="stochastic", duration_us=run_us,
                seed=derive_seed(scn.seed, 99)),
        stop_after_lock_us=0.5,
    )
    restored_runs = []
    if ref.locked:
        for i in range(n_seeds):
            s = replace(
                base,
                resolution="stochastic",
                duration_us=run_us,
                seed=derive_seed(scn.seed, 200 + i),
                snapshot_hot=ref.final_hot,
            )
            mm = run(s, stop_after_lock_us=0.5)
            dwell = (
                None
                if mm.first_clean_sample_fs is None
                else mm.first_clean_sample_fs / 1e9
            )
            restored_runs.append(
                (
                    s.seed,
                    dwell,
                    None if mm.lock_time_fs is None else mm.lock_time_fs / 1e9,
                )
            )

    return FalseLockReport(
        alpha_used=alpha,
        hold_dvc_max=dvc,
        hold_locked=hold_m.locked,
        stochastic_runs=stoch_runs,
        restored_runs=restored_runs,
    )
