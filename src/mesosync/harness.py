"""Deterministic event-driven simulation of the full synchronizer loop:
the event scheduler, the closed loop and the run's record.  ``run`` makes
one run; the studies made of many runs are in ``experiments``.

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
  their instant runs first.  Both run inline in ``run``; the heap events
  go through its handler table and a crossing through ``_on_crossing``.

Loop wiring (see fine_loop for the sign conventions): the detector's UP
output flags a late sampling clock and therefore drives the pump's
discharge input, while DN (early) drives the charge input.  The control
voltage rises when more delay is needed; leaving the comparator window
upward selects the next-later DLL phase with a strong discharge pulse.

Each Vc segment carries one pump current and its slope; ``pump_integrate``
defines Vc along it.  Nine exact shortcuts spare work whose result is
known; ``ReferenceSimulation`` (``tests/test_reference_loop.py``) turns
them and both scheduler slots off, and must report the same figures:

* flat reads: on a zero-current (flat) segment Vc is its origin's value,
  on or between the rails and never -0.0, so reading or advancing it
  skips the integration and the clamp;
* flat pump events: one that keeps the weak levels on a flat segment only
  records its trace point; no segment starts and no crossing is pending;
* the pump table: a new segment (``_set_levels``) looks its current and
  slope up in a table that ``__init__`` fills from ``pump_current``;
* the delay memo: OPP and CYCLE reuse the last VCDL delay while Vc stays;
* cursor samples: each detector sample is one ``Sampler.sample`` call on
  the waveform's cursor, which also gives the bit index; the next edge
  comes from the DLL's reference clock, not from ``DllPhases.edge``;
* the decision table: each cycle looks its Alexander decision up in
  ``_DECISIONS``, which ``alexander_step`` fills at import for its 8
  states and 4 sample pairs (the reference's cycle calls ``alexander_step``);
* clock blocks: a quiet clock is a ``GridClock``, and a jittered one
  generates its edges in blocks;
* transfer blocks and eye plateaus, both described below.

The coarse loop's state is the published comparator region
(``published``): the ring direction at a divided edge (``fsm_step``) and
the control FSM's ``enable``/``up_dn`` outputs are functions of it.  Until
lock, each cycle passes Vc, its decision and the end of the last window
excursion to the lock detector (``lock.LockDetector``).

Each run keeps one record, its ``RunMetrics`` (``Simulation.totals``),
and each fact in it once.  The invariant counters, ``counter_path`` and
``counter_trace`` are written by the handlers where they happen, and the
transfer chain's totals by ``_transfer``; ``_finalize`` adds only what
needs the end of the run.  What follows from another fact is derived:
the detector-event count from the cycle index, and the latency mean's
divisor from the BER counts.  A run of zero duration takes the same path
and ends at t = 0.

The transfer chain runs during the simulation: every ``_CDT_BLOCK``
detector events pass through ``cdt_transfer`` together with the three
events after them that their deliveries depend on; each of its stages
walks its clock's edges once per block.  BER, violation and
latency figures are folded into running totals, so memory does not hold
one record per simulated bit.  Each block also lets the clocks drop the
edges more than ``_EDGE_LOOKBACK`` periods old, and takes the block's
control-voltage points (``vc_trace``, one ``(t, v)`` tuple per point) but
those set at ``now``: it folds the post-lock ones into the Vc extremes and
then, if the run keeps its traces (``keep_traces``, which ``--out`` sets),
moves them into the record's two columns, ``vc_times`` (fs, ``array('q')``)
and ``vc_volts`` (``array('d')``), 16 B a point; otherwise it drops them.
``_finalize`` takes the rest the same way.  Without ``keep_traces`` the
columns and ``counter_trace`` come back empty and a run's memory does not
grow with its length.

A locked run that keeps its traces ends with the eye histogram: the
receive waveform at each bin centre of ``_EYE_BITS`` bits from lock,
redrawn from a fresh transmitter clock.  A bin on its bit's plateau
(``RxWaveform.plateau``) counts the plateau's level through a per-level
difference array over the bins; only the bins on a ramp, or past a bit
that jitter shortened, are read with ``value_at``.
"""

from __future__ import annotations

import heapq
import math
from array import array
from bisect import bisect_left
from collections import defaultdict, deque
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import itemgetter

from . import oracle as _oracle
from .coarse_loop import (
    ABOVE,
    BELOW,
    STRONG_PULSE,
    WITHIN,
    RingCounter,
    fsm_step,
    ring_step,
    window_classify,
)
from .dll_cdt import cdt_transfer
from .fine_loop import pump_current, pump_integrate, vcdl_delay
from .link import BitSource, RxWaveform
from .lock import LockDetector
from .phase_detector import PD_PIPELINE_CYCLES, AlexanderState, alexander_step
from .scenario import Scenario, ScenarioError
from .timebase import (
    FS_PER_SECOND,
    ClockGen,
    Rng,
    SimTime,
    clamp_voltage,
    derive_seed,
    make_clock,
)

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
_EYE_BINS = 100      # phase bins across one bit of the eye histogram
_CDT_BLOCK = 1024    # detector events delivered per transfer-chain call
# Clock edges kept behind the current period.  The transfer chain reaches
# back no further than the oldest pending detector event (at most 1,027 of
# them, one per cycle) and SEEK_PERIODS more for its seeks, and jitter keeps
# every edge within a period of its nominal instant; this covers both with
# margin, wherever in the block the edges are dropped.
_EDGE_LOOKBACK = 2048
_time = itemgetter(0)  # a Vc point's instant


def _decision_table() -> tuple:
    """``alexander_step`` for each of its 8 states and 4 sample pairs.

    State ``AlexanderState(center, primed)`` has the base ``16 * center +
    4 * primed``; entry ``base + 2 * edge_sample + center_sample`` holds the
    step's (up, dn, retimed) and the base of its next state.
    """
    table = []
    for center in (0, 1):
        for primed in range(4):
            for edge_sample in (0, 1):
                for center_sample in (0, 1):
                    up, dn, retimed, st = alexander_step(
                        AlexanderState(center, primed), edge_sample,
                        center_sample)
                    table.append((up, dn, retimed, 16 * st.center + 4 * st.primed))
    return tuple(table)


# The detector's decisions, looked up once per cycle in Simulation.run.
_DECISIONS = _decision_table()


@dataclass
class RunMetrics:
    """Everything a run reports; traces are in time order (instants may
    repeat).

    The Vc trace (``vc_times``, ``vc_volts``), ``counter_trace`` and
    ``eye_hist`` are filled only when the run keeps its traces
    (``keep_traces``); otherwise they stay empty (``eye_hist`` None).
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
    vc_times: array = field(default_factory=lambda: array("q"))
    vc_volts: array = field(default_factory=lambda: array("d"))
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
    """Single closed-loop run of a scenario.

    ``keep_traces`` keeps the Vc trace, ``counter_trace`` and the eye
    histogram in the result; without it their memory is not spent.
    ``stop_after_lock_us`` ends the run that long after lock.
    ``hold_until_us`` is the run's one hold control: both samplers hold
    every metastable sample at its previous value (``Sampler.hold``) until
    the first cycle at or after that instant, and no sample before it is
    the first clean one.  ``measure_from_us`` pushes the start of the
    post-lock measurement window later than the detector's lock instant
    (useful when jitter makes the lock instant itself fuzzy but the steady
    state is what matters).  Each of the three instants must be >= 0 and
    finite in fs (else ``ScenarioError``).
    """

    def __init__(
        self,
        scn: Scenario,
        *,
        keep_traces: bool = False,
        stop_after_lock_us: float | None = None,
        hold_until_us: float | None = None,
        measure_from_us: float | None = None,
    ):
        self.hold_until_fs = _fs("hold_until_us", hold_until_us)
        self.stop_after_lock_fs = _fs("stop_after_lock_us", stop_after_lock_us)
        self.measure_from_fs = _fs("measure_from_us", measure_from_us)
        self.keep_traces = keep_traces
        self.scn = scn
        self.T = scn.period
        self.N = scn.n_phases
        self.K = scn.k_divide

        self.rng_meta = Rng(derive_seed(scn.seed, 0))
        self.bits = BitSource(scn.pattern, derive_seed(scn.seed, 3))

        self.jitter = (scn.jitter("tx"), scn.jitter("rx"))
        self.tx_clock = self._new_tx_clock()
        if scn.correlated:
            # Receiver reference shares the transmitter's edge offsets.
            self.rx_clock = self.tx_clock
        else:
            self.rx_clock = make_clock(self.T, self.jitter[1],
                                       Rng(derive_seed(scn.seed, 2)), name="rx")

        self.waveform = RxWaveform(self.bits, scn.channel_config(), self.tx_clock)
        self.window = scn.window_comparator()
        self.pump = scn.pump_config()
        self.curve = scn.vcdl_curve()
        self.dll = scn.dll_phases(self.rx_clock)
        # DllPhases.edge for run, whose hot index needs no range check.
        self._ref_edge = self.dll.ref.edge
        self._phase_offsets = [self.dll.phase_offset(i) for i in range(self.N)]
        # Each clock object once: correlated clocks are one object, and in
        # ideal mode the DLL's reference is the receiver clock itself.
        self._clocks = list({id(c): c for c in
                             (self.tx_clock, self.rx_clock, self.dll.ref)}.values())

        preset = scn.snapshot_hot if scn.snapshot_hot >= 0 else 0
        self.ring = RingCounter(self.N, 1 << preset)
        # The ring's hot index, read once per ring step (_on_divided).
        self._hot = self.ring.hot_index
        self.vc = scn.vc_start()
        self.t_vc: SimTime = 0
        self.w_up = self.w_dn = 0
        self.s_up = self.s_dn = 0
        self.strong_gen = 0
        # Net pump current of the current Vc segment (amperes): zero while
        # every level is off.  Its slope (V per fs) times the time to a
        # threshold gives the segment's window crossing.
        self.i = 0.0
        self._slope = 0.0
        # (i, slope) for every reachable (w_up, w_dn, s_up, s_dn), each i
        # from pump_current: a new segment looks its pair up.
        self._segments = {}
        for w_up in (0, 1):
            for w_dn in (0, 1):
                for s_up, s_dn in STRONG_PULSE.values():
                    i = pump_current(self.pump, w_up, w_dn, s_up, s_dn)
                    self._segments[w_up, w_dn, s_up, s_dn] = (
                        i, i / self.pump.c_filter / FS_PER_SECOND)
        # The last VCDL delay and the Vc it was computed for (see run).
        self._delay_vc: float | None = None
        self._delay_fs: SimTime = 0

        hold = self.hold_until_fs is not None
        self.center_sampler = scn.sampler(hold)
        self.edge_sampler = scn.sampler(hold)

        self.heap: list = []
        # The one valid predicted window crossing, (t, region after), or
        # None; see _predict_crossing.
        self.cross: tuple[SimTime, str] | None = None
        # The pending detector cycle, (sampling-clock edge, cycle index,
        # selected phase): run starts from it and leaves the next one.
        self.next_cycle: tuple[SimTime, int, int] = (
            self.dll.edge(self._hot, 2), 2, self._hot)
        self.seq = 0
        self.now: SimTime = 0
        # Each cycle's pump event follows its mid-eye sample by this much.
        self._pump_lag = PD_PIPELINE_CYCLES * self.T

        # The run's one record (see the module docstring).
        self.totals = RunMetrics(scenario=scn, counter_path=[self._hot])
        # The Vc points since the last transfer block (see _move_vc).
        self.vc_trace: list[tuple[SimTime, float]] = [(0, self.vc)]
        self._vc_hi: float | None = None
        self._vc_lo: float | None = None
        # Detector events not yet delivered, (bit_id, value, t_center,
        # phase), at most _CDT_BLOCK + 3; running totals of the delivered
        # ones (see _transfer).
        self.pd_pending: list[tuple[int, int, SimTime, int]] = []
        self.chain = scn.cdt_chain()
        self._lat_sum = 0.0
        self._lat_hist: dict[float, int] = {}
        # The open window excursion's start; closed ones go into the record.
        self._excursion_start: SimTime | None = None
        self.lock = LockDetector(scn, self.window, self.pump)
        # The last mid-eye sample instants; _finalize takes their phases.
        self._phase_hist: deque = deque(maxlen=_PHASE_HISTORY)

        self.actual_region = window_classify(self.vc, self.window)
        self.published = self.actual_region
        if self.actual_region != WITHIN:
            self._excursion_start = 0

    # -- scheduling ------------------------------------------------------

    def _push(self, t: SimTime, prio: int, args: tuple):
        heapq.heappush(self.heap, (t, prio, self.seq, args))
        self.seq += 1

    # -- control voltage segments ----------------------------------------

    def _advance_vc(self, t: SimTime):
        # A flat segment leaves Vc where it is (see run) and cannot clamp.
        if self.i != 0.0:
            self.vc, clamped = pump_integrate(self.vc, self.i, t - self.t_vc,
                                              self.pump)
            if clamped:
                self.totals.vc_bound_violations += 1
        self.t_vc = t

    def _set_levels(self, w_up: int, w_dn: int, s_up: int, s_dn: int):
        """Start a new Vc segment at ``now`` with these weak and strong
        pump levels."""
        self._advance_vc(self.now)
        self.w_up = w_up
        self.w_dn = w_dn
        self.s_up = s_up
        self.s_dn = s_dn
        self.i, self._slope = self._segments[w_up, w_dn, s_up, s_dn]
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
        if self.i == 0.0:
            return
        slope = self._slope
        region = self.actual_region
        w = self.window
        # The threshold ahead of Vc's region, and the region beyond it.
        if slope > 0.0:
            if region == BELOW:
                target, after = w.v_low, WITHIN
            elif region == WITHIN:
                target, after = w.v_high, ABOVE
            else:
                return
        elif region == ABOVE:
            target, after = w.v_high, WITHIN
        elif region == WITHIN:
            target, after = w.v_low, BELOW
        else:
            return
        dt = (target - self.vc) / slope
        self.cross = (self.t_vc + max(1, math.ceil(dt)), after)

    # -- event handlers ---------------------------------------------------

    def _on_crossing(self, after: str):
        # Move the segment origin to the crossing so the next prediction
        # starts from the threshold (exact: the segment is linear).
        self._advance_vc(self.now)
        prev = self.actual_region
        self.actual_region = after
        if prev == WITHIN and after != WITHIN:
            self._excursion_start = self.now
        elif prev != WITHIN and after == WITHIN:
            self.totals.excursions.append((self._excursion_start, self.now))
            self._excursion_start = None
        self._push(self.now + self.window.trip_delay, PRIO_PUBLISH, (after,))
        self._predict_crossing()

    def _on_publish(self, region: str):
        self.published = region
        if region == WITHIN and (self.s_up or self.s_dn):
            # Asynchronous reset truncates the strong pulse at window entry.
            self.strong_gen += 1
            self._set_levels(self.w_up, self.w_dn, 0, 0)
        self._trace_counter()

    def _on_strong_end(self, gen: int):
        if gen != self.strong_gen:
            return
        if self.s_up or self.s_dn:
            self._set_levels(self.w_up, self.w_dn, 0, 0)
            self._trace_counter()

    def _on_divided(self, m: int):
        direction = fsm_step(self.published)
        if direction is not None:
            # ring_step rejects a word that is not one-hot; RingCounter
            # already rejects one at construction, so only a word set
            # around it (object.__setattr__) reaches this branch.
            try:
                self.ring = ring_step(self.ring, direction)
            except ValueError:
                self.totals.one_hot_violations += 1
            self._hot = self.ring.hot_index
            self.lock.last_ring_change = self.now
            self.totals.counter_path.append(self._hot)
        s_up, s_dn = STRONG_PULSE[direction]
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
        self.totals.counter_trace.append(
            (
                self.now,
                self._hot,
                # The control FSM's enable and up_dn outputs.
                int(self.published != WITHIN),
                int(self.published == ABOVE),
                self.s_up,
                self.s_dn,
            )
        )

    def _on_pump(self, drive_up: int, drive_dn: int):
        if self.i == 0.0 and drive_up == self.w_up and drive_dn == self.w_dn:
            # A flat segment needs no new one: Vc stays bit-identical along
            # it (see run), nothing reads its origin instant while the
            # current is zero, and no crossing is pending.  The point stays
            # for a lock declared at this instant.
            self.vc_trace.append((self.now, self.vc))
            return
        self._set_levels(drive_up, drive_dn, self.s_up, self.s_dn)

    # -- transfer chain ----------------------------------------------------

    def _measure_start(self) -> SimTime | None:
        """Start of the post-lock measurement window, None before lock."""
        if self.lock.time is None or self.measure_from_fs is None:
            return self.lock.time
        return max(self.lock.time, self.measure_from_fs)

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
        deliveries = cdt_transfer(pending, self.dll, self.rx_clock, self.chain,
                                  lookahead=lookahead)
        del pending[:len(deliveries)]
        start = self._measure_start()
        forget = self.now // self.T - _EDGE_LOOKBACK
        for clock in self._clocks:
            clock.forget_before(forget)
        # A lock declared at this instant still folds the points set at it.
        self._move_vc(bisect_left(self.vc_trace, self.now, key=_time))
        # The block's tallies run in locals and go into the record once.
        # Every delivered bit lies in the stored period: the waveform read
        # two bits past it when the detector sampled it.
        stored, period = self.bits._bits, self.bits._period
        hist = self._lat_hist
        T = self.T
        m = self.totals
        lat_sum = self._lat_sum
        lat_max = m.latency_max_t
        violations = post_violations = bits = missed = errors = 0
        for bit_id, value, t_center, t_deliver, viols in deliveries:
            if viols:
                violations += len(viols)
            if start is None or t_center < start:
                continue
            bits += 1
            if viols:
                post_violations += len(viols)
            if t_deliver <= 0:
                missed += 1
                continue
            if value != stored[bit_id % period]:
                errors += 1
            x = (t_deliver - t_center) / T
            # Summed left to right in delivery order, so the mean does not
            # depend on the block size.
            lat_sum += x
            if lat_max is None or x > lat_max:
                lat_max = x
            # k / 10 is already the double nearest the decimal k/10.
            b = int(x * 10) / 10
            hist[b] = hist.get(b, 0) + 1
        self._lat_sum = lat_sum
        m.latency_max_t = lat_max
        m.total_violations += violations
        m.post_lock_violations += post_violations
        m.ber_bits += bits
        m.missed_deliveries_post_lock += missed
        m.ber_errors += errors

    def _move_vc(self, j: int):
        """Take the first ``j`` points of ``vc_trace``: fold those at or
        after the measurement start into the post-lock Vc extremes, then
        move them into the record's columns if the run keeps its traces."""
        block = self.vc_trace
        moved = block[:j]
        del block[:j]
        start = self._measure_start()
        i = len(moved) if start is None else bisect_left(moved, start, key=_time)
        if i < len(moved):
            hi, lo = self._vc_hi, self._vc_lo
            if hi is None:
                hi = lo = moved[i][1]
            # Strict comparisons keep the earliest of equal values.
            for _, v in islice(moved, i, None):
                if v > hi:
                    hi = v
                elif v < lo:
                    lo = v
            self._vc_hi, self._vc_lo = hi, lo
        if self.keep_traces:
            # fromlist sizes the column once; extend grows it point by point.
            self.totals.vc_times.fromlist([t for t, _ in moved])
            self.totals.vc_volts.fromlist([v for _, v in moved])

    # -- main loop ---------------------------------------------------------

    def run(self) -> RunMetrics:
        end = self.scn.duration_fs
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
        # What a run does not change, bound once for the cycle slot.
        heap = self.heap
        pop, push = heapq.heappop, heapq.heappush
        half = self.T // 2
        pump_lag = self._pump_lag
        waveform = self.waveform
        rng = self.rng_meta
        edge_sampler, center = self.edge_sampler, self.center_sampler
        edge_sample, center_sample = edge_sampler.sample, center.sample
        curve = self.curve
        c_filter, v_dd = self.pump.c_filter, self.pump.v_dd
        pending = self.pd_pending
        phase_hist = self._phase_hist
        lock = self.lock
        ref_edge, offsets = self._ref_edge, self._phase_offsets
        hold_until, stop_after = self.hold_until_fs, self.stop_after_lock_fs
        decisions = _DECISIONS
        alex = 0  # the base of AlexanderState() in _DECISIONS
        first_clean = None
        excursions = self.totals.excursions
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
            # their instant has run.  Each samples one VCDL delay after it,
            # at Vc there (pump_integrate's expression; a flat segment's
            # origin lies on or between the rails and is never -0.0), and
            # reuses the delay while Vc has not moved.
            if due > end:
                break
            self.now = now = due
            i = self.i
            if i == 0.0:
                v = self.vc
            else:
                v = clamp_voltage(
                    self.vc + i * (now - self.t_vc) / FS_PER_SECOND / c_filter, v_dd)
            if v != self._delay_vc:
                self._delay_vc = v
                self._delay_fs = vcdl_delay(v, curve)
            t_sample = now + self._delay_fs
            if opp_next:
                edge_val = edge_sample(waveform, t_sample, rng)
                due = es
                opp_next = False
                continue
            # CYCLE: the mid-eye sample, the decision and the pump update.
            if hold_until is not None and now >= hold_until:
                # The hold ends: from this cycle on both samplers resolve
                # metastable samples by a coin.
                center.hold = edge_sampler.hold = False
                hold_until = None
            center_val = center_sample(waveform, t_sample, rng)
            metastable = center.last_was_metastable
            if first_clean is None and not metastable and hold_until is None:
                first_clean = t_sample
            up, dn, retimed, alex = decisions[alex + 2 * edge_val + center_val]
            # The centre sample left the waveform's cursor on its bit.
            pending.append((waveform.bit_index, retimed, t_sample, n_used))
            if len(pending) == _CDT_BLOCK + 3:
                self._transfer(lookahead=2)
            # Late clock (UP) discharges, early clock (DN) charges, for one
            # bit period two cycles after the mid-eye sample (_push).
            push(heap, (t_sample + pump_lag, PRIO_PUMP, self.seq, (dn, up)))
            self.seq += 1
            phase_hist.append(t_sample)
            if lock.time is None:
                # Vc's last re-entry into the window ends the last excursion.
                reentry = None
                if self.published == WITHIN and self.actual_region == WITHIN:
                    reentry = excursions[-1][1] if excursions else 0
                lock.update(now, v, up, dn, metastable, reentry)
                if lock.time is not None and stop_after is not None:
                    end = min(end, lock.time + stop_after)
            k += 1
            n_used = self._hot
            es = ref_edge(k) + offsets[n_used]
            due = es - half
            opp_next = True

        self.next_cycle = (es, k, n_used)
        self.totals.first_clean_sample_fs = first_clean
        self.now = end
        self._advance_vc(end)
        self.vc_trace.append((end, self.vc))
        return self._finalize(end)

    # -- metrics -----------------------------------------------------------

    def _finalize(self, end: SimTime) -> RunMetrics:
        """Complete the run's record with what needs the end of the run.

        The last transfer-chain call delivers the pending tail with no
        look-ahead, so the end of the run is treated as in one pass.
        """
        scn = self.scn
        m = self.totals
        m.duration_fs = end
        m.lock_time_fs = self.lock.time
        m.locked = m.lock_time_fs is not None
        m.final_hot = self.ring.hot_index
        m.vc_final = self.vc
        # Cycles are numbered from 2 (see __init__), one per detector event.
        m.pd_event_count = self.next_cycle[1] - 2
        if m.excursions:
            div = self.K * self.T
            m.excursion_max_divided = max((b - a) / div for a, b in m.excursions)
        m.counter_monotone = _is_monotone(m.counter_path, self.N)

        # Sampling phase and oracle comparison (locked runs with clean
        # clocks only): before lock the phase history is acquisition, not a
        # centring error.
        if m.locked and len(self._phase_hist) >= 8:
            T = self.T
            m.sampling_phase_ui = _circular_mean([(t % T) / T
                                                  for t in self._phase_hist])
        quiet = all(spec.is_quiet for spec in self.jitter)
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
        if m.pd_event_count >= 2:
            self._transfer(lookahead=0)
            m.ber_errors += m.missed_deliveries_post_lock
            # Every post-lock bit that was delivered has one latency.
            delivered = m.ber_bits - m.missed_deliveries_post_lock
            if delivered:
                m.latency_mean_t = self._lat_sum / delivered
                m.latency_hist = sorted(self._lat_hist.items())
        self._move_vc(len(self.vc_trace))
        if self._vc_hi is not None:
            m.vc_peak_to_peak_post_lock = self._vc_hi - self._vc_lo

        if self.keep_traces and m.locked:
            m.eye_hist = self._eye_histogram()
        return m

    def _new_tx_clock(self) -> ClockGen:
        """A transmitter clock from edge 0; every one draws the same edges."""
        return make_clock(self.T, self.jitter[0],
                          Rng(derive_seed(self.scn.seed, 1)), name="tx")

    def _eye_histogram(self) -> list:
        """(phase, value, count) over ``_EYE_BITS`` bits from lock: each bit
        read at every bin centre.  A bin on the bit's plateau counts its
        level without a ``value_at`` call."""
        # The run's transmitter clock has dropped its old edges; a fresh one
        # draws the same edges again.
        scn = self.scn
        waveform = RxWaveform(self.bits, scn.channel_config(),
                              self._new_tx_clock())
        value_at = waveform.value_at
        bins = _EYE_BINS
        # The offset into the bit in fs and the phase in UI of each bin
        # centre; the offsets never decrease.
        offsets = [round((b + 0.5) * self.T / bins) for b in range(bins)]
        phases = [round((b + 0.5) / bins, 4) for b in range(bins)]
        counts: dict[tuple[float, float], int] = {}
        # Per plateau level, +1 at the first bin of a bit's plateau and -1
        # past its last.
        runs: dict[float, list[int]] = defaultdict(lambda: [0] * (bins + 1))
        start_bit = waveform.bit_at(self.lock.time) + 1
        for j in range(start_bit, start_bit + _EYE_BITS):
            base = waveform.boundary(j)
            start, end, level = waveform.plateau(j)
            a = bisect_left(offsets, start - base)
            b = max(a, bisect_left(offsets, end - base))
            if a < b:
                diff = runs[level]
                diff[a] += 1
                diff[b] -= 1
            # Ramps, and bins past a bit that jitter shortened.
            for i in chain(range(a), range(b, bins)):
                key = (phases[i], round(value_at(base + offsets[i]), 3))
                counts[key] = counts.get(key, 0) + 1
        for level, diff in runs.items():
            value = round(level, 3)
            n = 0
            for phase, d in zip(phases, diff):
                n += d
                if n:
                    key = (phase, value)
                    counts[key] = counts.get(key, 0) + n
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


def _fs(name: str, us: float | None) -> SimTime | None:
    """The keyword ``name``'s instant in fs; None stays None."""
    if us is None:
        return None
    fs = us * 1e9
    if not 0.0 <= fs < math.inf:
        raise ScenarioError(f"{name} must be >= 0 and finite in fs, got {us}")
    return round(fs)


def run(scn: Scenario, **options) -> RunMetrics:
    """``Simulation(scn, **options).run()``."""
    return Simulation(scn, **options).run()


def __getattr__(name: str):
    # harness.false_lock_experiment, the benchmark's entry point, forwards
    # to experiments (PEP 562); ROADMAP item 3c points the benchmark there
    # and deletes this.  A module-level import would be circular.
    if name == "false_lock_experiment":
        from .experiments import false_lock_experiment
        return false_lock_experiment
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
