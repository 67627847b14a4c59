"""DLL phase generation and clock-domain transfer.

The DLL is behavioral: N evenly spaced phases of the receiver reference,
optionally reproducing the reference's phase modulation through a
first-order low-pass (slow jitter tracked, fast jitter attenuated).

The transfer chain re-times the detector output at the sampling clock, then
through two capture stages: stage 1 at an intermediate DLL phase and
stage 2 at the receiver clock.  A capture edge logs ``SETUP`` for an input
transition within ``t_setup`` before it, ``HOLD`` for one within ``t_hold``
from it on, and ``MISSED`` when the next one has already overwritten the
input, which loses the bit.  For a locked loop the chain delivers every
bit within three clock cycles of its mid-eye sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, islice
from typing import NamedTuple

from .timebase import ClockGen, NonMonotonicEdgeError, SimTime

IDEAL = "ideal"
TRACKING = "tracking"
# The kinds of a transfer-chain violation, logged as (stage, kind).
SETUP, HOLD, MISSED = "setup", "hold", "missed"


class _TrackedClock(ClockGen):
    """A reference clock whose edge offsets from the grid pass through a
    one-pole low-pass: slow jitter is tracked, fast jitter attenuated."""

    def __init__(self, reference: ClockGen, loop_bw_hz: float):
        super().__init__(reference.period, name=f"{reference.name} tracked")
        self.reference = reference
        # Discrete one-pole equivalent of a first-order loop at loop_bw_hz.
        tsec = self.period / 1e15
        self._alpha = 1.0 - math.exp(-2.0 * math.pi * loop_bw_hz * tsec)
        self._y = 0.0

    def _generate(self, k: int, n: int) -> list[SimTime]:
        """Edges k..k+n-1, fewer when the reference's edge raises past k:
        its error waits in the reference until its index is asked for."""
        edge, T, alpha = self.reference.edge, self.period, self._alpha
        y = self._y
        out = []
        for j in range(k, k + n):
            try:
                x = edge(j) - j * T
            except NonMonotonicEdgeError:
                if out:
                    break
                raise
            y += alpha * (x - y)
            out.append(j * T + round(y))
        self._y = y
        return out


class DllPhases:
    """Edge times for the N DLL output phases: phase i is the clock ``ref``
    delayed by i/N of a period.  ``ref`` answers every edge query (and
    drops its own old edges, as every ``ClockGen`` does); it is the
    receiver clock in ideal mode and its low-passed copy
    (``_TrackedClock``) in tracking mode."""

    def __init__(
        self,
        reference: ClockGen,
        n_phases: int,
        mode: str,
        loop_bw_hz: float,
    ):
        if n_phases < 4:
            raise ValueError("need at least 4 DLL phases")
        if loop_bw_hz <= 0:
            raise ValueError("DLL loop bandwidth must be positive")
        if mode == TRACKING:
            reference = _TrackedClock(reference, loop_bw_hz)
        elif mode != IDEAL:
            raise ValueError(f"unknown DLL mode: {mode!r}")
        self.ref = reference
        self.n = n_phases
        self.period = reference.period
        self._offsets = [round(i * self.period / n_phases) for i in range(n_phases)]

    def phase_offset(self, i: int) -> SimTime:
        if not 0 <= i < self.n:
            raise IndexError(f"phase index {i} out of range [0, {self.n})")
        return self._offsets[i]

    def edge(self, i: int, k: int) -> SimTime:
        """k-th active edge of DLL phase i."""
        return self.phase_offset(i) + self.ref.edge(k)

    def first_edge_after(self, i: int, t: SimTime) -> SimTime:
        """Earliest edge of phase i strictly after t."""
        return self.first_edges_after((i,), (t,))[0]

    def first_edges_after(self, idx, ts) -> list[SimTime]:
        """Earliest edge of phase ``idx[j]`` strictly after ``ts[j]``, for
        each j, in one block lookup of the reference's edges."""
        for i in set(idx):
            self.phase_offset(i)  # range check
        offsets = self._offsets
        offs = [offsets[i] for i in idx]
        edges = self.ref.first_edges_at_or_after(
            [t - off + 1 for t, off in zip(ts, offs)])
        return [e + off for e, off in zip(edges, offs)]


def intermediate_phase(n: int, n_phases: int) -> int:
    """Transfer-stage phase index for selected phase n.

    Returns ``n + 2 - N/2`` when ``n + 2 > N/2``, otherwise 0.  Defined for
    even N only; odd N is rejected rather than generalized.
    """
    if n_phases % 2 != 0:
        raise ValueError("intermediate phase rule requires an even phase count")
    if not 0 <= n < n_phases:
        raise IndexError(f"phase index {n} out of range [0, {n_phases})")
    half = n_phases // 2
    if n + 2 > half:
        return n + 2 - half
    return 0


@dataclass(frozen=True)
class CdtChain:
    """Timing model of the three-stage transfer into the receiver domain.

    The retiming stage is fed by a regenerative comparator that may need
    more than half a cycle, so its output is modeled as settling a full
    ``T/2 - t_setup`` after its clock edge (the worst case the half-cycle
    staging argument allows).  The transfer flip-flops see settled inputs
    and get an ordinary small clock-to-output delay instead; modeling them
    at the worst case too would double-count the pessimism and break the
    three-cycle delivery bound at phase-wrap selections.
    """

    period: SimTime
    t_setup: SimTime
    t_hold: SimTime

    @property
    def resolve_retime(self) -> SimTime:
        """Settling delay of the comparator retiming stage: T/2 - t_setup."""
        return self.period // 2 - self.t_setup

    @property
    def resolve_stage(self) -> SimTime:
        """Clock-to-output delay of a transfer flip-flop."""
        return self.t_setup


class Delivery(NamedTuple):
    """One event through the chain; its retiming edge is the next event's
    ``t_center``, and its latency ``t_deliver - t_center``.  Each violation
    is a code ``(stage, kind)``, with stage 1 or 2."""

    bit_id: int
    value: int
    t_center: SimTime       # mid-eye sample instant of this bit
    t_deliver: SimTime      # receiver-clock capture edge, -1 for a miss
    violations: tuple[tuple[int, str], ...] = ()


def _capture(stage: int, u: SimTime, transition: SimTime,
             next_transition: SimTime | None, chain: CdtChain) -> tuple:
    """Check ``stage``'s capture edge ``u``, the first after ``transition``.

    Returns (u, violations), or (None, ((stage, MISSED),)) when the next
    transition has already overwritten the input by then.
    """
    if next_transition is not None and u > next_transition:
        return None, ((stage, MISSED),)
    viol = ()
    for tr in (transition, next_transition):
        if tr is None:
            continue
        if u - chain.t_setup < tr < u:
            viol += ((stage, SETUP),)
        elif u <= tr < u + chain.t_hold:
            viol += ((stage, HOLD),)
    return u, viol


def _stage(stage: int, edges: list, transitions: list, chain: CdtChain,
           violations: list) -> None:
    """Check each capture of ``stage``: edge ``edges[j]``, the first after
    ``transitions[j]``, takes the input that ``transitions[j + 1]`` (None
    for none) overwrites; a missing input (None) has no edge (None).  Adds
    the codes to ``violations[j]``, and sets a missed capture's edge to None.

    Only a capture whose opening transition lies within ``t_setup`` before
    its edge u (it cannot break hold: u is the first edge after it), or
    whose closing one comes at or before u + ``t_hold`` (or is a miss),
    goes to ``_capture``.
    """
    setup, hold = chain.t_setup, max(chain.t_hold, 0)
    flagged = [j for j, u, tr, nxt in zip(count(), edges, transitions,
                                         islice(transitions, 1, None))
               if u is not None and (u - tr < setup
                                     or (nxt is not None and nxt - u <= hold))]
    for j in flagged:
        edges[j], viol = _capture(stage, edges[j], transitions[j],
                                  transitions[j + 1], chain)
        violations[j] += viol


def cdt_transfer(
    events: list[tuple[int, int, SimTime, int]],
    phases: DllPhases,
    rx_clock: ClockGen,
    chain: CdtChain,
    lookahead: int = 0,
) -> list[Delivery]:
    """Run retimed detector outputs through the transfer chain.

    ``events`` holds (bit_id, value, t_center, selected_phase) per detector
    evaluation, with ``t_center`` strictly rising.  Event j is re-timed at
    the sampling-clock edge that follows it, the mid-eye sample of event
    j+1, so the last event only supplies that edge.  Returns one
    :class:`Delivery` per event, in event order, except for the last
    ``lookahead`` + 1 events: the ``lookahead`` before the last only supply
    the later transitions that the events before them need.  Stage 2 of
    event j needs stage 1 of event j+1, which needs the retiming edge of
    event j+2, so with ``lookahead=2`` every delivery equals the one a call
    over the whole stream would make, and a long stream can run in blocks
    that overlap by three events.

    The chain is two ``_stage`` calls, each over the whole block with one
    block lookup of its clock's edges: stage 1 captures every event at its
    intermediate DLL phase, then stage 2 captures each stage-1 output at
    the receiver clock, with the next event's stage-1 output as its
    closing transition.  A stage-1 miss has no output: it gets no stage-2
    edge, and closes no stage-2 capture.
    """
    # Stage 1: data transitions at the retiming stage output, one per event
    # but the last, captured at the intermediate phase of each event's
    # selected phase.  A sentinel closes the last event.
    resolve_retime = chain.resolve_retime
    taus = [ev[2] + resolve_retime for ev in islice(events, 1, None)]
    n_out = len(taus) - lookahead
    sels = [ev[3] for ev in islice(events, len(taus))]
    stage_phase = {sel: intermediate_phase(sel, phases.n) for sel in set(sels)}
    edges = phases.first_edges_after([stage_phase[sel] for sel in sels], taus)
    taus.append(None)
    violations = [()] * len(edges)
    _stage(1, edges, taus, chain, violations)
    # Stage 2: stage-1 outputs, captured at the receiver clock.
    resolve_stage = chain.resolve_stage
    sigmas = [u if u is None else u + resolve_stage for u in edges] + [None]
    edges = rx_clock.first_edges_at_or_after(
        [s + 1 for s in islice(sigmas, n_out) if s is not None])
    if len(edges) < n_out:  # a stage-1 miss gets no stage-2 edge
        found = iter(edges)
        edges = [None if s is None else next(found) for s in islice(sigmas, n_out)]
    _stage(2, edges, sigmas, chain, violations)
    new = tuple.__new__  # a Delivery per bit, without its Python-level __new__
    return [new(Delivery, (bit_id, value, t_center, -1 if u is None else u, viol))
            for (bit_id, value, t_center, _), u, viol in zip(events, edges,
                                                             violations)]
