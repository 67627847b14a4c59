"""DLL phase generation and clock-domain transfer.

The DLL is behavioral: N evenly spaced phases of the receiver reference,
optionally reproducing the reference's phase modulation through a
first-order low-pass (slow jitter tracked, fast jitter attenuated).

The transfer chain re-times the detector output at the sampling clock, then
through one intermediate-phase stage and one receiver-clock stage.  A stage
sampling inside ``t_setup`` of an input transition logs a timing violation;
a stage sampling before its input has settled silently captures the
previous value.  For a locked loop the chain delivers every bit within
three clock cycles of its mid-eye sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

from .timebase import ClockGen, NonMonotonicEdgeError, SimTime

IDEAL = "ideal"
TRACKING = "tracking"


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
    delayed by i/N of a period.  ``ref`` answers every edge query (its
    owner drops its old edges through ``ref.forget_before``); it is the
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
        each j, in one walk of the reference's cursor."""
        for i in set(idx):
            self.phase_offset(i)  # range check
        offs = [self._offsets[i] for i in idx]
        edges = self.ref.first_edges_at_or_after(
            t - off + 1 for t, off in zip(ts, offs))
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
    ``t_center``, and its latency ``t_deliver - t_center``."""

    bit_id: int
    value: int
    t_center: SimTime       # mid-eye sample instant of this bit
    t_deliver: SimTime      # receiver-clock capture edge
    violations: tuple[str, ...] = ()


def _capture(
    u: SimTime,
    transition: SimTime,
    next_transition: SimTime | None,
    chain: CdtChain,
) -> tuple[SimTime | None, tuple[str, ...]]:
    """Check capture edge ``u``, the first after ``transition``.

    Returns (u, violations), or (None, ...) when the next transition has
    already overwritten the input by then.
    """
    if next_transition is not None and u > next_transition:
        return None, (f"missed capture window ending {next_transition}",)
    viol = ()
    for tr in (transition, next_transition):
        if tr is None:
            continue
        if u - chain.t_setup < tr < u:
            viol += (f"setup violation: edge {u} vs transition {tr}",)
        elif chain.t_hold > 0 and u <= tr < u + chain.t_hold:
            viol += (f"hold violation: edge {u} vs transition {tr}",)
    return u, viol


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

    Each stage runs over the whole block with one walk of its clock's edge
    cursor: stage 1 captures every event at its intermediate DLL phase,
    then stage 2 captures each event at the receiver clock, which needs
    the next event's stage-1 output as its closing transition.  Only a
    capture that can carry a violation or a miss goes to ``_capture``,
    which decides and words it: one whose opening transition lies within
    ``t_setup`` before its edge u, or whose closing transition comes at or
    before u + ``t_hold``.  Every other capture is ``(u, ())``.
    """
    out: list[Delivery] = []
    new = tuple.__new__  # a Delivery per bit, without its Python-level __new__
    resolve_retime = chain.resolve_retime
    resolve_stage = chain.resolve_stage
    # The guard's reach.  An edge is the first strictly after its opening
    # transition, so that transition can only break setup; a closing one
    # before the edge is a miss however small t_hold is.
    setup = chain.t_setup
    hold = max(chain.t_hold, 0)
    # Stage 1: data transitions at the retiming stage output, one per event
    # but the last, captured at the intermediate phase of each event's
    # selected phase.
    taus = [ev[2] + resolve_retime for ev in islice(events, 1, None)]
    n_out = len(taus) - lookahead
    sels = [ev[3] for ev in islice(events, len(taus))]
    stage_phase = {sel: intermediate_phase(sel, phases.n) for sel in set(sels)}
    edges = phases.first_edges_after([stage_phase[sel] for sel in sels], taus)
    taus.append(None)
    stage1 = [_capture(u, tau, nxt, chain)
              if u - tau < setup or (nxt is not None and nxt - u <= hold)
              else (u, ())
              for u, tau, nxt in zip(edges, taus, islice(taus, 1, None))]
    # A sentinel closes the last event.  Only the captures stay alive for
    # stage 2, as two flat tuples.
    stage1.append((None, ()))
    u1s, viol1s = zip(*stage1)
    del taus, edges, stage1
    # Stage 2: stage-1 outputs, captured at the receiver clock.
    rx_edges = iter(rx_clock.first_edges_at_or_after(
        u + resolve_stage + 1 for u in islice(u1s, n_out) if u is not None))
    for (bit_id, value, t_center, _), u1, next_u1, viol1 in zip(
            islice(events, n_out), u1s, islice(u1s, 1, None), viol1s):
        if u1 is None:
            out.append(new(Delivery, (bit_id, value, t_center, -1, viol1)))
            continue
        sigma = u1 + resolve_stage
        nxt = None if next_u1 is None else next_u1 + resolve_stage
        u2 = next(rx_edges)
        viols = viol1
        # Stage 1's guard.
        if u2 - sigma < setup or (nxt is not None and nxt - u2 <= hold):
            u2, viol2 = _capture(u2, sigma, nxt, chain)
            viols += viol2
        out.append(new(Delivery, (bit_id, value, t_center,
                                  -1 if u2 is None else u2, viols)))
    return out
