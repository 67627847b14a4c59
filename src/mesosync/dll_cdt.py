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

from .timebase import ClockGen, SimTime

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

    def _generate(self, k: int) -> SimTime:
        x = self.reference.edge(k) - k * self.period
        self._y += self._alpha * (x - self._y)
        return k * self.period + round(self._y)


class DllPhases:
    """Edge times for the N DLL output phases: phase i is the clock ``ref``
    delayed by i/N of a period.  ``ref``, which generates, caches and walks
    the edges, is the receiver clock in ideal mode and its low-passed copy
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

    def forget_before(self, index: int) -> None:
        """Drop the reference edges below ``index`` (see
        :meth:`ClockGen.forget_before`)."""
        self.ref.forget_before(index)

    def edge(self, i: int, k: int) -> SimTime:
        """k-th active edge of DLL phase i."""
        # The range check of phase_offset, inline: one call per cycle.
        if not 0 <= i < self.n:
            raise IndexError(f"phase index {i} out of range [0, {self.n})")
        return self.ref.edge(k) + self._offsets[i]

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
    bit_id: int
    value: int
    t_center: SimTime       # mid-eye sample instant of this bit
    t_retime: SimTime       # sampling-clock retiming edge
    t_stage_i: SimTime      # intermediate-phase capture edge
    t_deliver: SimTime      # receiver-clock capture edge
    latency: SimTime        # t_deliver - t_center
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
    retime_edges: list[SimTime],
    phases: DllPhases,
    rx_clock: ClockGen,
    chain: CdtChain,
    lookahead: int = 0,
) -> list[Delivery]:
    """Run retimed detector outputs through the transfer chain.

    ``events`` holds (bit_id, value, t_center, selected_phase) per detector
    evaluation, with ``t_center`` strictly rising; ``retime_edges[j]`` is
    the sampling-clock edge that re-times event j (the following active
    edge).  Returns one :class:`Delivery` per event, in event order, except
    for the last ``lookahead`` events: they only supply the later
    transitions that the events before them need.  Stage 2 of event j needs stage 1 of event j+1, which needs the
    retiming edge of event j+2, so with ``lookahead=2`` every delivery
    equals the one a call over the whole stream would make, and a long
    stream can run in blocks that overlap by two events.

    Each stage runs over the whole block with one walk of its clock's edge
    cursor: stage 1 captures every event at its intermediate DLL phase,
    then stage 2 captures each event at the receiver clock, which needs
    the next event's stage-1 output as its closing transition.
    """
    out: list[Delivery] = []
    n_ev = len(events)
    n_out = n_ev - lookahead
    resolve_retime = chain.resolve_retime
    resolve_stage = chain.resolve_stage
    # Stage 1: data transitions at the retiming stage output, captured at
    # the intermediate phase of each event's selected phase.
    taus = [r + resolve_retime for r in retime_edges]
    stage_phase = {sel: intermediate_phase(sel, phases.n)
                   for sel in {ev[3] for ev in events}}
    edges = phases.first_edges_after([stage_phase[ev[3]] for ev in events], taus)
    taus.append(None)
    stage1 = [_capture(u, tau, nxt, chain)
              for u, tau, nxt in zip(edges, taus, islice(taus, 1, None))]
    # A sentinel closes the last event.  Only the captures stay alive for
    # stage 2, as two flat tuples.
    stage1.append((None, ()))
    u1s, viol1s = zip(*stage1)
    del taus, edges, stage1
    # Stage 2: stage-1 outputs, captured at the receiver clock.
    rx_edges = iter(rx_clock.first_edges_at_or_after(
        u + resolve_stage + 1 for u in islice(u1s, n_out) if u is not None))
    for (bit_id, value, t_center, _), t_retime, u1, next_u1, viol1 in zip(
            islice(events, n_out), retime_edges, u1s, islice(u1s, 1, None), viol1s):
        if u1 is None:
            out.append(
                Delivery(bit_id, value, t_center, t_retime, -1, -1, -1, viol1)
            )
            continue
        nxt = None if next_u1 is None else next_u1 + resolve_stage
        u2, viol2 = _capture(next(rx_edges), u1 + resolve_stage, nxt, chain)
        viols = viol1 + viol2
        if u2 is None:
            out.append(
                Delivery(bit_id, value, t_center, t_retime, u1, -1, -1, viols)
            )
        else:
            out.append(
                Delivery(bit_id, value, t_center, t_retime, u1, u2,
                         u2 - t_center, viols)
            )
    return out
