"""Clocked comparator sampling and the Alexander bang-bang phase detector.

Metastability is keyed on time-to-crossing: a sample taken within ``tw`` of
a data transition midpoint resolves to a fair coin.  A sampler that holds
(``Sampler.hold``) returns its previous output instead.  Holding is no mode
of the circuit but a run option, ``hold_until_us`` (see ``harness``), with
which the false-lock study pins the half-period equilibrium.  Between
cycles the Alexander detector keeps only its last mid-eye sample and
warmup count.

Outside the window the output is the sampled bit's: the levels are
+-swing/2 and a ramp crosses 0 V only at its boundary, where the distance
is 0.  ``Sampler.sample`` reads that bit and the distance from the
waveform's cursor; ``sample_comparator`` is the definitional form, kept
for the reference loop (``tests/test_reference_loop.py``) and the tracer.
"""

from __future__ import annotations

from typing import NamedTuple

from .link import NO_TRANSITION, RxWaveform
from .timebase import Rng, SimTime


class Sampler:
    """One regenerative comparator: its window ``tw`` (fs), whether it holds
    metastable samples (``hold``) and its last resolved value."""

    __slots__ = ("tw", "hold", "last", "last_was_metastable")

    def __init__(self, tw: SimTime, hold: bool = False):
        if tw < 0:
            raise ValueError("metastability window must be >= 0")
        self.tw = tw
        self.hold = hold
        self.last = 0
        self.last_was_metastable = False

    def sample(self, waveform: RxWaveform, t: SimTime, rng: Rng) -> int:
        """``sample_comparator`` at t, read from the waveform's cursor."""
        if not waveform._lo <= t < waveform._hi:
            waveform._seek(t)
        left, right = waveform._left, waveform._right
        if left is None:
            distance = NO_TRANSITION if right is None else right - t
        elif right is not None and right - t < t - left:
            distance = right - t
        else:
            distance = t - left
        if distance <= self.tw:
            self.last_was_metastable = True
            if not self.hold:
                self.last = rng.coin()
            return self.last
        self.last_was_metastable = False
        self.last = bit = waveform._bit
        return bit


def sample_comparator(
    waveform: RxWaveform,
    t_sample: SimTime,
    tw: SimTime,
    hold: bool,
    rng: Rng,
    previous: int,
    distance: SimTime,
) -> int:
    """Resolved comparator output for a sample at ``t_sample``.

    Outside the metastability window ``tw`` the output is the sign of the
    differential input; inside it the output is ``previous``, the
    comparator's last output, if it holds (``hold``), else a fair coin.
    ``distance`` is ``waveform.nearest_transition_distance(t_sample)``.

    Definitional form: ``value_at`` is 0.0 only on a boundary (distance 0);
    elsewhere a ramp's ``dt / transition_time + 0.5`` is at least
    1 / transition_time from 0.5, far above float rounding, so the sign is
    the sampled bit's, which ``Sampler.sample`` returns without ``value_at``.
    """
    if distance <= tw:
        return previous if hold else rng.coin()
    v = waveform.value_at(t_sample)
    if v == 0.0:
        # Exactly on a crossing with tw = 0: still unresolved by definition.
        return previous if hold else rng.coin()
    return 1 if v > 0.0 else 0


class AlexanderState(NamedTuple):
    """Last mid-eye sample, and samples seen up to 3 (no decision before)."""

    center: int = 0
    primed: int = 0


def alexander_step(
    state: AlexanderState, edge_sample: int, center_sample: int
) -> tuple[int, int, int, AlexanderState]:
    """Advance one full clock cycle; returns (up, dn, retimed, state').

    The window holds, in time order, a = the last cycle's mid-eye sample,
    b = ``edge_sample`` (half a cycle before the active edge) and c =
    ``center_sample`` (on the edge; also the retimed output).  UP = a XOR b
    flags a late clock, DN = b XOR c an early one; a = b = c yields no action.
    """
    a, primed = state
    b = edge_sample & 1
    c = center_sample & 1
    if primed < 2:
        # Fewer than three samples seen, this one included: no decision yet.
        return 0, 0, c, AlexanderState(c, primed + 1)
    return a ^ b, b ^ c, c, AlexanderState(c, 3)


# Latency of the detector's retimed outputs, in clock cycles: one cycle for
# the comparator to regenerate plus one retiming flip-flop on the same clock.
PD_PIPELINE_CYCLES = 2
