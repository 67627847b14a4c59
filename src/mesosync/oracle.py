"""Brute-force eye-center reference, independent of the event-driven loop.

Sweeps the sampling phase over a 0.01 UI grid, thresholds the received
waveform directly from first principles (bit boundaries plus linear ramps)
and returns the circular midpoint of the zero-error plateau.  This is the
ground truth every phase-error metric is compared against.

The module is plain Python, and every result is bit-identical to a
vectorised sweep of the same formulas (the tests keep such a copy):

* Each sample evaluates the same float operations in the same order.
* A phase is swept sample by sample only when it may hold an error.  In
  this channel every ramp is centred on its bit boundary, so a sample is
  decided wrongly only when it lands within about 1e-16 UI of a boundary.
  In exact arithmetic every sample of one phase lies at the same offset
  ``frac`` into its bit; rounding moves it by a few ulp of the sample's
  position.  When ``frac`` at the first and at the last sample lies at
  least ``_CLEAR_UI`` (plus that rounding) away from both boundaries,
  every sample is a level (+-0.5) or a ramp value at least
  ``frac / transition_ui`` away from 0.5, with ``transition_ui < 1``, so
  the phase is error-free.  That leaves the per-sample loop to the 0-2
  phases next to a boundary.
* The circular mean sums cosines and sines in numpy's pairwise order
  (``_pairwise_sum``), so the last bits of the centre do not move.

When every phase is error-free (an off-grid ``alpha``, or ideal edges),
there is no plateau edge to locate, and the centre is the channel's own
mid-bit phase ``(n + alpha + 0.5) mod 1``.
"""

from __future__ import annotations

import math

from .link import BitSource

# Smallest distance (UI) from a bit boundary at which a sample is decided
# correctly whatever the ramp; rounding of the sample position is added.
_CLEAR_UI = 1e-6


def _phase_errors(
    seq: list[int], ks: range, p: float, delay: float, transition_ui: float
) -> int:
    """Wrongly decided samples at phase ``p``, one sample per slot in ``ks``."""
    half_ramp = transition_ui / 2.0
    errors = 0
    for k in ks:
        pos = k + p - delay      # position in units of T from boundary(0)
        j = math.floor(pos)      # bit index sampled
        frac = pos - j           # offset into bit j, [0, 1)
        cur = seq[j]
        value = cur - 0.5        # level, +-0.5
        # With ideal edges no sample lands on a ramp (frac lies in [0, 1)),
        # and the ramp formulas below would divide by zero.
        if half_ramp != 0.0:
            prev = seq[j - 1]
            nxt = seq[j + 1]
            if frac < half_ramp and cur != prev:
                # Leading ramp: within half_ramp after boundary(j).
                value = (prev - 0.5) + (cur - prev) * (frac / transition_ui + 0.5)
            elif frac >= 1.0 - half_ramp and nxt != cur:
                # Trailing ramp: within half_ramp before boundary(j+1).
                value = (cur - 0.5) + (nxt - cur) * ((frac - 1.0) / transition_ui + 0.5)
        if (value > 0.0) != (cur > 0):
            errors += 1
    return errors


def ber_phase_sweep(
    bits: BitSource,
    n: int,
    alpha: float,
    transition_ui: float,
    n_bits: int = 2000,
    grid: float = 0.01,
) -> tuple[list[float], list[int]]:
    """(phases, error counts) for sampling at each phase of the receiver grid.

    Sampling instant for bit-slot k at phase p is ``(k + p) * T``; it lands
    in transmitted bit ``floor(k + p - n - alpha)``.  A sample is an error
    when it hits the wrong half of a transition ramp or the wrong level.
    """
    phases = [i * grid for i in range(math.ceil(1.0 / grid))]
    seq = [bits.bit(i) for i in range(n_bits + 2)]
    delay = n + alpha
    # Slots n+2 onwards: every sample lands in bit 1 or later, so it has a
    # predecessor bit, whatever the whole-period delay n.
    ks = range(n + 2, n + n_bits)
    if not ks:
        return phases, [0] * len(phases)
    # A sample's frac is off its exact value by at most 1.5 ulp of the
    # largest position, so two samples of one phase differ by less than
    # 4 ulp of it.
    lo = _CLEAR_UI + 4.0 * math.ulp(ks[-1] + 1.0)
    hi = 1.0 - lo

    def clear(k: int, p: float) -> bool:
        pos = k + p - delay
        return lo <= pos - math.floor(pos) <= hi

    errors = [
        0 if clear(ks[0], p) and clear(ks[-1], p)
        else _phase_errors(seq, ks, p, delay, transition_ui)
        for p in phases
    ]
    return phases, errors


def _pairwise_sum(xs: list[float], lo: int, hi: int) -> float:
    """Sum of ``xs[lo:hi]`` in the order of numpy's float64 ``sum``."""
    n = hi - lo
    if n < 8:
        s = 0.0
        for i in range(lo, hi):
            s += xs[i]
        return s
    if n <= 128:
        # Eight lane accumulators over whole blocks of 8, then the rest.
        r = xs[lo:lo + 8]
        tail = hi - n % 8
        for i in range(lo + 8, tail, 8):
            for q in range(8):
                r[q] += xs[i + q]
        s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(tail, hi):
            s += xs[i]
        return s
    half = n // 2
    half -= half % 8
    return _pairwise_sum(xs, lo, lo + half) + _pairwise_sum(xs, lo + half, hi)


def eye_center_phase(
    bits: BitSource,
    n: int,
    alpha: float,
    transition_ui: float,
    n_bits: int = 2000,
    grid: float = 0.01,
) -> float:
    """Center of the zero-BER plateau (UI on the receiver grid), or NaN.

    With no phase in error, the channel's mid-bit phase.
    """
    phases, errors = ber_phase_sweep(bits, n, alpha, transition_ui, n_bits, grid)
    good = [p for p, e in zip(phases, errors) if e == 0]
    if not good:
        return float("nan")
    if len(good) == len(phases):
        return (n + alpha + 0.5) % 1.0
    # Circular midpoint: average the unit vectors of the good phases.
    ang = [(2.0 * math.pi) * p for p in good]
    c = _pairwise_sum([math.cos(a) for a in ang], 0, len(ang))
    s = _pairwise_sum([math.sin(a) for a in ang], 0, len(ang))
    return (math.atan2(s, c) / (2.0 * math.pi)) % 1.0


def wrap_ui(x: float) -> float:
    """Wrap a phase difference into (-0.5, 0.5] UI."""
    w = x % 1.0
    return w - 1.0 if w > 0.5 else w
