"""Brute-force eye-center reference, independent of the event-driven loop.

Sweeps the sampling phase over a 0.01 UI grid, thresholds the received
waveform directly from first principles (bit boundaries plus linear ramps)
and returns the circular midpoint of the zero-error plateau.  This is the
ground truth every phase-error metric is compared against.
"""

from __future__ import annotations

import math

import numpy as np

from .link import BitSource


def ber_phase_sweep(
    bits: BitSource,
    n: int,
    alpha: float,
    transition_ui: float,
    n_bits: int = 2000,
    grid: float = 0.01,
) -> tuple[np.ndarray, np.ndarray]:
    """(phases, error counts) for sampling at each phase of the receiver grid.

    Sampling instant for bit-slot k at phase p is ``(k + p) * T``; it lands
    in transmitted bit ``floor(k + p - n - alpha)``.  A sample is an error
    when it hits the wrong half of a transition ramp or the wrong level.
    """
    phases = np.arange(0.0, 1.0, grid)
    seq = np.array([bits.bit(i) for i in range(n_bits + 2)], dtype=np.int8)
    delay = n + alpha
    half_ramp = transition_ui / 2.0

    # Slots n+2 onwards: every sample lands in bit 1 or later, so it has a
    # predecessor bit, whatever the whole-period delay n.
    ks = np.arange(2, n_bits) + n
    errors = np.zeros(len(phases), dtype=np.int64)
    for idx, p in enumerate(phases):
        pos = ks + p - delay          # position in units of T from boundary(0)
        j = np.floor(pos).astype(np.int64)       # bit index sampled
        frac = pos - j                             # offset into bit j, [0,1)
        level = seq[j].astype(np.float64) - 0.5    # +-0.5
        if half_ramp == 0.0:
            # Ideal edges: no sample lands on a ramp (frac lies in [0, 1)),
            # and the ramp formulas below would divide by zero.
            value = level
        else:
            # Leading ramp: within half_ramp after boundary(j), bits differ.
            lead = (frac < half_ramp) & (seq[j] != seq[j - 1])
            # Trailing ramp: within half_ramp before boundary(j+1), bits differ.
            trail = (frac >= 1.0 - half_ramp) & (seq[j + 1] != seq[j])
            value = np.where(
                lead,
                (seq[j - 1] - 0.5)
                + (seq[j] - seq[j - 1]) * (frac / transition_ui + 0.5),
                np.where(
                    trail,
                    (seq[j] - 0.5)
                    + (seq[j + 1] - seq[j]) * ((frac - 1.0) / transition_ui + 0.5),
                    level,
                ),
            )
        decided = value > 0.0
        errors[idx] = int(np.sum(decided != (seq[j] > 0)))
    return phases, errors


def eye_center_phase(
    bits: BitSource,
    n: int,
    alpha: float,
    transition_ui: float,
    n_bits: int = 2000,
    grid: float = 0.01,
) -> float:
    """Center of the zero-BER plateau (UI on the receiver grid), or NaN."""
    phases, errors = ber_phase_sweep(bits, n, alpha, transition_ui, n_bits, grid)
    good = errors == 0
    if not good.any():
        return float("nan")
    if good.all():
        return 0.0
    # Circular midpoint: average the unit vectors of the good phases.
    ang = 2.0 * math.pi * phases[good]
    c = complex(np.cos(ang).sum(), np.sin(ang).sum())
    return (math.atan2(c.imag, c.real) / (2.0 * math.pi)) % 1.0


def wrap_ui(x: float) -> float:
    """Wrap a phase difference into (-0.5, 0.5] UI."""
    w = x % 1.0
    return w - 1.0 if w > 0.5 else w
