"""Charge-pump integration onto the loop filter and the VCDL transfer curve.

Sign conventions used throughout the simulator (fixed here, in one place):

* the pump's ``up`` input sources current, so asserting it raises Vc;
* the VCDL delay is monotonically increasing in Vc;
* consequently the loop charges Vc when the sampling clock is early
  (needs more delay) and discharges when late, and a Vc excursion above
  the window selects the next-later DLL phase together with a strong
  discharge pulse (the mirror case below the window; the pairing lives in
  ``coarse_loop.STRONG_PULSE``).

The loop filter's state is Vc alone: ``pump_integrate`` takes and returns
a plain float, with a flag for a supply-rail clamp.  The pump levels enter
it only as the net current ``pump_current`` gives, which stays constant
over a Vc segment, so a caller computes it once per segment.

The VCDL curve is linear from no delay to its range; ``VcdlCurve`` holds
only the range and the window, and ``Scenario.vcdl_curve`` is its one
builder (the process corner picks the range).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .timebase import FS_PER_SECOND, SimTime, clamp_voltage


@dataclass(frozen=True)
class PumpConfig:
    i_weak: float       # amperes
    strong_ratio: float
    c_filter: float     # farads
    v_dd: float

    def __post_init__(self):
        if min(self.i_weak, self.strong_ratio, self.c_filter, self.v_dd) <= 0:
            raise ValueError("pump parameters must be positive")
        if self.strong_ratio < 1:
            raise ValueError("strong_ratio must be >= 1")
        # Vc moves at a finite, nonzero rate at every pump level, and the
        # weak pump crosses the supply range in a finite number of fs.
        slope = self.weak_slope_v_per_fs
        if not (slope > 0.0 and math.isfinite(self.v_dd / slope)
                and math.isfinite(self.strong_ratio * self.i_weak / self.c_filter)):
            raise ValueError("pump slope out of range: Vc would move too "
                             "fast or too slow to time in fs")

    @property
    def weak_slope_v_per_fs(self) -> float:
        return self.i_weak / self.c_filter / FS_PER_SECOND


def pump_current(
    cfg: PumpConfig, up: int, dn: int, up_strong: int, dn_strong: int
) -> float:
    """Net current into the loop filter in amperes.

    The weak pump is gated off whenever either strong signal is asserted;
    the two strong signals may not be asserted together.
    """
    if up_strong and dn_strong:
        raise ValueError("up_strong and dn_strong may not be asserted together")
    i = 0.0
    if not (up_strong or dn_strong):
        i += cfg.i_weak * ((1 if up else 0) - (1 if dn else 0))
    i += cfg.strong_ratio * cfg.i_weak * (
        (1 if up_strong else 0) - (1 if dn_strong else 0)
    )
    return i


def pump_integrate(
    v_c: float, i: float, dt: SimTime, cfg: PumpConfig
) -> tuple[float, bool]:
    """Advance Vc over ``dt`` ticks of the constant pump current ``i``
    (amperes, from ``pump_current``), then clamp.

    Returns (Vc', clamped), ``clamped`` true when the integration ran into
    a supply rail.  Exact over any segmentation of the interval: integrating
    dt1 then dt2 equals integrating dt1+dt2 while Vc stays off the rails.
    """
    if dt < 0:
        raise ValueError("dt must be >= 0")
    v = v_c + i * dt / FS_PER_SECOND / cfg.c_filter
    return clamp_voltage(v, cfg.v_dd), not 0.0 <= v <= cfg.v_dd


@dataclass(frozen=True)
class VcdlCurve:
    """Linear Vc-to-delay map over the comparator window [v_low, v_high]:
    0 at or below ``v_low``, ``range_fs`` at or above ``v_high``.
    ``Scenario.vcdl_curve`` builds it, taking ``range_fs`` from the
    selected process corner."""

    range_fs: SimTime
    v_low: float
    v_high: float

    def __post_init__(self):
        if self.v_low >= self.v_high:
            raise ValueError("v_low must be below v_high")


def vcdl_delay(v_c: float, curve: VcdlCurve) -> SimTime:
    """Delay through the line at control voltage ``v_c`` (input clamped)."""
    v_low = curve.v_low
    v_high = curve.v_high
    if v_c < v_low:
        v_c = v_low
    elif v_c > v_high:
        v_c = v_high
    x = (v_c - v_low) / (v_high - v_low)
    return round(curve.range_fs * x)
