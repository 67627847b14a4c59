"""Lock detector: decides when the fine and coarse loops have settled.

Each cycle before lock, ``LockDetector.update`` checks the gates of
``LOCK_GATES`` in order over the last ``WINDOW_DIVIDED`` divided-clock
periods; the first cycle that every gate passes is the lock instant.
"""

from __future__ import annotations

from collections import deque

from .timebase import SimTime

# Every gate, in the order update checks them.
LOCK_GATES = ("region", "ring_change", "recent_excursion", "history",
              "activity", "drift_bound", "vc_margin", "metastable")

WINDOW_DIVIDED = 2   # divided-clock periods in the lock window
# The bound on the windowed Vc excursion, as a fraction of what the
# window's active decisions could move Vc (the drift_bound gate).
DRIFT_FRAC = 0.5
# The Vc margin kept clear of both window thresholds, as a fraction of
# the window (the vc_margin gate).
VC_MARGIN_FRAC = 0.10


class LockDetector:
    """The lock instant and the windowed histories its gates read."""

    def __init__(self, scn, window, pump):
        self.T = scn.period
        self.win = WINDOW_DIVIDED * scn.k_divide * self.T
        self.step_v = pump.weak_slope_v_per_fs * self.T
        margin = VC_MARGIN_FRAC * (window.v_high - window.v_low)
        self.v_floor = window.v_low + margin
        self.v_ceil = window.v_high - margin
        self.time: SimTime | None = None
        self.last_ring_change: SimTime = 0
        # (t, Vc) per cycle, and two monotone deques whose fronts are its max and min.
        self.vc_hist: deque = deque()
        self.vc_max: deque = deque()
        self.vc_min: deque = deque()
        # (t, active decision, metastable sample) per cycle; running sums of both.
        self.flags: deque = deque()
        self.act_sum = 0
        self.meta_sum = 0

    def update(self, now: SimTime, v: float, up: int, dn: int,
               metastable: bool, reentry: SimTime | None) -> str | None:
        """The first ``LOCK_GATES`` gate that refuses lock at ``now``, or
        None.  ``reentry`` is None while Vc or the published region is
        outside the window, else Vc's last re-entry (0 if it never left)."""
        point = (now, v)
        hist, vc_max, vc_min = self.vc_hist, self.vc_max, self.vc_min
        hist.append(point)
        while vc_max and vc_max[-1][1] <= v:
            vc_max.pop()
        vc_max.append(point)
        while vc_min and vc_min[-1][1] >= v:
            vc_min.pop()
        vc_min.append(point)
        act = 1 if (up ^ dn) else 0
        meta = 1 if metastable else 0
        flags = self.flags
        flags.append((now, act, meta))
        self.act_sum += act
        self.meta_sum += meta
        horizon = now - self.win
        while len(hist) > 2 and hist[1][0] <= horizon:
            hist.popleft()
        oldest = hist[0][0]
        while vc_max[0][0] < oldest:
            vc_max.popleft()
        while vc_min[0][0] < oldest:
            vc_min.popleft()
        while flags and flags[0][0] < horizon:
            _, old_act, old_meta = flags.popleft()
            self.act_sum -= old_act
            self.meta_sum -= old_meta
        if reentry is None:
            return "region"
        if now - self.last_ring_change < self.win:
            return "ring_change"
        if now - reentry < self.win and reentry > 0:
            return "recent_excursion"
        if hist[0][0] > horizon + self.T:
            return "history"  # the Vc history does not span the window yet
        activity = self.act_sum
        if activity < max(1, len(flags) // 4):
            return "activity"
        # A one-directional acquisition creep moves Vc by one pump step per
        # active decision, whatever the data transition density; the locked
        # limit cycle stays well under that.  Bounding the window excursion
        # by a fraction of the activity-driven maximum separates the two.
        v_max, v_min = vc_max[0][1], vc_min[0][1]
        if v_max - v_min > DRIFT_FRAC * activity * self.step_v:
            return "drift_bound"
        # Equilibria hugging a comparator threshold are one dither step from
        # a coarse hop: only an interior control voltage counts as locked.
        if v_min < self.v_floor or v_max > self.v_ceil:
            return "vc_margin"
        # Mid-eye samples landing in the metastability window mean the loop
        # is parked on a data edge, not in the eye.
        if self.meta_sum:
            return "metastable"
        self.time = now
        return None
