"""Window comparator, coarse control FSM and one-hot ring counter.

Direction convention: the ring's ``up`` direction advances the hot index by
one, which selects the next-later DLL phase.  A control voltage above the
window therefore commands an up count paired with a strong discharge
(``dn_strong``); below the window, a down count paired with ``up_strong``.
``STRONG_PULSE`` is the one home of that pairing.  The paired strong pulse
lasts one divided cycle unless the comparator reports re-entry first
(asynchronous reset path).  The harness holds the pump levels and the
published comparator region; the FSM's outputs are functions of that region
(``fsm_step``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .timebase import SimTime

ABOVE = "above"
WITHIN = "within"
BELOW = "below"

UP = "up"
DOWN = "down"


@dataclass(frozen=True)
class WindowComparator:
    v_low: float
    v_high: float
    trip_delay: SimTime

    def __post_init__(self):
        if self.v_low >= self.v_high:
            raise ValueError("window thresholds out of order")
        if self.trip_delay < 0:
            raise ValueError("trip delay must be >= 0")


def window_classify(v_c: float, w: WindowComparator) -> str:
    """Instantaneous region of ``v_c``; thresholds themselves count as within.

    The comparator output becomes visible ``trip_delay`` after the crossing
    instant; the event scheduling for that lag lives in the harness.
    """
    if v_c > w.v_high:
        return ABOVE
    if v_c < w.v_low:
        return BELOW
    return WITHIN


@dataclass(frozen=True)
class RingCounter:
    """N-bit one-hot word; preset state is Q0."""

    n: int
    q: int = 1  # one-hot word, bit i set <=> Q_i

    def __post_init__(self):
        _check_one_hot(self.q, self.n)

    @property
    def hot_index(self) -> int:
        return self.q.bit_length() - 1


def _check_one_hot(q: int, n: int) -> None:
    if n <= 0:
        raise ValueError("ring width must be positive")
    if q <= 0 or q >= (1 << n) or (q & (q - 1)) != 0:
        raise ValueError(f"ring word {q:#x} is not one-hot in {n} bits")


def ring_step(r: RingCounter, direction: str) -> RingCounter:
    """Cyclic shift of the hot bit: up -> index+1 mod N, down -> index-1."""
    _check_one_hot(r.q, r.n)
    if direction == UP:
        idx = (r.hot_index + 1) % r.n
    elif direction == DOWN:
        idx = (r.hot_index - 1) % r.n
    else:
        raise ValueError(f"unknown ring direction: {direction!r}")
    return RingCounter(r.n, 1 << idx)


# (up_strong, dn_strong) fired with each ring step; no step (None), none.
STRONG_PULSE = {None: (0, 0), UP: (0, 1), DOWN: (1, 0)}


def fsm_step(region: str) -> str | None:
    """Ring direction at a divided-clock active edge, from the published
    comparator region: up above the window, down below, None within.

    The control logic holds no state of its own: its ``enable`` (out of
    window) and ``up_dn`` (above) outputs are functions of the published
    region, which the harness keeps.  The ring steps, and
    ``STRONG_PULSE[direction]`` fires, only on divided edges; a publication
    between edges changes those outputs alone (the asynchronous path).
    """
    if region == WITHIN:
        return None
    return UP if region == ABOVE else DOWN
