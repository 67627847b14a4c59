"""Window comparator, coarse control FSM and one-hot ring counter.

Direction convention: the ring's ``up`` direction advances the hot index by
one, which selects the next-later DLL phase.  A control voltage above the
window therefore commands an up count paired with a strong discharge
(``dn_strong``); below the window, a down count paired with ``up_strong``.
``STRONG_PULSE`` is the one home of that pairing.  The paired strong pulse
lasts one divided cycle unless the comparator reports re-entry first
(asynchronous reset path); the harness holds the pump levels.
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


@dataclass(frozen=True)
class CoarseFsm:
    """State of the divided-clock control logic.

    ``enable`` mirrors the comparator being out of window (after its trip
    delay); ``up_dn`` is the direction flag, asserted for the above-window
    case.
    """

    enable: int = 0
    up_dn: int = 0


def fsm_step(classification: str, divided_clock_edge: bool
             ) -> tuple[CoarseFsm, str | None]:
    """Advance the control logic; the next state depends on the inputs only.

    Call on every divided-clock active edge (``divided_clock_edge=True``)
    and on comparator transitions (False) for the asynchronous reset path.
    Returns (state', ring_dir); the ring steps, and ``STRONG_PULSE[ring_dir]``
    fires, only on divided edges while out of window (else ring_dir is None).
    """
    if classification == WITHIN:
        return CoarseFsm(), None
    above = classification == ABOVE
    new = CoarseFsm(enable=1, up_dn=1 if above else 0)
    if not divided_clock_edge:
        # Comparator asserted between edges: arm the FSM only.
        return new, None
    return new, UP if above else DOWN
