"""Transmit data generation and the delayed low-swing receive waveform.

The channel is purely a delay of ``(n + alpha) * T`` plus finite linear
transitions; each transition is identical (no ISI), so deterministic jitter
is injected through the transmitter clock instead of the line model.
"""

from __future__ import annotations

from dataclasses import dataclass

from .timebase import ClockGen, SimTime

PRBS15_MASK = 0x7FFF
PRBS15_PERIOD = 32767


@dataclass(frozen=True)
class Prbs15State:
    """15-bit Fibonacci LFSR with taps x^15 + x^14 + 1."""

    lfsr: int = PRBS15_MASK

    def __post_init__(self):
        if not 0 < self.lfsr <= PRBS15_MASK:
            raise ValueError("PRBS-15 state must be a nonzero 15-bit value")


def prbs15_next(state: Prbs15State) -> tuple[int, Prbs15State]:
    """One LFSR step; returns (output bit = MSB before shift, new state)."""
    reg = state.lfsr
    out = (reg >> 14) & 1
    fb = ((reg >> 14) ^ (reg >> 13)) & 1
    return out, Prbs15State(((reg << 1) | fb) & PRBS15_MASK)


class BitSource:
    """Lazily extended transmit bit sequence.

    Patterns: ``prbs15`` (seeded from the run seed), ``alternating`` 1010...,
    ``ones`` and ``zeros`` for degenerate checks.
    """

    def __init__(self, pattern: str = "prbs15", seed: int = 1):
        self.pattern = pattern
        self._bits: list[int] = []
        if pattern == "prbs15":
            # Map the seed onto a nonzero register value, then flush the
            # register so degenerate low-weight seeds don't start the
            # stream with a long constant run.
            self._state = Prbs15State((seed % PRBS15_MASK) + 1)
            for _ in range(31):
                _, self._state = prbs15_next(self._state)
        elif pattern not in ("alternating", "ones", "zeros"):
            raise ValueError(f"unknown data pattern: {pattern!r}")

    def bit(self, index: int) -> int:
        if index < 0:
            raise IndexError("bit index must be >= 0")
        if self.pattern == "alternating":
            return index & 1
        if self.pattern == "ones":
            return 1
        if self.pattern == "zeros":
            return 0
        while len(self._bits) <= index:
            b, self._state = prbs15_next(self._state)
            self._bits.append(b)
        return self._bits[index]


@dataclass(frozen=True)
class ChannelConfig:
    """Repeaterless link: integer+fractional delay, edge rate and swing."""

    n: int
    alpha: float
    bit_period: SimTime
    transition_time: SimTime
    swing: float

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be >= 0")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("alpha must be in [0, 1)")
        if self.transition_time >= self.bit_period:
            raise ValueError("transition_time must be < bit_period")
        if self.swing <= 0:
            raise ValueError("swing must be positive")

    @property
    def delay_fs(self) -> SimTime:
        return self.n * self.bit_period + round(self.alpha * self.bit_period)


class RxWaveform:
    """Differential voltage at the receiver as a pure function of time.

    Bit k occupies [boundary(k), boundary(k+1)) where
    ``boundary(k) = tx_edge(k) + (n + alpha) * T``.  Where adjacent bits
    differ, the waveform ramps linearly over ``transition_time`` centered on
    the boundary, crossing 0 V exactly at the boundary instant.
    """

    def __init__(
        self, bits: BitSource, cfg: ChannelConfig, tx_clock: ClockGen | None = None
    ):
        self.bits = bits
        self.cfg = cfg
        self._tx = tx_clock or ClockGen(cfg.bit_period, name="tx")
        self._delay = cfg.delay_fs

    def boundary(self, k: int) -> SimTime:
        """Receiver-side start instant of bit k."""
        return self._tx.edge(k) + self._delay

    def bit_at(self, t: SimTime) -> int:
        """Index of the bit whose interval contains t (t >= boundary(0))."""
        k = max(0, (t - self._delay) // self.cfg.bit_period - 2)
        k = int(k)
        while self.boundary(k + 1) <= t:
            k += 1
        while k > 0 and self.boundary(k) > t:
            k -= 1
        return k

    def value_at(self, t: SimTime) -> float:
        if t < self.boundary(0):
            # Before the first bit arrives the line idles at bit 0's level.
            return self._level(self.bits.bit(0))
        k = self.bit_at(t)
        half = self.cfg.transition_time // 2
        b = self.bits.bit(k)
        # Ramp around the leading boundary of bit k.
        t0 = self.boundary(k)
        if k > 0 and t - t0 < half:
            prev = self.bits.bit(k - 1)
            if prev != b:
                return self._ramp(prev, b, t - t0)
        # Ramp around the trailing boundary (leading edge of bit k+1).
        t1 = self.boundary(k + 1)
        if t1 - t <= half:
            nxt = self.bits.bit(k + 1)
            if nxt != b:
                return self._ramp(b, nxt, t - t1)
        return self._level(b)

    def _level(self, bit: int) -> float:
        return self.cfg.swing / 2.0 if bit else -self.cfg.swing / 2.0

    def _ramp(self, frm: int, to: int, dt_from_boundary: SimTime) -> float:
        # Linear ramp of width transition_time centered at the boundary.
        lo = self._level(frm)
        hi = self._level(to)
        frac = dt_from_boundary / self.cfg.transition_time + 0.5
        return lo + (hi - lo) * frac

    def nearest_transition_distance(self, t: SimTime) -> SimTime:
        """Distance from t to the closest actual data transition midpoint.

        Returns a large sentinel when no transition exists nearby (runs of
        identical bits).
        """
        k = self.bit_at(max(t, self.boundary(0)))
        best: SimTime | None = None
        for j in range(max(1, k - 1), k + 3):
            if self.bits.bit(j) != self.bits.bit(j - 1):
                d = abs(t - self.boundary(j))
                if best is None or d < best:
                    best = d
        return best if best is not None else 1 << 62
