"""Transmit data generation and the delayed low-swing receive waveform.

The channel is purely a delay of ``(n + alpha) * T`` plus finite linear
transitions; each transition is identical (no ISI), so deterministic jitter
is injected through the transmitter clock instead of the line model.
"""

from __future__ import annotations

from dataclasses import dataclass

from .timebase import SEEK_PERIODS, ClockGen, SimTime

PRBS15_MASK = 0x7FFF
PRBS15_PERIOD = 32767
# PRBS bits generated ahead per extension, so that a reader moving one bit
# at a time extends the sequence once every this many bits: five groups of
# _PRBS_GROUP (see BitSource).
_PRBS_CHUNK = 65
# Register steps taken at once: the feedback taps bits 14 and 13, and a bit
# shifted in reaches bit 13 only after 13 steps.
_PRBS_GROUP = 13
# The bits of a 7-bit and a 6-bit value, most significant first: the high
# and low parts of a 13-bit group.
_BITS7 = [bytes((v >> s) & 1 for s in range(6, -1, -1)) for v in range(128)]
_BITS6 = [bytes((v >> s) & 1 for s in range(5, -1, -1)) for v in range(64)]
# One period of each fixed pattern.
_FIXED_PATTERNS = {"alternating": b"\x00\x01", "ones": b"\x01", "zeros": b"\x00"}


class BitSource:
    """Periodic transmit bit sequence, one period stored.

    Patterns: ``prbs15`` (seeded from the run seed), ``alternating`` 1010...,
    ``ones`` and ``zeros`` for degenerate checks.  Bit i is bit
    ``i % period`` of the stored period, a ``bytearray``.

    ``prbs15`` is a 15-bit Fibonacci LFSR with taps x^15 + x^14 + 1, kept
    as a plain integer register; each step outputs the register's MSB
    before the shift.  Its period, ``PRBS15_PERIOD`` bits from any nonzero
    register, is stored lazily: nothing is generated ahead at construction,
    and a read past the stored bits extends them by at least
    ``_PRBS_CHUNK`` register steps, up to one period.

    The register takes 13 steps at once: they output bits 14..2 in that
    order and shift in b14^b13, b13^b12, ..., b2^b1, since no bit shifted
    in reaches the taps within 13 steps.  So bits 1..0 move up to 14..13,
    and bits 12..0 become the low 13 bits of (reg >> 2) ^ (reg >> 1).
    Single steps make up the remainder of a count, such as the 31-step
    flush at construction and the period's last bits.
    """

    def __init__(self, pattern: str, seed: int):
        if pattern == "prbs15":
            self._bits = bytearray()
            self._period = PRBS15_PERIOD
            # Map the seed onto a nonzero register value, then flush the
            # register so degenerate low-weight seeds don't start the
            # stream with a long constant run.
            self._reg = (seed % PRBS15_MASK) + 1
            self._extend(31)
            del self._bits[:]
        elif pattern in _FIXED_PATTERNS:
            self._bits = bytearray(_FIXED_PATTERNS[pattern])
            self._period = len(self._bits)
        else:
            raise ValueError(f"unknown data pattern: {pattern!r}")

    def _extend(self, count: int) -> None:
        """Append the next ``count`` register outputs."""
        bits = self._bits
        reg = self._reg
        hi, lo = _BITS7, _BITS6
        for _ in range(count // _PRBS_GROUP):
            out = reg >> 2
            bits += hi[out >> 6]
            bits += lo[out & 63]
            reg = ((reg & 3) << 13) | (out ^ ((reg >> 1) & 0x1FFF))
        for _ in range(count % _PRBS_GROUP):
            bits.append(reg >> 14)
            reg = ((reg << 1) | (((reg >> 14) ^ (reg >> 13)) & 1)) & PRBS15_MASK
        self._reg = reg

    def bit(self, index: int) -> int:
        bits = self._bits
        if 0 <= index < len(bits):
            return bits[index]
        if index < 0:
            raise IndexError("bit index must be >= 0")
        n, period = len(bits), self._period
        if n < period:
            self._extend(min(max(index + 1 - n, _PRBS_CHUNK), period - n))
        return bits[index % period]


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
        if not 0 <= self.transition_time < self.bit_period:
            raise ValueError("transition_time must be in [0, bit_period)")
        if self.swing <= 0:
            raise ValueError("swing must be positive")

    @property
    def delay_fs(self) -> SimTime:
        return self.n * self.bit_period + round(self.alpha * self.bit_period)


NO_TRANSITION = 1 << 62


class RxWaveform:
    """Differential voltage at the receiver as a pure function of time.

    Bit k occupies [boundary(k), boundary(k+1)) where
    ``boundary(k) = tx_edge(k) + (n + alpha) * T``.  Where adjacent bits
    differ, the waveform ramps linearly over ``transition_time`` centered on
    the boundary, crossing 0 V exactly at the boundary instant.

    Queries are answered from a cursor: the bit index k of the previous
    answer, a five-bit window k-2..k+2 of data around it, the boundaries
    k-1, k and k+1, and the nearest data transitions around the bit.  A new
    query walks from there, or from the nominal grid when it lands more than
    a few periods away, so every answer is exact for any time and any query
    order.  Samplers move forward about one bit per cycle: a walk of exactly
    one bit shifts the window by one, reads only bit k+2 (from the stored
    period) and finds the nearest transitions; any other move reads the
    window one bit back and takes that same step.  ``Sampler.sample`` reads
    the cursor directly (``_seek``, then the bit and its nearest
    transitions), and the harness takes the bit's index from ``bit_index``.
    """

    def __init__(self, bits: BitSource, cfg: ChannelConfig, tx_clock: ClockGen):
        self.bits = bits
        self.cfg = cfg
        self._tx = tx_clock
        self._delay = cfg.delay_fs
        self._reach = SEEK_PERIODS * cfg.bit_period
        self._half = cfg.transition_time // 2
        # The line's level for bit 0 and bit 1.
        self._levels = (-cfg.swing / 2.0, cfg.swing / 2.0)
        # The pattern's stored period, which a one-bit step reads directly.
        self._stored, self._pattern_period = bits._bits, bits._period
        # No bit yet: the first query reads the whole window (see _seek).
        self.bit_index = -2
        self._lo = self._hi = -(1 << 62)

    def boundary(self, k: int) -> SimTime:
        """Receiver-side start instant of bit k."""
        return self._tx.edge(k) + self._delay

    def _seek(self, t: SimTime) -> None:
        """Move the cursor to the bit containing t (bit 0 before it)."""
        k, lo, hi = self.bit_index, self._lo, self._hi
        edge = self._tx.edge
        delay = self._delay
        reach = self._reach
        if not -reach < t - lo < reach:
            k = max(0, int((t - delay) // self.cfg.bit_period) - 2)
            lo = edge(k) + delay
            hi = edge(k + 1) + delay
        while hi <= t:
            k += 1
            lo = hi
            hi = edge(k + 1) + delay
        while k > 0 and lo > t:
            k -= 1
            hi = lo
            lo = edge(k) + delay
        if k != self.bit_index + 1:
            if k == self.bit_index:
                return
            self._place(k)
        # One bit forward: shift the window and read only the new bit k+2,
        # from the stored period once it holds that bit.
        self._lo_prev = self._lo
        self.bit_index, self._lo, self._hi = k, lo, hi
        prev, b, nxt = self._bit, self._next, self._next2
        self._prev2, self._prev, self._bit, self._next = self._prev, prev, b, nxt
        stored = self._stored
        j = (k + 2) % self._pattern_period
        self._next2 = nxt2 = stored[j] if j < len(stored) else self.bits.bit(k + 2)
        # The nearest transitions among boundaries k-1..k+2 on either side
        # of the bit; the outer boundary counts only without the inner one.
        if prev != b:
            self._left = lo
        elif k >= 2 and self._prev2 != b:
            self._left = self._lo_prev
        else:
            self._left = None
        if nxt != b:
            self._right = hi
        elif nxt2 != b:
            self._right = edge(k + 2) + delay
        else:
            self._right = None

    def _place(self, k: int) -> None:
        """Read the window as it stands on bit k - 1, for ``_seek`` to step
        onto bit k.  The bits before bit 0 repeat it; the transition rule
        reads bit k-2 only from k = 2 on."""
        bit = self.bits.bit
        b = bit(k)
        prev = bit(k - 1) if k else b
        self._prev = bit(k - 2) if k >= 2 else prev
        self._bit, self._next, self._next2 = prev, b, bit(k + 1)
        self._lo = self.boundary(k - 1) if k else None

    def bit_at(self, t: SimTime) -> int:
        """Index of the bit whose interval contains t; 0 for t < boundary(0)."""
        if not self._lo <= t < self._hi:
            self._seek(t)
        return self.bit_index

    def value_at(self, t: SimTime) -> float:
        if not self._lo <= t < self._hi:
            self._seek(t)
        b = self._bit
        if t < self._lo:
            # Before the first bit arrives the line idles at bit 0's level.
            return self._levels[b]
        half = self._half
        # Ramp around the leading boundary of bit k.
        if t - self._lo < half and self._prev != b:
            return self._ramp(self._prev, b, t - self._lo)
        # Ramp around the trailing boundary (leading edge of bit k+1).
        if self._hi - t <= half and self._next != b:
            return self._ramp(b, self._next, t - self._hi)
        return self._levels[b]

    def plateau(self, k: int) -> tuple[SimTime, SimTime, float]:
        """``(start, end, level)``: bit k's waveform equals ``level`` on
        [start, end), the bit's interval less the ramps of ``value_at``
        (half a transition at a boundary to a different bit)."""
        lo = self.boundary(k)
        if not self._lo <= lo < self._hi:
            self._seek(lo)
        b = self._bit
        start = lo if self._prev == b else lo + self._half
        end = self._hi if self._next == b else self._hi - self._half
        return start, end, self._levels[b]

    def _ramp(self, frm: int, to: int, dt_from_boundary: SimTime) -> float:
        # Linear ramp of width transition_time centered at the boundary.
        lo = self._levels[frm]
        hi = self._levels[to]
        frac = dt_from_boundary / self.cfg.transition_time + 0.5
        return lo + (hi - lo) * frac

    def nearest_transition_distance(self, t: SimTime) -> SimTime:
        """Distance from t to the closest data transition midpoint.

        Only the boundaries k-1..k+2 around t's bit k are considered; a
        large sentinel is returned when none of them carries a transition
        (runs of identical bits).
        """
        if not self._lo <= t < self._hi:
            self._seek(t)
        left, right = self._left, self._right
        if left is None:
            return NO_TRANSITION if right is None else right - t
        if right is not None and right - t < t - left:
            return right - t
        return t - left
