"""Simulation time base, reproducible randomness and jittered clock edges.

All simulation time is carried as integer femtoseconds so that event
ordering and phase arithmetic are exact.  Clock phases and jitter are
expressed in unit intervals (UI, fractions of the clock period) and only
converted to ticks at the final rounding step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# One femtosecond per tick.  SimTime values are plain ints.
SimTime = int

FS_PER_SECOND = 10**15
FS_PER_NS = 10**6
FS_PER_PS = 10**3

# A cursor query more than this many periods from the cursor restarts the
# walk from the nominal grid.
SEEK_PERIODS = 4

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def period_fs(rate_hz: float) -> SimTime:
    """Clock period in ticks for a bit/clock rate, rounded to nearest fs."""
    return round(FS_PER_SECOND / rate_hz)


class NonMonotonicEdgeError(RuntimeError):
    """Raised when jitter pushes a generated clock edge behind its predecessor."""


class EvictedEdgeError(IndexError):
    """Raised for an edge index below a cache's base (see forget_before)."""


def _mix64(x: int) -> int:
    z = x & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class Rng:
    """SplitMix64 generator.

    The algorithm is fixed so that identical seeds give identical streams on
    every platform; the reference output for seed 0 is frozen in the test
    suite as the conformance vector.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def gauss(self) -> float:
        """One standard-normal draw (Box-Muller, cosine branch only).

        The sine branch is discarded so each call consumes exactly two
        uniforms, keeping draw counts independent of call history.
        """
        u1 = ((self.next_u64() >> 11) + 1) * 2.0**-53  # (0, 1]
        u2 = (self.next_u64() >> 11) * 2.0**-53
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def coin(self) -> int:
        return self.next_u64() & 1


def derive_seed(base_seed: int, index: int) -> int:
    """Child seed for independent sub-streams (sweep points, experiments)."""
    return _mix64((base_seed ^ _mix64((index + 1) * _GOLDEN)) & _MASK64)


@dataclass(frozen=True)
class JitterSpec:
    """Phase-modulation recipe for a clock: sinusoidal and/or white gaussian."""

    sin_amp_ui: float = 0.0
    sin_freq_hz: float = 0.0
    sin_phase_rad: float = 0.0
    gauss_sigma_ui: float = 0.0

    def __post_init__(self):
        if self.sin_amp_ui < 0:
            raise ValueError("sinusoidal jitter amplitude must be >= 0")
        if self.gauss_sigma_ui < 0:
            raise ValueError("gaussian jitter sigma must be >= 0")

    @property
    def is_quiet(self) -> bool:
        return self.sin_amp_ui == 0.0 and self.gauss_sigma_ui == 0.0


NO_JITTER = JitterSpec()


def jitter_offset(spec: JitterSpec, t: SimTime, rng: Rng | None = None) -> float:
    """Offset in UI at nominal instant ``t``.

    The sinusoidal part is evaluated analytically; the gaussian part is one
    i.i.d. draw per call, so callers must request edges in index order to
    keep streams reproducible.
    """
    off = 0.0
    if spec.sin_amp_ui:
        tsec = t / FS_PER_SECOND
        off += spec.sin_amp_ui * math.sin(
            2.0 * math.pi * spec.sin_freq_hz * tsec + spec.sin_phase_rad
        )
    if spec.gauss_sigma_ui:
        if rng is None:
            raise ValueError("gaussian jitter requires an Rng")
        off += spec.gauss_sigma_ui * rng.gauss()
    return off


def edge_time(
    period: SimTime,
    index: int,
    jitter: JitterSpec = NO_JITTER,
    rng: Rng | None = None,
) -> SimTime:
    """Active-edge instant ``index*T + jitter*T`` in ticks.

    Jitter is evaluated at the nominal grid instant ``index*T``.  Edges are
    strictly increasing in ``index`` whenever the total excursion per period
    stays below 0.5 UI; sequence-level checking lives in :class:`ClockGen`.
    """
    if period <= 0:
        raise ValueError("period must be positive")
    if index < 0:
        raise ValueError("index must be >= 0")
    t = index * period
    if not jitter.is_quiet:
        t += round(jitter_offset(jitter, index * period, rng) * period)
    return t


class ClockGen:
    """Sequential edge generator for one clock with monotonicity checking.

    Owns the gaussian draw order for its jitter spec: edges are generated
    in index order, each exactly once, and cached from a base index on, so
    ``edge(k)`` may be called with any k at or above the base in any order
    and repeated queries are stable.  The base starts at 0;
    ``forget_before(k)`` raises it to k (never past the newest generated
    edge), and ``edge`` below it raises :class:`EvictedEdgeError`.

    ``first_edge_at_or_after`` and its block form ``first_edges_at_or_after``
    keep the index of the previous answer and the edges on either side of
    it, and walk from there (see :func:`seek_edge`).
    """

    def __init__(
        self,
        period: SimTime,
        jitter: JitterSpec = NO_JITTER,
        rng: Rng | None = None,
        name: str = "clk",
    ):
        self.period = period
        self.jitter = jitter
        self.rng = rng
        self.name = name
        # Edges base, base + 1, ... in generation order.
        self._edges: list[SimTime] = []
        self._base = 0
        self._cursor: tuple | None = None

    def edge(self, index: int) -> SimTime:
        edges = self._edges
        i = index - self._base
        if 0 <= i < len(edges):
            return edges[i]
        if i < 0:
            raise EvictedEdgeError(f"{self.name}: edge {index} is below the "
                                   f"cache base {self._base}")
        while len(edges) <= i:
            k = self._base + len(edges)
            t = edge_time(self.period, k, self.jitter, self.rng)
            if edges and t <= edges[-1]:
                raise NonMonotonicEdgeError(
                    f"{self.name}: edge {k} at {t} fs not after edge {k-1} "
                    f"at {edges[-1]} fs"
                )
            edges.append(t)
        return edges[i]

    def forget_before(self, index: int) -> None:
        """Drop the cached edges below ``index``, but keep the newest one:
        the monotonicity check of the next edge compares against it."""
        drop = min(index - self._base, len(self._edges) - 1)
        if drop > 0:
            del self._edges[:drop]
            self._base += drop

    def first_edge_at_or_after(self, t: SimTime) -> tuple[int, SimTime]:
        """(index, time) of the earliest edge with time >= t."""
        self._cursor, _ = seek_edge(self.edge, self._cursor, (t,), self.period)
        k, _, e = self._cursor
        return k, e

    def first_edges_at_or_after(self, ts) -> list[SimTime]:
        """Time of the earliest edge at or after each of ``ts``, in one
        walk."""
        self._cursor, edges = seek_edge(self.edge, self._cursor, ts,
                                        self.period)
        return edges


def seek_edge(edge, cursor: tuple | None, ts,
              period: SimTime) -> tuple[tuple, list[SimTime]]:
    """Walk to the earliest edge at or after each query instant in ``ts``.

    Returns the final cursor ``(k, edge(k - 1), edge(k))`` and the list of
    ``edge(k)`` answers, one per query.  ``edge`` maps index k >= 0 to
    strictly increasing times near the nominal grid ``k * period``;
    ``cursor`` is the previous result, or None before the first query.
    Each query walks from the cursor the one before it left, or from the
    nominal grid when it lands more than ``SEEK_PERIODS`` periods away, so
    every answer is exact for any query order.  A block of queries about
    one period apart walks one step each, and a single query is a block
    of one.  ``edge(k - 1)`` is None at k = 0.
    """
    reach = SEEK_PERIODS * period
    out: list[SimTime] = []
    k, lo, hi = cursor or (None, None, None)
    for t in ts:
        if hi is None or not -reach < t - hi < reach:
            k = max(int(t // period) - 2, 0)
            lo, hi = (edge(k - 1) if k else None), edge(k)
        while hi < t:
            k += 1
            lo, hi = hi, edge(k)
        while k > 0 and lo >= t:
            k -= 1
            lo, hi = (edge(k - 1) if k else None), lo
        out.append(hi)
    return ((k, lo, hi) if out else cursor), out


def clamp_voltage(v: float, v_dd: float) -> float:
    """Control-voltage clamp to the supply rails."""
    if v < 0.0:
        return 0.0
    if v > v_dd:
        return v_dd
    return v
