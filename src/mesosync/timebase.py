"""Simulation time base, reproducible randomness and clock edges.

All simulation time is carried as integer femtoseconds so that event
ordering and phase arithmetic are exact.  Clock phases and jitter are
expressed in unit intervals (UI, fractions of the clock period) and only
converted to ticks at the final rounding step.  ``ClockGen`` generates,
caches and walks jittered edges; ``GridClock`` answers the edges of a
clock without jitter in closed form; ``make_clock`` picks one of the two
from a clock's jitter.
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

# Edges a ClockGen generates at a time when it runs out of cached ones.
_EDGE_BLOCK = 256

# A bound on |Rng.gauss()|: its radius sqrt(-2 ln u1) is largest at the
# smallest uniform, u1 = 2**-53, where it is 8.57.
GAUSS_MAX = 8.6

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
        """``next_u64() & 1``, with its one SplitMix64 step in this body."""
        z = self._state = (self._state + _GOLDEN) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & 1


def derive_seed(base_seed: int, index: int) -> int:
    """Child seed for independent sub-streams (sweep points, experiments)."""
    return _mix64((base_seed ^ _mix64((index + 1) * _GOLDEN)) & _MASK64)


@dataclass(frozen=True)
class JitterSpec:
    """Phase-modulation recipe for a clock: sinusoidal and/or white gaussian."""

    sin_amp_ui: float = 0.0
    sin_freq_hz: float = 0.0
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


def jitter_offsets(spec: JitterSpec, ts, rng: Rng | None = None) -> list[float]:
    """Offset in UI at each nominal instant of ``ts``.

    The sinusoidal part, zero at t = 0, is evaluated analytically; the
    gaussian part is one i.i.d. draw per instant, in the order of ``ts``,
    so callers must request edges in index order to keep streams
    reproducible.
    """
    offs = [0.0] * len(ts)
    if spec.sin_amp_ui:
        amp = spec.sin_amp_ui
        w = 2.0 * math.pi * spec.sin_freq_hz
        offs = [amp * math.sin(w * (t / FS_PER_SECOND)) for t in ts]
    if spec.gauss_sigma_ui:
        if rng is None:
            raise ValueError("gaussian jitter requires an Rng")
        sigma, gauss = spec.gauss_sigma_ui, rng.gauss
        offs = [off + sigma * gauss() for off in offs]
    return offs


class ClockGen:
    """Sequential edge generator for one clock with monotonicity checking.

    The one place that generates, caches, evicts and walks jittered clock
    edges (a quiet clock gives the edges of :class:`GridClock`).
    ``_generate(k, n)`` makes edges k..k+n-1, in index order and once per
    edge, which fixes the gaussian draw order; a clock derived from another
    overrides it.  ``edge`` extends the cache by at least ``_EDGE_BLOCK``
    edges at a time; a non-monotone edge inside a block ends it, and its
    :class:`NonMonotonicEdgeError` is raised when its index is asked for.
    Edges are cached from a base index on, so ``edge(k)`` takes any k at or
    above the base in any order.  ``forget_before(k)`` raises the base to k
    (never past the newest edge); below it ``edge`` raises
    :class:`EvictedEdgeError`.  ``first_edges_at_or_after`` walks from a
    cursor: the index of the previous answer and the edges either side.
    """

    def __init__(
        self,
        period: SimTime,
        jitter: JitterSpec = NO_JITTER,
        rng: Rng | None = None,
        name: str = "clk",
    ):
        if period <= 0:
            raise ValueError("period must be positive")
        self.period = period
        self.jitter = jitter
        self.rng = rng
        self.name = name
        # Edges base, base + 1, ... in generation order.
        self._edges: list[SimTime] = []
        self._base = 0
        # The error of the first non-monotone edge, past the cached ones.
        self._error: NonMonotonicEdgeError | None = None
        # (k, edge(k - 1), edge(k)) of the previous answer, or None.
        self._cursor: tuple | None = None

    def _generate(self, k: int, n: int) -> list[SimTime]:
        """``j*T`` plus the jitter at that nominal instant, in ticks, for
        each j in k..k+n-1."""
        T = self.period
        ts = range(k * T, (k + n) * T, T)
        return [t + round(off * T)
                for t, off in zip(ts, jitter_offsets(self.jitter, ts, self.rng))]

    def edge(self, index: int) -> SimTime:
        edges = self._edges
        i = index - self._base
        if 0 <= i < len(edges):
            return edges[i]
        if i < 0:
            raise EvictedEdgeError(f"{self.name}: edge {index} is below the "
                                   f"cache base {self._base}")
        while len(edges) <= i:
            if self._error is not None:
                raise self._error
            self._extend(i + 1 - len(edges))
        return edges[i]

    def _extend(self, needed: int) -> None:
        """Cache the next ``max(needed, _EDGE_BLOCK)`` edges, up to the
        first one not after its predecessor, whose error is kept."""
        edges = self._edges
        k = self._base + len(edges)
        new = self._generate(k, max(needed, _EDGE_BLOCK))
        last = edges[-1] if edges else None
        for j, t in enumerate(new):
            if last is not None and t <= last:
                self._error = NonMonotonicEdgeError(
                    f"{self.name}: edge {k + j} at {t} fs not after edge "
                    f"{k + j - 1} at {last} fs"
                )
                del new[j:]
                break
            last = t
        edges.extend(new)

    def forget_before(self, index: int) -> None:
        """Drop the cached edges below ``index``, but keep the newest one:
        the monotonicity check of the next edge compares against it."""
        drop = min(index - self._base, len(self._edges) - 1)
        if drop > 0:
            del self._edges[:drop]
            self._base += drop

    def first_edge_at_or_after(self, t: SimTime) -> tuple[int, SimTime]:
        """(index, time) of the earliest edge with time >= t."""
        (e,) = self.first_edges_at_or_after((t,))
        return self._cursor[0], e

    def first_edges_at_or_after(self, ts) -> list[SimTime]:
        """Time of the earliest edge at or after each of ``ts``, in one
        walk: from the cursor the query before left, or from the nominal
        grid when more than ``SEEK_PERIODS`` periods away, so every answer
        is exact for any query order."""
        edge = self.edge
        reach = SEEK_PERIODS * self.period
        out: list[SimTime] = []
        k, lo, hi = self._cursor or (None, None, None)
        for t in ts:
            if hi is None or not -reach < t - hi < reach:
                k = max(int(t // self.period) - 2, 0)
                lo, hi = (edge(k - 1) if k else None), edge(k)
            while hi < t:
                k += 1
                lo, hi = hi, edge(k)
            while k > 0 and lo >= t:
                k -= 1
                lo, hi = (edge(k - 1) if k else None), lo
            out.append(hi)
        if out:
            self._cursor = (k, lo, hi)
        return out


class GridClock(ClockGen):
    """A clock without jitter: edge k is ``k * period``, answered in closed
    form.  It gives every answer ``ClockGen(period)`` gives, and the tests
    compare the two; nothing is cached, so ``forget_before`` drops nothing
    and an edge below index 0 is the only one that raises."""

    def edge(self, index: int) -> SimTime:
        if index < 0:
            raise EvictedEdgeError(f"{self.name}: edge {index} is below the "
                                   f"cache base 0")
        return index * self.period

    def forget_before(self, index: int) -> None:
        pass

    def first_edge_at_or_after(self, t: SimTime) -> tuple[int, SimTime]:
        k = max(-(-t // self.period), 0)
        return k, k * self.period

    def first_edges_at_or_after(self, ts) -> list[SimTime]:
        # max(ceil(t / T), 0) * T: the next multiple of T, or edge 0.
        period = self.period
        return [t + -t % period if t > 0 else 0 for t in ts]


def make_clock(
    period: SimTime,
    jitter: JitterSpec,
    rng: Rng | None = None,
    name: str = "clk",
) -> ClockGen:
    """A clock with ``jitter``: a :class:`GridClock` when it is quiet, else a
    :class:`ClockGen` drawing from ``rng``."""
    if jitter.is_quiet:
        return GridClock(period, name=name)
    return ClockGen(period, jitter, rng, name)


def clamp_voltage(v: float, v_dd: float) -> float:
    """Control-voltage clamp to the supply rails."""
    if v < 0.0:
        return 0.0
    if v > v_dd:
        return v_dd
    return v
