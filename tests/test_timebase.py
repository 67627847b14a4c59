import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mesosync import timebase
from mesosync.timebase import (
    ClockGen,
    EvictedEdgeError,
    GridClock,
    JitterSpec,
    NO_JITTER,
    NonMonotonicEdgeError,
    Rng,
    derive_seed,
    jitter_offsets,
    period_fs,
)

# Reference output of the fixed generator algorithm; these are the published
# conformance vectors for seed 0 and two spot-check seeds.
SPLITMIX64_SEED0 = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
]
SPLITMIX64_SEED_1234567 = [0x599ED017FB08FC85, 0x2C73F08458540FA5, 0x883EBCE5A3F27C77]


def test_rng_reference_vectors():
    rng = Rng(0)
    assert [rng.next_u64() for _ in range(5)] == SPLITMIX64_SEED0
    rng = Rng(1234567)
    assert [rng.next_u64() for _ in range(3)] == SPLITMIX64_SEED_1234567


@pytest.mark.parametrize("seed", [0, 1234567, derive_seed(0, 0),
                                  derive_seed(1234567, 3), derive_seed(29, 7)])
def test_rng_coin_is_low_bit_of_next_u64(seed):
    # coin() runs its SplitMix64 step in its own body; its stream is the
    # low bit of next_u64's from a twin generator.
    a, b = Rng(seed), Rng(seed)
    assert [a.coin() for _ in range(10_000)] == [b.next_u64() & 1
                                                 for _ in range(10_000)]


def test_rng_determinism():
    a, b = Rng(99), Rng(99)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_rng_gauss_moments():
    rng = Rng(7)
    xs = [rng.gauss() for _ in range(20000)]
    mean = sum(xs) / len(xs)
    var = sum((x - mean) ** 2 for x in xs) / len(xs)
    assert abs(mean) < 0.03
    assert abs(var - 1.0) < 0.05


def test_derive_seed_spread():
    seeds = {derive_seed(1, i) for i in range(100)}
    assert len(seeds) == 100
    assert derive_seed(1, 0) != derive_seed(2, 0)


def test_period_for_1p3ghz():
    assert period_fs(1.3e9) == 769_231
    assert period_fs(4e9) == 250_000


def test_jitter_offset_sinusoid_zero_phase():
    spec = JitterSpec(sin_amp_ui=0.5, sin_freq_hz=1e6)
    assert jitter_offsets(spec, [0])[0] == 0.0


def test_jitter_offset_sinusoid_peak():
    # Quarter period of a 1 MHz sinusoid is 0.25 us.
    spec = JitterSpec(sin_amp_ui=0.5, sin_freq_hz=1e6)
    t = 250_000_000  # 0.25 us in fs
    assert jitter_offsets(spec, [t])[0] == pytest.approx(0.5, abs=1e-12)


def test_jitter_offset_zero_sigma_gaussian():
    spec = JitterSpec(gauss_sigma_ui=0.0)
    assert jitter_offsets(spec, [12345], Rng(1))[0] == 0.0


def test_jitter_spec_rejects_negative():
    with pytest.raises(ValueError):
        JitterSpec(sin_amp_ui=-0.1)
    with pytest.raises(ValueError):
        JitterSpec(gauss_sigma_ui=-1.0)


def test_clockgen_edge_unjittered_grid():
    T = period_fs(1.3e9)
    assert ClockGen(T).edge(2) == 2 * T


def test_clockgen_edge_sinusoidal_formula():
    # 2.5 Gb/s: T = 400 ps; 50 MHz sinusoid at 0.1 UI, evaluated at k*T.
    T = period_fs(2.5e9)
    assert T == 400_000
    gen = ClockGen(T, JitterSpec(sin_amp_ui=0.1, sin_freq_hz=50e6))
    for k in range(0, 12):
        expect = k * T + round(0.1 * T * math.sin(2 * math.pi * 50e6 * k * T / 1e15))
        assert gen.edge(k) == expect


def test_clockgen_rejects_bad_args():
    with pytest.raises(ValueError):
        ClockGen(0)
    with pytest.raises(ValueError):
        ClockGen(-100)
    # A negative index lies below every cache base.
    with pytest.raises(EvictedEdgeError):
        ClockGen(100).edge(-1)


def test_clockgen_monotone_over_1e6_edges():
    # Near-limit sinusoid plus white noise: excursion below 0.5 UI per period.
    T = period_fs(1.3e9)
    gen = ClockGen(
        T,
        jitter=JitterSpec(sin_amp_ui=0.4, sin_freq_hz=50e6, gauss_sigma_ui=0.01),
        rng=Rng(3),
    )
    last = gen.edge(0)
    for k in range(1, 1_000_000):
        t = gen.edge(k)
        assert t > last
        last = t


def test_clockgen_reports_non_monotonic():
    T = 1000
    gen = ClockGen(T, jitter=JitterSpec(gauss_sigma_ui=5.0), rng=Rng(11))
    with pytest.raises(NonMonotonicEdgeError):
        for k in range(10_000):
            gen.edge(k)


def _first_bad_edge(make):
    """The first non-monotone index of a clock from ``make`` generating one
    edge at a time, the edges before it and its error message."""
    with mock.patch.object(timebase, "_EDGE_BLOCK", 1):
        gen = make()
        edges = []
        with pytest.raises(NonMonotonicEdgeError) as err:
            while True:
                edges.append(gen.edge(len(edges)))
    return len(edges), edges, str(err.value)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_block_edge_error_waits_for_its_index(seed):
    # A block that meets a non-monotone edge keeps the edges before it and
    # raises the one-at-a-time error only when that edge is asked for.
    def make():
        return ClockGen(1000, JitterSpec(gauss_sigma_ui=0.3), Rng(seed))

    bad, edges, message = _first_bad_edge(make)
    assert 0 < bad < timebase._EDGE_BLOCK
    gen = make()
    assert gen.edge(bad - 1) == edges[-1]
    assert [gen.edge(k) for k in range(bad)] == edges
    for k in (bad, bad + 1, bad):
        with pytest.raises(NonMonotonicEdgeError) as err:
            gen.edge(k)
        assert str(err.value) == message


def test_clockgen_generates_edges_in_blocks():
    # One request generates a block; the draws are the one-at-a-time draws.
    spec = JitterSpec(sin_amp_ui=0.2, sin_freq_hz=50e6, gauss_sigma_ui=0.05)
    gen = ClockGen(period_fs(1.3e9), spec, Rng(5))
    gen.edge(0)
    assert len(gen._edges) == timebase._EDGE_BLOCK
    gen.edge(3 * timebase._EDGE_BLOCK)
    assert len(gen._edges) == 3 * timebase._EDGE_BLOCK + 1
    with mock.patch.object(timebase, "_EDGE_BLOCK", 1):
        one = ClockGen(period_fs(1.3e9), spec, Rng(5))
        assert [one.edge(k) for k in range(len(gen._edges))] == gen._edges


def test_clockgen_forget_before_drops_only_older_edges():
    # Each extension keeps the newest _EDGE_KEEP edges.  Dropped edges
    # raise, never answer; the kept ones and the edges generated after the
    # drop are those of a clock that dropped nothing.
    T = period_fs(1.3e9)
    spec = JitterSpec(sin_amp_ui=0.2, sin_freq_hz=50e6, gauss_sigma_ui=0.05)
    ref = ClockGen(T, jitter=spec, rng=Rng(5))
    with mock.patch.object(timebase, "_EDGE_KEEP", 300):
        gen = ClockGen(T, jitter=spec, rng=Rng(5))
        gen.edge(99)
        assert gen._base == 0
        # The second block makes edges 256..511; 512 - 300 are dropped.
        gen.edge(400)
        assert gen._base == 212
        for k in (0, 211):
            with pytest.raises(EvictedEdgeError):
                gen.edge(k)
        assert issubclass(EvictedEdgeError, IndexError)
        assert [gen.edge(k) for k in range(212, 700)] == [
            ref.edge(k) for k in range(212, 700)]
        # The newest edge is always kept, so no draw is skipped.
        newest = gen._base + len(gen._edges) - 1
        assert len(gen._edges) == 300 and newest >= 699
        with pytest.raises(EvictedEdgeError):
            gen.edge(newest - 300)
        assert gen.edge(newest - 299) == ref.edge(newest - 299)
        assert gen.edge(newest) == ref.edge(newest)
        assert gen.edge(newest + 201) == ref.edge(newest + 201)


def test_edge_far_past_the_keep_is_the_edge_asked_for():
    # An extension that drops edges raises the base, and edge() reads the
    # asked index at its new place: each answer is that of a clock that
    # keeps every edge, after a short step, a long one and from a fresh
    # clock.
    T = period_fs(1.3e9)
    spec = JitterSpec(sin_amp_ui=0.2, sin_freq_hz=50e6, gauss_sigma_ui=0.05)
    keep = timebase._EDGE_KEEP
    asks = [keep - 49, keep - 38, 3 * keep + 17, 3 * keep + 18, 10 * keep]
    with mock.patch.object(timebase, "_EDGE_KEEP", 1 << 62):
        whole = ClockGen(T, spec, Rng(5))
        want = [whole.edge(k) for k in asks]
        assert whole._base == 0
    gen = ClockGen(T, spec, Rng(5))
    for k, t in zip(asks, want):
        assert gen.edge(k) == t, k
    assert gen._base == 9 * keep + 1
    assert ClockGen(T, spec, Rng(5)).edge(3 * keep + 17) == want[2]


def test_clockgen_first_edge_at_or_after():
    T = period_fs(1.3e9)
    gen = ClockGen(T)
    k, t = gen.first_edge_at_or_after(3 * T + 1)
    assert (k, t) == (4, 4 * T)
    k, t = gen.first_edge_at_or_after(3 * T)
    assert (k, t) == (3, 3 * T)


def test_first_edge_search_reads_only_cached_edges():
    # Once edges are dropped the search answers from the cached edges
    # alone: it raises only for a query before the first cached edge,
    # whose answer may be an evicted edge.
    T = period_fs(1.3e9)
    with mock.patch.object(timebase, "_EDGE_KEEP", 301):
        gen = ClockGen(T)
        gen.edge(400)
        assert gen._base == 100
        assert gen.first_edge_at_or_after(101 * T + 1) == (102, 102 * T)
        assert gen.first_edge_at_or_after(100 * T) == (100, 100 * T)
        assert gen.first_edges_at_or_after([101 * T + 1, 100 * T, 400 * T - 1]) == [
            102 * T, 100 * T, 400 * T]
        with pytest.raises(EvictedEdgeError):
            gen.first_edge_at_or_after(100 * T - 1)
        with pytest.raises(EvictedEdgeError):
            gen.first_edges_at_or_after([101 * T, 100 * T - 1])


@settings(max_examples=50, deadline=None)
@given(
    amp=st.floats(min_value=0.0, max_value=0.45),
    freq=st.floats(min_value=1e5, max_value=3e8),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_edges_monotone_under_excursion_bound(amp, freq, seed):
    T = period_fs(1.3e9)
    gen = ClockGen(T, jitter=JitterSpec(sin_amp_ui=amp, sin_freq_hz=freq), rng=Rng(seed))
    last = -1
    for k in range(400):
        t = gen.edge(k)
        assert t > last
        last = t


def _ref_first_edge_at_or_after(gen, t):
    # The nominal-grid search: jump close, then correct locally.
    k = max(t // gen.period - 2, 0)
    while gen.edge(k) >= t and k > 0 and gen.edge(k - 1) >= t:
        k -= 1
    while gen.edge(k) < t:
        k += 1
    return k, gen.edge(k)


# A query lands at an offset in fs (T = 769,231 fs) from some edge: on it,
# either side of it, half a period, or anywhere within about 1.3 periods.
_QUERIES = st.tuples(
    st.integers(min_value=0, max_value=6) | st.integers(min_value=0, max_value=300),
    st.sampled_from([0, 1, -1, 384_615, -384_615])
    | st.integers(min_value=-1_000_000, max_value=1_000_000),
)


@settings(max_examples=150, deadline=None)
@given(
    amp_ui=st.sampled_from([0.0, 0.2, 0.45]),
    freq_hz=st.floats(min_value=1e6, max_value=5e8),
    queries=st.lists(_QUERIES, min_size=1, max_size=40),
)
def test_first_edge_cursor_matches_reference(amp_ui, freq_hz, queries):
    # Each query lands at an offset from some edge, so a sequence mixes
    # forward steps, backward and far jumps and instants before edge 0.
    T = period_fs(1.3e9)
    gen = ClockGen(T, JitterSpec(sin_amp_ui=amp_ui, sin_freq_hz=freq_hz))
    for k, offset in queries:
        t = gen.edge(k) + offset
        assert gen.first_edge_at_or_after(t) == _ref_first_edge_at_or_after(gen, t), t


@settings(max_examples=100, deadline=None)
@given(
    amp_ui=st.sampled_from([0.0, 0.2, 0.45]),
    freq_hz=st.floats(min_value=1e6, max_value=5e8),
    blocks=st.lists(st.lists(_QUERIES, max_size=12), min_size=1, max_size=6),
)
def test_block_walk_matches_reference(amp_ui, freq_hz, blocks):
    # Blocks of queries in any order, each followed by a single query, on
    # one clock: every answer is the nominal-grid search's.
    T = period_fs(1.3e9)
    gen = ClockGen(T, JitterSpec(sin_amp_ui=amp_ui, sin_freq_hz=freq_hz))
    for block in blocks:
        ts = [gen.edge(k) + offset for k, offset in block]
        assert gen.first_edges_at_or_after(ts) == [
            _ref_first_edge_at_or_after(gen, t)[1] for t in ts]
        t = gen.edge(block[-1][0] if block else 0) + 1
        assert gen.first_edge_at_or_after(t) == _ref_first_edge_at_or_after(gen, t)


@settings(max_examples=150, deadline=None)
@given(
    period=st.sampled_from([1000, period_fs(1.3e9), period_fs(4e9)]),
    ks=st.lists(st.integers(min_value=0, max_value=6)
                | st.integers(min_value=0, max_value=300), max_size=20),
    queries=st.lists(_QUERIES, max_size=40),
)
def test_grid_clock_matches_clockgen(period, ks, queries):
    # The closed form against the generated, cached and searched edges of a
    # quiet ClockGen: edges in any order, then unsorted query blocks and
    # single queries on each, instants at or before edge 0 included.
    grid, ref = GridClock(period), ClockGen(period)
    assert [grid.edge(k) for k in ks] == [ref.edge(k) for k in ks]
    ts = [k * period + offset for k, offset in queries]
    assert grid.first_edges_at_or_after(ts) == ref.first_edges_at_or_after(ts)
    assert grid.first_edges_at_or_after([0, -1, -period]) == [0, 0, 0]
    for t in ts + [0, -1]:
        assert grid.first_edge_at_or_after(t) == ref.first_edge_at_or_after(t), t
    for clock in (grid, ref):
        with pytest.raises(EvictedEdgeError):
            clock.edge(-1)
