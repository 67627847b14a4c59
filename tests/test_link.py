import hashlib
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mesosync.link import (
    BitSource,
    ChannelConfig,
    PRBS15_MASK,
    PRBS15_PERIOD,
    RxWaveform,
)
from mesosync.oracle import eye_center_phase, wrap_ui
from mesosync.timebase import ClockGen, JitterSpec, derive_seed, make_clock, period_fs


# sha256 of bits 0-69,999 (one byte per bit) of the PRBS-15 source, recorded
# from the frozen-dataclass LFSR that the integer register replaced.  Seed
# 0x7FFE maps onto the all-ones register; derive_seed(1, 3) is the data seed
# of a run with seed 1.
PRBS15_SHA256 = {
    1: "a36fe3928ff689cf5c455dce1bb9de55c9358fddc30cf57297cb8431301cbec8",
    0x7FFE: "b3169473dc41d70e3bb363d93ea3ce57a11f3d61caaa87fcf586d1d7ecae0ce7",
    derive_seed(1, 3):
        "e6b0d714c71b1e42e1a0ea0f1004ca7bc9e29fc054dea52a8030cadeb9c05570",
}


def _prbs(seed, n):
    bits = BitSource("prbs15", seed)
    return bytes(bits.bit(i) for i in range(n))


@pytest.mark.parametrize("seed", sorted(PRBS15_SHA256))
def test_prbs15_conformance_vectors(seed):
    data = _prbs(seed, 70000)
    assert hashlib.sha256(data).hexdigest() == PRBS15_SHA256[seed]


def _one_step_prbs15(seed, count):
    """The stored bits and register of ``BitSource("prbs15", seed)`` after
    ``count`` more outputs, from the LFSR taken one step at a time."""
    reg = (seed % PRBS15_MASK) + 1
    out = bytearray()
    for _ in range(31 + count):
        out.append(reg >> 14)
        reg = ((reg << 1) | (((reg >> 14) ^ (reg >> 13)) & 1)) & PRBS15_MASK
    return bytes(out[31:]), reg


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, derive_seed(1, 3)])
def test_prbs15_group_steps_match_single_steps(seed):
    # Groups of 13 register steps plus single steps for the remainder give
    # the bits and register of one step at a time, for every remainder, a
    # whole extension chunk and the chunk before it.
    for count in [*range(1, 41), 64, 65]:
        bits = BitSource("prbs15", seed)
        bits._extend(count)
        assert (bytes(bits._bits), bits._reg) == _one_step_prbs15(seed, count)
    # One full period, read a bit at a time as the waveform does, then a
    # wrap into the next.
    bits = BitSource("prbs15", seed)
    for i in range(PRBS15_PERIOD):
        bits.bit(i)
    period, reg = _one_step_prbs15(seed, PRBS15_PERIOD)
    assert (bytes(bits._bits), bits._reg) == (period, reg)
    assert [bits.bit(PRBS15_PERIOD + i) for i in range(100)] == list(period[:100])
    assert (bytes(bits._bits), bits._reg) == (period, reg)


def test_prbs15_full_cycle_returns_to_seed():
    # After one period the register is back where it started, so the
    # stream repeats with period 2^15 - 1, from any seed.
    for seed in (1, derive_seed(1, 3)):
        bits = BitSource("prbs15", seed)
        start = bits._reg
        bits.bit(PRBS15_PERIOD - 1)
        assert bits._reg == start
        assert all(bits.bit(i) == bits.bit(i + PRBS15_PERIOD)
                   for i in range(PRBS15_PERIOD))


def test_prbs15_stores_one_period():
    # Past one period the source answers from the stored period, so a long
    # run keeps 32,767 bytes of bits, however far it reads.
    # test_prbs15_conformance_vectors checks the bits across two wraps.
    bits = BitSource("prbs15", derive_seed(1, 3))
    bits.bit(200_000)
    assert len(bits._bits) <= PRBS15_PERIOD
    for i in range(PRBS15_PERIOD - 100, PRBS15_PERIOD + 100):
        assert bits.bit(i) == bits.bit(i + PRBS15_PERIOD)
    assert len(bits._bits) <= PRBS15_PERIOD


def test_prbs15_never_reaches_zero():
    # The register holds the next 15 output bits, MSB first, so the
    # windows of 15 consecutive bits over one period are its states: all
    # 2^15 - 1 nonzero values, each once.
    data = _prbs(1, PRBS15_PERIOD + 14)
    states = {int("".join(map(str, data[i:i + 15])), 2)
              for i in range(PRBS15_PERIOD)}
    assert 0 not in states
    assert len(states) == PRBS15_PERIOD


def test_prbs15_balance_over_one_period():
    ones = sum(_prbs(1, PRBS15_PERIOD))
    assert ones == 16384
    assert PRBS15_PERIOD - ones == 16383


def test_prbs15_seeds_never_map_to_zero_state():
    # Every seed maps onto a nonzero register (seed mod 0x7FFF, plus one),
    # so no seed gives the stuck all-zero stream.
    for seed in (0, PRBS15_MASK - 1, PRBS15_MASK, 2**64 - 1):
        assert 0 < sum(_prbs(seed, 64)) < 64


def test_bit_source_patterns():
    alt = BitSource("alternating", 1)
    assert [alt.bit(i) for i in range(6)] == [0, 1, 0, 1, 0, 1]
    assert BitSource("ones", 1).bit(100) == 1
    assert BitSource("zeros", 1).bit(100) == 0
    # Past a PRBS period too: each fixed pattern repeats its own period.
    far = range(PRBS15_PERIOD - 2, PRBS15_PERIOD + 3)
    assert [alt.bit(i) for i in far] == [i & 1 for i in far]
    assert {BitSource("ones", 1).bit(i) for i in far} == {1}
    assert {BitSource("zeros", 1).bit(i) for i in far} == {0}
    with pytest.raises(ValueError):
        BitSource("noise", 1)
    # Negative indices are refused, also once bits are stored.
    prbs = BitSource("prbs15", 1)
    prbs.bit(10)
    with pytest.raises(IndexError):
        prbs.bit(-1)


def _waveform(n=0, alpha=0.0, pattern="prbs15", rate=2.5e9, tt_ui=0.2, swing=0.2):
    T = period_fs(rate)
    cfg = ChannelConfig(
        n=n, alpha=alpha, bit_period=T, transition_time=round(tt_ui * T), swing=swing
    )
    return RxWaveform(BitSource(pattern, 1), cfg, ClockGen(T)), T


def test_constant_ones_level():
    wf, T = _waveform(pattern="ones")
    for t in (0, T // 2, 10 * T, 10 * T + 123):
        assert wf.value_at(t) == pytest.approx(0.1)


def test_alternating_zero_at_delayed_boundary():
    wf, T = _waveform(n=1, alpha=0.25, pattern="alternating")
    # Every boundary k>=1 carries a transition; the ramp crosses 0 exactly there.
    for k in (1, 2, 5, 9):
        assert wf.value_at(wf.boundary(k)) == pytest.approx(0.0)


def test_channel_delay_arithmetic():
    # n=2, alpha=0.3 at 2.5 Gb/s: boundary of bit k at k*400ps + 920ps.
    wf, T = _waveform(n=2, alpha=0.3)
    assert T == 400_000
    for k in (0, 1, 7):
        assert wf.boundary(k) == k * 400_000 + 920_000


def test_channel_config_validation():
    with pytest.raises(ValueError):
        ChannelConfig(n=-1, alpha=0.0, bit_period=1000, transition_time=10, swing=0.2)
    with pytest.raises(ValueError):
        ChannelConfig(n=0, alpha=1.0, bit_period=1000, transition_time=10, swing=0.2)
    with pytest.raises(ValueError):
        ChannelConfig(n=0, alpha=0.0, bit_period=1000, transition_time=1000, swing=0.2)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=3),
    alpha=st.floats(min_value=0.0, max_value=0.99),
    t_ui=st.floats(min_value=0.0, max_value=40.0),
)
def test_delay_invariance_whole_period_shift(n, alpha, t_ui):
    wf_a, T = _waveform(n=n, alpha=alpha)
    wf_b, _ = _waveform(n=n + 1, alpha=alpha)
    t = round(t_ui * T) + wf_a.boundary(0)
    assert wf_a.value_at(t) == wf_b.value_at(t + T)


def test_waveform_levels_and_ramp_midpoints():
    wf, T = _waveform(n=0, alpha=0.0)
    # Mid-bit samples match the data; samples a quarter ramp into a
    # transition sit halfway to the rail.
    bits = wf.bits
    for k in range(2, 40):
        assert (wf.value_at(wf.boundary(k) + T // 2) > 0) == bool(bits.bit(k))
        if bits.bit(k) != bits.bit(k + 1):
            quarter = wf.cfg.transition_time // 4
            v = wf.value_at(wf.boundary(k + 1) - quarter)
            assert v == pytest.approx(
                (-0.05 if bits.bit(k + 1) else 0.05), abs=1e-9
            )


def test_nearest_transition_distance():
    wf, T = _waveform(n=0, alpha=0.0, pattern="alternating")
    b5 = wf.boundary(5)
    assert wf.nearest_transition_distance(b5) == 0
    assert wf.nearest_transition_distance(b5 + 1000) == 1000
    wf1, _ = _waveform(pattern="ones")
    assert wf1.nearest_transition_distance(5 * T) > 10**15


# Reference queries written without a cursor: every call searches again from
# the nominal grid and scans the four boundaries around the bit.


def _ref_bit_at(wf, t):
    k = max(0, int((t - wf.cfg.delay_fs) // wf.cfg.bit_period - 2))
    while wf.boundary(k + 1) <= t:
        k += 1
    while k > 0 and wf.boundary(k) > t:
        k -= 1
    return k


def _ref_distance(wf, t):
    k = _ref_bit_at(wf, max(t, wf.boundary(0)))
    best = None
    for j in range(max(1, k - 1), k + 3):
        if wf.bits.bit(j) != wf.bits.bit(j - 1):
            d = abs(t - wf.boundary(j))
            if best is None or d < best:
                best = d
    return best if best is not None else 1 << 62


def _ref_value_at(wf, t):
    cfg = wf.cfg

    def level(bit):
        return cfg.swing / 2.0 if bit else -cfg.swing / 2.0

    def ramp(frm, to, dt):
        lo, hi = level(frm), level(to)
        return lo + (hi - lo) * (dt / cfg.transition_time + 0.5)

    bit = wf.bits.bit
    if t < wf.boundary(0):
        return level(bit(0))
    k = _ref_bit_at(wf, t)
    half = cfg.transition_time // 2
    t0 = wf.boundary(k)
    if k > 0 and t - t0 < half and bit(k - 1) != bit(k):
        return ramp(bit(k - 1), bit(k), t - t0)
    t1 = wf.boundary(k + 1)
    if t1 - t <= half and bit(k + 1) != bit(k):
        return ramp(bit(k), bit(k + 1), t - t1)
    return level(bit(k))


_REFERENCE = {
    "bit_at": _ref_bit_at,
    "value_at": _ref_value_at,
    "nearest_transition_distance": _ref_distance,
}


@settings(max_examples=150, deadline=None)
@given(
    pattern=st.sampled_from(["prbs15", "alternating"]),
    n=st.integers(min_value=0, max_value=3),
    alpha=st.floats(min_value=0.0, max_value=0.99),
    amp_ui=st.sampled_from([0.0, 0.2, 0.45]),
    freq_hz=st.floats(min_value=1e6, max_value=5e8),
    queries=st.lists(
        st.tuples(
            st.sampled_from(sorted(_REFERENCE)),
            st.integers(min_value=0, max_value=6)
            | st.integers(min_value=0, max_value=300),
            # Offsets in fs (T = 400 ps): exact boundaries, ramp edges
            # (half a transition is 40 ps), mid-bit ties, or anywhere.
            st.sampled_from([0, 1, -1, 40_000, -40_000, 39_999, -39_999,
                             200_000, -200_000, -400_000])
            | st.integers(min_value=-600_000, max_value=600_000),
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_cursor_queries_match_reference(pattern, n, alpha, amp_ui, freq_hz, queries):
    # Each query lands at an offset from some bit boundary, so a sequence
    # mixes forward steps, backward and far jumps, exact boundary instants
    # and instants before bit 0 arrives.
    T = period_fs(2.5e9)
    cfg = ChannelConfig(n=n, alpha=alpha, bit_period=T,
                        transition_time=round(0.2 * T), swing=0.2)
    tx = make_clock(T, JitterSpec(sin_amp_ui=amp_ui, sin_freq_hz=freq_hz))
    wf = RxWaveform(BitSource(pattern, 1), cfg, tx)
    for method, k, offset in queries:
        t = wf.boundary(k) + offset
        assert getattr(wf, method)(t) == _REFERENCE[method](wf, t), (method, t)


@settings(max_examples=80, deadline=None)
@given(
    pattern=st.sampled_from(["prbs15", "alternating"]),
    seed=st.integers(min_value=0, max_value=2**32),
    n=st.integers(min_value=0, max_value=3),
    alpha=st.floats(min_value=0.0, max_value=0.99),
    amp_ui=st.sampled_from([0.0, 0.2, 0.45]),
    freq_hz=st.floats(min_value=1e6, max_value=5e8),
    first=st.integers(min_value=0, max_value=3)
    | st.integers(min_value=0, max_value=300),
    # Where each bit is queried, as fractions of its width: its start, the
    # ramp edges, mid-bit and its last instant, or anywhere.
    fracs=st.lists(
        st.lists(
            st.sampled_from([0.0, 0.1, 0.5, 0.9, 0.999999])
            | st.floats(min_value=0.0, max_value=0.999999),
            min_size=1, max_size=3,
        ),
        min_size=1, max_size=8,
    ),
    n_bits=st.integers(min_value=20, max_value=120),
)
def test_cursor_steps_match_reference(pattern, seed, n, alpha, amp_ui, freq_hz,
                                      first, fracs, n_bits):
    # Each query after the first moves one bit forward, which shifts the
    # cursor's window, then a few more queries stay in that bit; PRBS data
    # brings runs of equal bits, where the transitions lie two boundaries
    # away, and alternating data a transition at every boundary.
    T = period_fs(2.5e9)
    cfg = ChannelConfig(n=n, alpha=alpha, bit_period=T,
                        transition_time=round(0.2 * T), swing=0.2)
    tx = make_clock(T, JitterSpec(sin_amp_ui=amp_ui, sin_freq_hz=freq_hz))
    wf = RxWaveform(BitSource(pattern, seed), cfg, tx)
    for i in range(n_bits):
        k = first + i
        lo, hi = wf.boundary(k), wf.boundary(k + 1)
        for frac in fracs[i % len(fracs)]:
            t = lo + min(int(frac * (hi - lo)), hi - lo - 1)
            for method, ref in _REFERENCE.items():
                assert getattr(wf, method)(t) == ref(wf, t), (method, k, t)


@pytest.mark.parametrize("tt_ui", [0.0, 0.2, 0.5, 0.9])
@pytest.mark.parametrize("amp_ui", [0.0, 0.45])
def test_plateau_is_level(tt_ui, amp_ui):
    # value_at gives the plateau's level at every sampled instant of it:
    # both ends, mid-plateau and a stride through it.  A bit between two
    # equal neighbours is level over its whole interval.
    T = period_fs(2.5e9)
    cfg = ChannelConfig(n=1, alpha=0.3, bit_period=T,
                        transition_time=round(tt_ui * T), swing=0.2)
    tx = make_clock(T, JitterSpec(sin_amp_ui=amp_ui, sin_freq_hz=3e8))
    wf = RxWaveform(BitSource("prbs15", 1), cfg, tx)
    for k in range(150):
        start, end, level = wf.plateau(k)
        lo, hi = wf.boundary(k), wf.boundary(k + 1)
        assert lo <= start and end <= hi
        assert level == (0.1 if wf.bits.bit(k) else -0.1)
        if k and wf.bits.bit(k - 1) == wf.bits.bit(k) == wf.bits.bit(k + 1):
            assert (start, end) == (lo, hi)
        ts = range(start, end, 1499)
        for t in [start, end - 1, (start + end) // 2, *ts]:
            if start <= t < end:
                assert wf.value_at(t) == level == _ref_value_at(wf, t), (k, t)


@pytest.mark.parametrize("alpha", [0.0, 0.13, 0.25, 0.5, 0.77])
def test_eye_center_identity(alpha):
    # Exhaustive 0.01 UI BER sweep: the zero-error plateau is centered at
    # (alpha + 0.5) mod 1 on the receiver grid.
    bits = BitSource("prbs15", 1)
    center = eye_center_phase(bits, n=0, alpha=alpha, transition_ui=0.2)
    assert abs(wrap_ui(center - ((alpha + 0.5) % 1.0))) <= 0.011


def test_eye_center_beyond_sampled_bits():
    # A whole-period delay longer than the sampled bit run still finds the
    # eye: the sweep starts at the slot where bit 1 arrives.
    bits = BitSource("prbs15", 1)
    center = eye_center_phase(bits, n=2500, alpha=0.3, transition_ui=0.2)
    assert abs(wrap_ui(center - 0.8)) <= 0.011


def test_eye_center_ideal_edges_warn_nothing():
    # With zero transition time no sample lands on a ramp, so the sweep
    # must not evaluate the ramp formulas (they would divide by zero);
    # every phase is error-free, and the centre is the mid-bit phase.
    bits = BitSource("prbs15", 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        center = eye_center_phase(bits, n=0, alpha=0.3, transition_ui=0.0)
    assert center == 0.8
