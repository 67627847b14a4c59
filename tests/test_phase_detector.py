import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mesosync import phase_detector
from mesosync.link import BitSource, ChannelConfig, RxWaveform
from mesosync.phase_detector import (
    PD_PIPELINE_CYCLES,
    AlexanderState,
    Sampler,
    alexander_step,
    sample_comparator,
)
from mesosync.scenario import Scenario
from mesosync.timebase import ClockGen, JitterSpec, Rng, period_fs

TW = Scenario().sampler().tw  # 10 ps


def _step_full(a, b, c):
    # Drive the stated triple through a primed detector: previous center = a,
    # boundary = b, current center = c.
    st = AlexanderState(center=a, primed=3)
    return alexander_step(st, b, c)


def test_alexander_truth_table_reference_rows():
    up, dn, _, _ = _step_full(0, 0, 1)
    assert (up, dn) == (0, 1)
    up, dn, _, _ = _step_full(0, 1, 1)
    assert (up, dn) == (1, 0)
    up, dn, _, _ = _step_full(1, 1, 1)
    assert (up, dn) == (0, 0)


def test_alexander_all_equal_is_silent():
    for v in (0, 1):
        up, dn, _, _ = _step_full(v, v, v)
        assert (up, dn) == (0, 0)


def test_alexander_exhaustive_xor():
    # Every window at every warmup count: decisions from the third sample on,
    # and the state is an AlexanderState with the count capped at 3.
    for a, b, c, primed in itertools.product((0, 1), (0, 1), (0, 1), range(4)):
        up, dn, retimed, st = alexander_step(AlexanderState(a, primed), b, c)
        if primed < 2:
            assert (up, dn) == (0, 0)
        else:
            assert up == a ^ b
            assert dn == b ^ c
        assert retimed == c
        assert st == AlexanderState(c, min(primed + 1, 3))
        assert type(st) is AlexanderState


def test_alexander_warmup_suppresses_output():
    st = AlexanderState()
    up, dn, _, st = alexander_step(st, 1, 1)
    assert (up, dn) == (0, 0)
    up, dn, _, st = alexander_step(st, 0, 1)
    assert (up, dn) == (0, 0)
    up, dn, _, st = alexander_step(st, 1, 0)
    assert st.primed == 3  # third call onward produces decisions


def test_alexander_window_shifts_in_time_order():
    # Each cycle's mid-eye sample c becomes the next cycle's oldest sample a:
    # a = 1, b = 0 flags UP; then a = 0 (the last c), b = 1, c = 0 flags both.
    st = AlexanderState(center=1, primed=3)
    up, dn, retimed, st2 = alexander_step(st, 0, 0)
    assert (up, dn, retimed) == (1, 0, 0)
    assert st2 == AlexanderState(center=0, primed=3)
    assert alexander_step(st2, 1, 0)[:3] == (1, 1, 0)


def _waveform(pattern="ones", alpha=0.0):
    T = period_fs(1.3e9)
    cfg = ChannelConfig(
        n=0, alpha=alpha, bit_period=T, transition_time=round(0.2 * T), swing=0.2
    )
    return RxWaveform(BitSource(pattern, 1), cfg, ClockGen(T)), T


def _sample(wf, t, rng, previous=0, hold=False):
    return sample_comparator(wf, t, TW, hold, rng, previous,
                             wf.nearest_transition_distance(t))


def test_sample_far_from_crossing_is_sign():
    wf, T = _waveform("ones")
    assert _sample(wf, 5 * T, Rng(1)) == 1


def test_sample_at_crossing_hold_returns_previous():
    wf, T = _waveform("alternating")
    t = wf.boundary(4)
    assert _sample(wf, t, Rng(1), previous=0, hold=True) == 0
    assert _sample(wf, t, Rng(1), previous=1, hold=True) == 1


def test_sample_at_crossing_stochastic_is_fair():
    wf, T = _waveform("alternating")
    rng = Rng(2024)
    t = wf.boundary(4)
    n = 10_000
    mean = sum(_sample(wf, t, rng) for _ in range(n)) / n
    assert abs(mean - 0.5) <= 0.02


def test_sampler_tracks_hold_state_and_metastability():
    wf, T = _waveform("alternating")
    s = Sampler(TW, hold=True)
    s.last = 1
    assert s.sample(wf, wf.boundary(3), Rng(1)) == 1
    assert s.last_was_metastable
    mid = wf.boundary(3) + T // 2
    v = s.sample(wf, mid, Rng(1))
    assert v == wf.bits.bit(3)
    assert not s.last_was_metastable


def test_sampler_validation():
    for hold in (False, True):
        with pytest.raises(ValueError):
            Sampler(-1, hold)


def test_pd_pipeline_bookkeeping():
    assert PD_PIPELINE_CYCLES == 2


@pytest.mark.parametrize("offset_ui", [0.05, 0.15, 0.3, 0.45])
def test_bang_bang_sign_flips_between_early_and_late(offset_ui):
    # Sweep the sampler strictly early then strictly late by the same
    # amount; the long-run mean of (UP - DN) over a balanced data segment
    # must flip sign between the two.
    wf, T = _waveform("prbs15")
    rng = Rng(9)

    def mean_updn(phase_ui):
        st = AlexanderState()
        total = 0
        for k in range(4, 1200):
            t_center = wf.boundary(k) + round((0.5 + phase_ui) * T)
            t_edge = t_center - T // 2
            b = _sample(wf, t_edge, rng)
            c = _sample(wf, t_center, rng)
            up, dn, _, st = alexander_step(st, b, c)
            total += up - dn
        return total

    late = mean_updn(+offset_ui)
    early = mean_updn(-offset_ui)
    assert late > 0
    assert early < 0


class DefinitionalSampler(Sampler):
    """``Sampler`` as the comparator is defined: the distance from
    ``nearest_transition_distance``, the output from ``sample_comparator``
    (looked up on the module, so a patch of it sees every call), which reads
    ``value_at``."""

    __slots__ = ()

    def sample(self, waveform, t, rng):
        distance = waveform.nearest_transition_distance(t)
        bit = phase_detector.sample_comparator(waveform, t, self.tw, self.hold,
                                               rng, self.last, distance)
        self.last_was_metastable = distance <= self.tw
        self.last = bit
        return bit


# Offsets from a bit's start, in UI of the bit's nominal period: before and
# on the boundary, on the leading ramp, mid-bit, on the trailing ramp.
_OFFSETS_UI = [-0.6, -0.05, 0.0, 0.01, 0.05, 0.099, 0.1, 0.5, 0.9, 0.95, 0.999]


@settings(max_examples=60, deadline=None)
@given(
    pattern=st.sampled_from(["prbs15", "alternating", "ones"]),
    n=st.integers(min_value=0, max_value=2),
    alpha=st.floats(min_value=0.0, max_value=0.99),
    transition_ui=st.sampled_from([0.0, 0.2, 0.5, 0.9]),
    tw_ui=st.sampled_from([0.0, 0.01, "past_ramp"]),
    hold=st.booleans(),
    jitter=st.sampled_from([JitterSpec(), JitterSpec(sin_amp_ui=0.4, sin_freq_hz=2e8),
                            JitterSpec(gauss_sigma_ui=0.03)]),
    seed=st.integers(min_value=0, max_value=2**32),
    queries=st.lists(st.tuples(st.integers(min_value=0, max_value=40),
                               st.sampled_from(_OFFSETS_UI)),
                     min_size=1, max_size=60),
    ordered=st.booleans(),
)
def test_cursor_sample_equals_definitional_sample(pattern, n, alpha, transition_ui,
                                                  tw_ui, hold, jitter, seed,
                                                  queries, ordered):
    # Sampler.sample reads the cursor; for every t it gives the output,
    # metastability flag and cursor bit of the definitional path, in time
    # order (one-bit advances) and in random order (_place).
    T = period_fs(1.3e9)
    tt = round(transition_ui * T)
    cfg = ChannelConfig(n=n, alpha=alpha, bit_period=T, transition_time=tt,
                        swing=0.2)
    tw = tt // 2 + 1 if tw_ui == "past_ramp" else round(tw_ui * T)

    def side():
        clock = ClockGen(T, jitter, Rng(seed), name="tx")
        return RxWaveform(BitSource(pattern, seed), cfg, clock), Rng(seed + 1)

    (wf, rng), (ref_wf, ref_rng) = side(), side()
    got, ref = Sampler(tw, hold), DefinitionalSampler(tw, hold)
    ts = [ref_wf.boundary(j) + round(u * T) for j, u in queries]
    if ordered:
        ts.sort()
    for t in ts:
        assert got.sample(wf, t, rng) == ref.sample(ref_wf, t, ref_rng), t
        assert got.last_was_metastable == ref.last_was_metastable, t
        assert wf.bit_index == ref_wf.bit_at(t), t
