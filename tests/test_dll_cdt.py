import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mesosync.dll_cdt import (
    IDEAL,
    CdtChain,
    Delivery,
    DllPhases,
    cdt_transfer,
    intermediate_phase,
)
from mesosync import timebase
from mesosync.scenario import Scenario
from mesosync.timebase import (
    ClockGen,
    EvictedEdgeError,
    JitterSpec,
    NonMonotonicEdgeError,
    Rng,
    make_clock,
    period_fs,
)
from test_timebase import _first_bad_edge, _ref_first_edge_at_or_after

T = period_fs(1.3e9)


def _phases(mode="ideal", jitter=None, bw=20e6, n=10):
    clk = ClockGen(T, jitter=jitter or JitterSpec(), rng=Rng(1))
    return DllPhases(clk, n_phases=n, mode=mode, loop_bw_hz=bw)


def test_phase_zero_matches_reference():
    p = _phases()
    for k in (0, 1, 17):
        assert p.edge(0, k) == k * T


def test_phase_five_is_half_period():
    p = _phases()
    assert p.edge(5, 3) == 3 * T + round(5 * T / 10)


def test_phase_index_range_checked():
    p = _phases()
    with pytest.raises(IndexError):
        p.edge(10, 0)
    with pytest.raises(IndexError):
        p.edge(-1, 0)


def test_tracking_passes_slow_jitter():
    # 1 MHz modulation through a 20 MHz first-order loop: amplitude ratio
    # is 1/sqrt(1 + (1/20)^2) = 0.99875, so >= 0.998 of the input.
    amp = 0.3
    p = _phases(
        mode="tracking",
        jitter=JitterSpec(sin_amp_ui=amp, sin_freq_hz=1e6),
        bw=20e6,
    )
    n_edges = 2600  # two full modulation periods at 1.3 GHz
    offsets = [(p.edge(0, k) - k * T) / T for k in range(n_edges)]
    peak = max(abs(o) for o in offsets)
    assert 0.998 * amp <= peak <= 1.001 * amp


def test_tracking_attenuates_fast_jitter():
    amp = 0.3
    p = _phases(
        mode="tracking",
        jitter=JitterSpec(sin_amp_ui=amp, sin_freq_hz=200e6),
        bw=20e6,
    )
    # Skip the filter's startup transient before measuring.
    offsets = [(p.edge(0, k) - k * T) / T for k in range(150, 600)]
    peak = max(abs(o) for o in offsets)
    # First-order attenuation at f/fb = 10 is ~0.0995.
    assert peak <= 0.12 * amp


def test_tracking_forget_before_drops_only_older_edges():
    jitter = JitterSpec(sin_amp_ui=0.3, sin_freq_hz=5e6)
    ref = _phases(mode="tracking", jitter=jitter)
    p = _phases(mode="tracking", jitter=jitter)
    p.edge(3, 199)
    p.ref.forget_before(120)
    with pytest.raises(EvictedEdgeError):
        p.edge(3, 119)
    assert [p.edge(3, k) for k in range(120, 400)] == [ref.edge(3, k) for k in range(120, 400)]


def test_tracking_waits_for_the_reference_edge_error():
    # The reference turns non-monotone inside the tracked clock's first
    # block: the tracked edges before it answer as one at a time, and the
    # reference's error is raised when its index is asked for.
    def make():
        rx = ClockGen(1000, JitterSpec(gauss_sigma_ui=0.3), Rng(11))
        return DllPhases(rx, 10, "tracking", 20e6).ref

    bad, edges, message = _first_bad_edge(make)
    assert 0 < bad < timebase._EDGE_BLOCK
    tracked = make()
    assert tracked.edge(bad - 1) == edges[-1]
    assert [tracked.edge(k) for k in range(bad)] == edges
    with pytest.raises(NonMonotonicEdgeError) as err:
        tracked.edge(bad)
    assert str(err.value) == message
    assert message.startswith("clk:")


def test_tracking_edges_follow_one_pole_recurrence():
    # The tracked reference, bit for bit: the receiver clock's offsets from
    # its grid through y += alpha * (x - y), before and after a drop.
    jitter = JitterSpec(sin_amp_ui=0.3, sin_freq_hz=3e6, gauss_sigma_ui=0.02)
    bw = 20e6
    p = _phases(mode="tracking", jitter=jitter, bw=bw)
    rx = ClockGen(T, jitter=jitter, rng=Rng(1))
    tsec = T / 1e15
    alpha = 1.0 - math.exp(-2.0 * math.pi * bw * tsec)
    y = 0.0
    expect = []
    for k in range(2000):
        y += alpha * ((rx.edge(k) - k * T) - y)
        expect.append(k * T + round(y))
    assert [p.edge(0, k) for k in range(1200)] == expect[:1200]
    assert expect != [k * T for k in range(2000)]
    p.ref.forget_before(1000)
    with pytest.raises(EvictedEdgeError):
        p.edge(0, 999)
    assert [p.edge(0, k) for k in range(1000, 2000)] == expect[1000:]
    assert [p.edge(7, k) for k in range(1000, 2000)] == [
        e + round(7 * T / 10) for e in expect[1000:]]


def test_intermediate_phase_formula():
    assert intermediate_phase(3, 8) == 1
    assert intermediate_phase(0, 8) == 0
    assert intermediate_phase(7, 10) == 4
    assert intermediate_phase(2, 8) == 0  # n+2 == N/2 falls in the else branch
    assert intermediate_phase(9, 10) == 6


def test_intermediate_phase_rejects_odd_n():
    with pytest.raises(ValueError):
        intermediate_phase(2, 9)
    with pytest.raises(IndexError):
        intermediate_phase(10, 10)


def test_complement_identity_arithmetic():
    # The intermediate phase differs from the inverted reference by
    # |n + 2 - N/2 - N/2| phase steps.
    for n_phases in (8, 10, 12):
        half = n_phases // 2
        for n in range(half - 1, n_phases):
            m = intermediate_phase(n, n_phases)
            off_m = round(m * T / n_phases)
            off_inv = round(half * T / n_phases)
            assert abs(off_m - off_inv) == pytest.approx(
                abs(m - half) * T / n_phases, abs=1.0
            )


def _run_chain(n_sel, d_fs, n_bits=40, n_phases=10):
    clk = ClockGen(T)
    phases = DllPhases(clk, n_phases, IDEAL, 20e6)
    chain = CdtChain(period=T, t_setup=round(0.02 * T), t_hold=0)
    offset = round(n_sel * T / n_phases) + d_fs
    events = [(k, k & 1, k * T + offset, n_sel) for k in range(2, 2 + n_bits)]
    return cdt_transfer(events, phases, clk, chain)


def test_cdt_aligned_case_three_cycles_exact():
    # Sampling clock exactly on the receiver grid: retime one cycle, then a
    # full cycle into each transfer stage.
    deliveries = _run_chain(0, 0)
    assert deliveries
    for d in deliveries:
        assert not d.violations
        assert d.t_deliver > 0
        assert d.t_deliver - d.t_center == 3 * T


def test_cdt_values_and_order_preserved():
    deliveries = _run_chain(4, 11_111)
    ids = [d.bit_id for d in deliveries]
    assert ids == sorted(ids)
    # _run_chain's DLL and chain, and its events' intermediate phase.
    phases = DllPhases(ClockGen(T), 10, IDEAL, 20e6)
    chain = CdtChain(period=T, t_setup=round(0.02 * T), t_hold=0)
    stage = intermediate_phase(4, 10)
    for d in deliveries:
        assert d.value == d.bit_id & 1
        # The retiming edge is the next event's mid-eye sample, T later; the
        # intermediate stage captures its settled output.
        tau = d.t_center + T + chain.resolve_retime
        assert d.t_deliver > _ref_first_edge_after(phases, stage, tau) > d.t_center + T


def test_cdt_exhaustive_position_sweep():
    # Every reachable sampling-clock position: selected phase n with the
    # fine delay anywhere in [0, 2 phase steps], scanned at 0.005 UI.
    # Hard bounds: no setup violations, no missed captures, latency <= 3T.
    step = round(T / 10)
    worst = 0
    for n_sel in range(10):
        for d_frac in range(0, 201, 5):  # 0.000 .. 0.200 UI in 0.005 steps
            d_fs = round(d_frac / 1000 * T)
            if d_fs > 2 * step:
                continue
            deliveries = _run_chain(n_sel, d_fs, n_bits=12)
            assert deliveries
            for d in deliveries:
                assert not d.violations, (n_sel, d_frac, d.violations)
                assert d.t_deliver > 0, (n_sel, d_frac)
                latency = d.t_deliver - d.t_center
                assert latency <= 3 * T, (n_sel, d_frac, latency / T)
                worst = max(worst, latency)
    assert worst == 3 * T  # the aligned corner attains the bound exactly


def test_cdt_stage_one_setup_violation_is_reported():
    # A sampling-clock position past the reachable fine range puts the
    # intermediate-stage edge inside the retimer's settling+setup window;
    # the capture still happens but must carry a violation record.
    deliveries = _run_chain(4, round(0.21 * T), n_bits=10)
    flagged = [d for d in deliveries if d.violations]
    assert flagged
    assert all(v == (1, "setup") for d in flagged for v in d.violations)
    assert all(d.t_deliver > 0 for d in flagged)


def test_cdt_capture_miss_is_reported():
    # A retime stream jumping by half a period mid-stream (a coarse hop)
    # must surface as a missed capture, not silent corruption.
    clk = ClockGen(T)
    phases = DllPhases(clk, 10, IDEAL, 20e6)
    chain = CdtChain(period=T, t_setup=round(0.02 * T), t_hold=0)
    times = [2 * T + k * T for k in range(10)]
    times = times[:5] + [t - round(0.6 * T) for t in times[5:]]
    events = [(k, 1, t, 0) for k, t in enumerate(times)]
    deliveries = cdt_transfer(events, phases, clk, chain)
    assert any(d.violations or d.t_deliver <= 0 for d in deliveries)


# For each (stage, kind): t_setup and t_hold in UI, the selected phase of
# each of six events, the first event's offset from the grid in UI, and a
# step in UI between the third and fourth events, on 8 DLL phases.  Each
# input gives that code and no other.
_CODE_INPUTS = {
    (1, "setup"): (0.1, 0.0, [0] * 6, 0.55, 0.0),
    (1, "hold"): (0.0, 0.1, [3] * 6, 0.65, 0.0),
    (1, "missed"): (0.0, 0.0, [0] * 6, 0.0, -0.6),
    (2, "setup"): (0.2, 0.0, [7] * 6, 0.0, 0.0),
    (2, "hold"): (0.0, 0.1, [0] * 6, 0.0, 0.0),
    # A coarse step 0 -> 3 moves the stage-1 phase from 0 to 1.
    (2, "missed"): (0.0, 0.0, [0, 0, 0, 3, 3, 3], 0.0, -0.4),
}


@pytest.mark.parametrize("code", _CODE_INPUTS, ids=lambda c: f"{c[0]}-{c[1]}")
def test_cdt_every_code_fires(code):
    setup_ui, hold_ui, sels, start_ui, step_ui = _CODE_INPUTS[code]
    clk = ClockGen(T)
    phases = DllPhases(clk, 8, IDEAL, 20e6)
    chain = CdtChain(period=T, t_setup=round(setup_ui * T), t_hold=round(hold_ui * T))
    t = 2 * T + round(start_ui * T)
    events = []
    for k, sel in enumerate(sels):
        events.append((k, k & 1, t, sel))
        t += T + (round(step_ui * T) if k == 2 else 0)
    deliveries = cdt_transfer(events, phases, clk, chain)
    assert {v for d in deliveries for v in d.violations} == {code}
    # A miss loses its bit; a setup or hold violation still delivers it.
    for d in deliveries:
        assert (d.t_deliver == -1) == (d.violations == (code,) and code[1] == "missed")


def _ref_first_edge_after(phases, i, t):
    # The nominal-grid search: jump close, then walk forward.
    off = phases.phase_offset(i)
    k = max(int((t - off) // phases.period) - 2, 0)
    while phases.edge(i, k) <= t:
        k += 1
    return phases.edge(i, k)


# A (phase, k, offset) query: offsets in fs from edge k of phase 0, on it,
# either side of it, half a period, or anywhere within about 1.3 periods.
_QUERIES = st.tuples(
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=0, max_value=6) | st.integers(min_value=0, max_value=300),
    st.sampled_from([0, 1, -1, T // 2, -(T // 2)])
    | st.integers(min_value=-1_000_000, max_value=1_000_000),
)


@settings(max_examples=100, deadline=None)
@given(
    mode=st.sampled_from(["ideal", "tracking"]),
    amp_ui=st.sampled_from([0.0, 0.3, 0.45]),
    freq_hz=st.floats(min_value=1e6, max_value=5e8),
    queries=st.lists(_QUERIES, min_size=1, max_size=40),
)
def test_first_edge_after_cursor_matches_reference(mode, amp_ui, freq_hz, queries):
    # Mixed forward steps, backward and far jumps, over all phases, on a
    # quiet or sinusoidally jittered reference, ideal or tracking.
    p = _phases(mode=mode, jitter=JitterSpec(sin_amp_ui=amp_ui, sin_freq_hz=freq_hz))
    for i, k, offset in queries:
        t = p.edge(0, k) + offset
        assert p.first_edge_after(i, t) == _ref_first_edge_after(p, i, t), (i, t)


@settings(max_examples=100, deadline=None)
@given(
    mode=st.sampled_from(["ideal", "tracking"]),
    amp_ui=st.sampled_from([0.0, 0.3, 0.45]),
    freq_hz=st.floats(min_value=1e6, max_value=5e8),
    blocks=st.lists(st.lists(_QUERIES, max_size=12), min_size=1, max_size=6),
)
def test_first_edges_after_block_walk_matches_reference(mode, amp_ui, freq_hz, blocks):
    # Blocks of (phase, instant) queries in any order, each followed by a
    # single query on the shared cursor: every answer is the nominal-grid
    # search's, on a quiet or jittered reference, ideal or tracking.
    p = _phases(mode=mode, jitter=JitterSpec(sin_amp_ui=amp_ui, sin_freq_hz=freq_hz))
    for block in blocks:
        idx = [i for i, _, _ in block]
        ts = [p.edge(0, k) + offset for _, k, offset in block]
        assert p.first_edges_after(idx, ts) == [
            _ref_first_edge_after(p, i, t) for i, t in zip(idx, ts)]
        t = p.edge(0, block[-1][1] if block else 0)
        assert p.first_edge_after(9, t) == _ref_first_edge_after(p, 9, t)


def _ref_capture(stage, u, transition, next_transition, chain):
    viol = []
    if next_transition is not None and u > next_transition:
        return None, [(stage, "missed")]
    for tr in (transition, next_transition):
        if tr is None:
            continue
        if u - chain.t_setup < tr < u:
            viol.append((stage, "setup"))
        elif u <= tr < u + chain.t_hold:
            viol.append((stage, "hold"))
    return u, viol


def _ref_cdt_transfer(events, phases, rx_clock, chain):
    # Two passes over parallel per-event lists, with nominal-grid searches:
    # every intermediate-stage capture first, then every receiver capture.
    # Each event is re-timed at the next one's mid-eye sample.
    retime_edges = [ev[2] for ev in events[1:]]
    events = events[:-1]
    out = []
    n_ev = len(events)
    taus = [r + chain.resolve_retime for r in retime_edges]
    sigmas = [None] * n_ev
    viol1s = [[] for _ in range(n_ev)]
    for j in range(n_ev):
        bit_id, value, t_center, n_sel = events[j]
        m = intermediate_phase(n_sel, phases.n)
        nxt = taus[j + 1] if j + 1 < n_ev else None
        u1, viol1 = _ref_capture(
            1, _ref_first_edge_after(phases, m, taus[j]), taus[j], nxt, chain
        )
        viol1s[j] = viol1
        if u1 is not None:
            sigmas[j] = u1 + chain.resolve_stage
        else:
            out.append(Delivery(bit_id, value, t_center, -1, tuple(viol1)))
    for j in range(n_ev):
        if sigmas[j] is None:
            continue
        bit_id, value, t_center, _ = events[j]
        nxt = sigmas[j + 1] if j + 1 < n_ev else None
        _, rx_edge = _ref_first_edge_at_or_after(rx_clock, sigmas[j] + 1)
        u2, viol2 = _ref_capture(2, rx_edge, sigmas[j], nxt, chain)
        viols = tuple(viol1s[j] + viol2)
        if u2 is None:
            out.append(Delivery(bit_id, value, t_center, -1, viols))
        else:
            out.append(Delivery(bit_id, value, t_center, u2, viols))
    out.sort(key=lambda d: (d.t_center, d.bit_id))
    return out


# Per-event step beyond one period, in fs: none, fine drift, a setup-window
# position (test_cdt_stage_one_setup_violation_is_reported) or a coarse hop
# back by 0.6 T (test_cdt_capture_miss_is_reported), or anywhere in between.
_STEPS = (
    st.sampled_from([0, 0, 0, 1_000, -1_000, round(0.21 * T), -round(0.6 * T)])
    | st.integers(min_value=-round(0.6 * T), max_value=round(0.6 * T))
)


@settings(max_examples=100, deadline=None)
@given(
    mode=st.sampled_from(["ideal", "tracking"]),
    amp_ui=st.sampled_from([0.0, 0.3]),
    freq_hz=st.floats(min_value=1e6, max_value=3e8),
    n_phases=st.sampled_from([8, 10]),
    t_setup_ui=st.sampled_from([0.0, 0.02, 0.15]),
    t_hold_ui=st.sampled_from([0.0, 0.05, 0.9]),
    start=st.integers(min_value=0, max_value=T - 1),
    stream=st.lists(
        st.tuples(st.integers(min_value=0, max_value=7),
                  st.integers(min_value=0, max_value=1),
                  _STEPS),
        max_size=40,
    ),
)
# The guard's edges, on a quiet clock with all events at phase 0, whose
# intermediate phase is 0: event 0 is captured at u = 4 T.  Its closing
# transition lands exactly on u with no setup time (a hold violation) ...
@example(mode="ideal", amp_ui=0.0, freq_hz=1e6, n_phases=10, t_setup_ui=0.0,
         t_hold_ui=0.05, start=0,
         stream=[(0, 1, 0), (0, 0, -(T // 2)), (0, 1, 0), (0, 0, 0)])
# ... its opening transition exactly t_setup before u (no violation) ...
@example(mode="ideal", amp_ui=0.0, freq_hz=1e6, n_phases=10, t_setup_ui=0.02,
         t_hold_ui=0.0, start=0,
         stream=[(0, 1, T - T // 2), (0, 0, 0), (0, 1, 0)])
# ... or its closing transition exactly on u (not a miss).
@example(mode="ideal", amp_ui=0.0, freq_hz=1e6, n_phases=10, t_setup_ui=0.02,
         t_hold_ui=0.0, start=0,
         stream=[(0, 1, 0), (0, 0, round(0.02 * T) - T // 2), (0, 1, 0)])
def test_cdt_one_pass_matches_two_pass(
    mode, amp_ui, freq_hz, n_phases, t_setup_ui, t_hold_ui, start, stream
):
    # A quiet clock is a GridClock, a jittered one a ClockGen.
    clk = make_clock(T, JitterSpec(sin_amp_ui=amp_ui, sin_freq_hz=freq_hz))
    phases = DllPhases(clk, n_phases, mode, 20e6)
    chain = CdtChain(period=T, t_setup=round(t_setup_ui * T),
                     t_hold=round(t_hold_ui * T))
    events = []
    t = 2 * T + start
    for bit_id, (n_sel, value, step) in enumerate(stream):
        events.append((bit_id, value, t, n_sel))
        t += T + step
    args = (events, phases, clk, chain)
    out = cdt_transfer(*args)
    assert out == _ref_cdt_transfer(*args)
    assert all(type(d) is Delivery for d in out)


@settings(max_examples=100, deadline=None)
@given(
    amp_ui=st.sampled_from([0.0, 0.3]),
    freq_hz=st.floats(min_value=1e6, max_value=3e8),
    t_setup_ui=st.sampled_from([0.0, 0.02, 0.15]),
    t_hold_ui=st.sampled_from([0.0, 0.05, 0.9]),
    block=st.integers(min_value=1, max_value=7),
    stream=st.lists(
        st.tuples(st.integers(min_value=0, max_value=9),
                  st.integers(min_value=0, max_value=1),
                  _STEPS),
        max_size=40,
    ),
)
def test_cdt_blocks_with_lookahead_match_one_pass(
    amp_ui, freq_hz, t_setup_ui, t_hold_ui, block, stream
):
    # Blocks of `block` deliveries that carry the next two events as
    # look-ahead, then the tail with none, deliver what one call does.
    clk = make_clock(T, JitterSpec(sin_amp_ui=amp_ui, sin_freq_hz=freq_hz))
    phases = Scenario().dll_phases(clk)
    chain = CdtChain(period=T, t_setup=round(t_setup_ui * T),
                     t_hold=round(t_hold_ui * T))
    events = []
    t = 2 * T
    for bit_id, (n_sel, value, step) in enumerate(stream):
        events.append((bit_id, value, t, n_sel))
        t += T + step

    def transfer(evs, lookahead=0):
        return cdt_transfer(evs, phases, clk, chain, lookahead=lookahead)

    blocked, pending = [], []
    for ev in events:
        pending.append(ev)
        if len(pending) == block + 3:
            out = transfer(pending, lookahead=2)
            assert len(out) == block
            blocked += out
            del pending[:block]
    blocked += transfer(pending)
    assert blocked == transfer(events)
