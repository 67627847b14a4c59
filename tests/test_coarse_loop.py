from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mesosync.coarse_loop import (
    ABOVE,
    BELOW,
    DOWN,
    STRONG_PULSE,
    UP,
    WITHIN,
    RingCounter,
    WindowComparator,
    fsm_step,
    ring_step,
    window_classify,
)
from mesosync.harness import Simulation
from mesosync.scenario import defaults_130nm
from mesosync.timebase import FS_PER_NS

W = WindowComparator(v_low=0.3, v_high=0.9, trip_delay=6 * FS_PER_NS)


def test_classify_within():
    assert window_classify(0.6, W) == WITHIN


def test_classify_below():
    assert window_classify(0.29, W) == BELOW


def test_classify_above_and_threshold_equality():
    assert window_classify(0.91, W) == ABOVE
    # Sitting exactly on a threshold still counts as inside.
    assert window_classify(0.9, W) == WITHIN
    assert window_classify(0.3, W) == WITHIN


def test_comparator_validation():
    with pytest.raises(ValueError):
        WindowComparator(v_low=0.9, v_high=0.3, trip_delay=0)


def test_ring_step_basic():
    r = RingCounter(10, 1 << 0)
    assert ring_step(r, UP).hot_index == 1
    assert ring_step(RingCounter(10, 1 << 9), UP).hot_index == 0
    assert ring_step(r, DOWN).hot_index == 9


def test_ring_full_cycle_both_directions():
    # Brute-force: N up-steps and N down-steps each return to the start.
    r = RingCounter(10, 1 << 4)
    s = r
    seen = []
    for _ in range(10):
        s = ring_step(s, UP)
        seen.append(s.hot_index)
    assert s == r
    assert sorted(seen) == list(range(10))
    s = r
    for _ in range(10):
        s = ring_step(s, DOWN)
    assert s == r


def test_ring_rejects_non_one_hot():
    with pytest.raises(ValueError):
        RingCounter(10, 0)
    with pytest.raises(ValueError):
        RingCounter(10, 0b11)
    with pytest.raises(ValueError):
        RingCounter(10, 1 << 10)
    with pytest.raises(ValueError):
        ring_step(RingCounter(10, 1), "sideways")


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=16),
    start=st.integers(min_value=0),
    steps=st.lists(st.sampled_from([UP, DOWN]), max_size=60),
)
def test_ring_one_hot_invariant(n, start, steps):
    r = RingCounter(n, 1 << (start % n))
    idx = start % n
    for d in steps:
        r = ring_step(r, d)
        idx = (idx + (1 if d == UP else -1)) % n
        assert r.q == 1 << idx
        assert bin(r.q).count("1") == 1


def test_fsm_within_holds_state():
    direction = fsm_step(WITHIN)
    assert direction is None
    assert STRONG_PULSE[direction] == (0, 0)


def test_fsm_above_steps_to_next_later_phase_with_strong_down():
    # Control voltage over the top of the window: the fine delay is
    # exhausted long, so the coarse loop advances to the next-later phase
    # while the strong pump discharges for one divided cycle.
    direction = fsm_step(ABOVE)
    assert direction == UP
    assert STRONG_PULSE[direction] == (0, 1)
    r = ring_step(RingCounter(10, 1 << 3), direction)
    assert r.hot_index == 4


def test_fsm_below_steps_to_next_earlier_phase_with_strong_up():
    direction = fsm_step(BELOW)
    assert direction == DOWN
    assert STRONG_PULSE[direction] == (1, 0)


def test_fsm_async_path_arms_without_stepping():
    # A publication between divided edges sets the FSM's enable and up_dn
    # outputs (derived from the published region) but steps no ring and
    # fires no strong pulse.
    sim = Simulation(defaults_130nm(), keep_traces=True)
    sim.now = 1_000
    sim._on_publish(ABOVE)
    assert sim.totals.counter_trace == [(1_000, 0, 1, 1, 0, 0)]
    assert sim.totals.counter_path == [0]
    assert (sim.s_up, sim.s_dn) == (0, 0)


def test_restore_window_center():
    # A snapshot restore presets the counter; Vc starts at the window midpoint.
    sim = Simulation(replace(defaults_130nm(), snapshot_hot=7))
    assert sim.ring.hot_index == 7
    assert sim.vc == pytest.approx(0.6)
