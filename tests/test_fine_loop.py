import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mesosync.fine_loop import (
    VcdlCurve,
    pump_current,
    pump_integrate,
    vcdl_delay,
)
from mesosync.scenario import Scenario, ScenarioError
from mesosync.timebase import FS_PER_NS, period_fs

CFG = Scenario().pump_config()  # 1 uA, x16, 200 fF, 1.2 V
CORNERS = ("FF", "TT", "SS", "FNSP", "SNFP")


def test_weak_up_slope_5mv_per_ns():
    v, _ = pump_integrate(0.5, pump_current(CFG, 1, 0, 0, 0), FS_PER_NS, CFG)
    assert v == pytest.approx(0.505, abs=1e-12)


def test_balanced_pump_is_zero():
    v, _ = pump_integrate(0.5, pump_current(CFG, 1, 1, 0, 0), FS_PER_NS, CFG)
    assert v == pytest.approx(0.5)


def test_strong_down_gates_weak():
    # Weak up is gated off while the strong sink discharges at 16x.
    v, _ = pump_integrate(0.5, pump_current(CFG, 1, 0, 0, 1), FS_PER_NS, CFG)
    assert v == pytest.approx(0.5 - 0.080, abs=1e-12)


def test_simultaneous_strong_rejected():
    with pytest.raises(ValueError):
        pump_current(CFG, 0, 0, 1, 1)


def test_negative_dt_rejected():
    with pytest.raises(ValueError):
        pump_integrate(0.5, 0.0, -1, CFG)


def test_clamps_to_rails():
    up_strong = pump_current(CFG, 0, 0, 1, 0)
    dn_strong = pump_current(CFG, 0, 0, 0, 1)
    assert pump_integrate(1.19, up_strong, 1000 * FS_PER_NS, CFG) == (CFG.v_dd, True)
    assert pump_integrate(0.01, dn_strong, 1000 * FS_PER_NS, CFG) == (0.0, True)
    _, clamped = pump_integrate(0.6, pump_current(CFG, 1, 0, 0, 0), FS_PER_NS, CFG)
    assert not clamped


@settings(max_examples=100, deadline=None)
@given(
    v0=st.floats(min_value=0.2, max_value=1.0),
    up=st.booleans(),
    dn=st.booleans(),
    dt1=st.integers(min_value=0, max_value=3_000_000),
    dt2=st.integers(min_value=0, max_value=3_000_000),
)
def test_integration_additivity(v0, up, dn, dt1, dt2):
    # Splitting an interval changes nothing while Vc stays off the rails.
    i = pump_current(CFG, up, dn, 0, 0)
    one, _ = pump_integrate(v0, i, dt1 + dt2, CFG)
    half, _ = pump_integrate(v0, i, dt1, CFG)
    two, _ = pump_integrate(half, i, dt2, CFG)
    if 0.0 < one < CFG.v_dd:
        assert two == pytest.approx(one, abs=1e-15)


@settings(max_examples=50, deadline=None)
@given(
    cmds=st.lists(
        st.tuples(
            st.integers(0, 1),
            st.integers(0, 1),
            st.sampled_from([(0, 0), (1, 0), (0, 1)]),
            st.integers(min_value=0, max_value=20_000_000),
        ),
        max_size=30,
    )
)
def test_clamp_safety_any_command_sequence(cmds):
    v = 0.6
    for up, dn, (su, sd), dt in cmds:
        v, _ = pump_integrate(v, pump_current(CFG, up, dn, su, sd), dt, CFG)
        assert 0.0 <= v <= CFG.v_dd


def _curve(corner="TT"):
    # The corner's range as the 1.3 Gb/s, 10-phase scenario builds it.
    T = period_fs(1.3e9)
    range_fs = Scenario(corner=corner).vcdl_curve().range_fs
    return VcdlCurve(range_fs=range_fs, v_low=0.3, v_high=0.9), T


def test_vcdl_lower_boundary_is_zero():
    curve, _ = _curve()
    assert vcdl_delay(0.3, curve) == 0
    assert vcdl_delay(0.0, curve) == 0  # input clamped below the window


def test_vcdl_typical_range_is_two_phase_steps():
    curve, T = _curve("TT")
    assert vcdl_delay(0.9, curve) == 2 * round(T / 10)
    assert vcdl_delay(1.2, curve) == 2 * round(T / 10)


def test_vcdl_linear_midpoint():
    curve, T = _curve("TT")
    assert vcdl_delay(0.6, curve) == round(2 * round(T / 10) / 2)


def test_vcdl_fastest_corner_one_step():
    curve, T = _curve("FF")
    assert vcdl_delay(0.9, curve) == round(T / 10)


@pytest.mark.parametrize("corner", CORNERS, ids=[f"linear-{c}" for c in CORNERS])
def test_vcdl_monotone_dense_sweep(corner):
    curve, _ = _curve(corner)
    prev = -1
    for mv in range(300, 901):
        d = vcdl_delay(mv / 1000.0, curve)
        assert d >= prev
        prev = d
    # Strictly increasing at 10 mV granularity.
    vals = [vcdl_delay(v / 100.0, curve) for v in range(30, 91)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    # Below, at and above the window [v_low, v_high]: the input clamp, then
    # the linear map of the normalised input.
    lo, hi = curve.v_low, curve.v_high
    for v in (-0.5, 0.0, lo - 1e-9, lo, lo + 1e-9, 0.45, 0.6, 0.8,
              hi - 1e-9, hi, hi + 1e-9, 1.2, 5.0):
        x = (min(max(v, lo), hi) - lo) / (hi - lo)
        assert vcdl_delay(v, curve) == round(curve.range_fs * x)


# Each corner's VCDL range in DLL phase steps, written out here rather than
# read from the scenario's table.
_CORNER_STEPS = {"FF": 1.0, "TT": 2.0, "SS": 2.6, "FNSP": 2.3, "SNFP": 2.3}


@pytest.mark.parametrize("corner", CORNERS)
def test_vcdl_corner_range_in_phase_steps(corner):
    for rate, n_phases in ((1.3e9, 10), (4e9, 10), (1.3e9, 16)):
        scn = Scenario(corner=corner, bit_rate_hz=rate, n_phases=n_phases)
        step = round(period_fs(rate) / n_phases)
        assert scn.vcdl_curve().range_fs == round(_CORNER_STEPS[corner] * step)


def test_vcdl_corner_ordering():
    T = period_fs(1.3e9)
    spans = {}
    for corner in CORNERS:
        curve, _ = _curve(corner)
        spans[corner] = vcdl_delay(0.9, curve) - vcdl_delay(0.3, curve)
    assert spans["FF"] < spans["FNSP"] <= spans["SNFP"] < spans["SS"]
    assert spans["FF"] >= round(T / 10)


def test_vcdl_unknown_corner_is_scenario_error():
    with pytest.raises(ScenarioError, match="unknown corner"):
        Scenario(corner="XX")


def test_window_thresholds_quarter_points():
    lo, hi = Scenario(v_dd=CFG.v_dd).window()
    assert lo == pytest.approx(0.3)
    assert hi == pytest.approx(0.9)
