import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from mesosync.scenario import (
    _CORNER_MULT,
    Scenario,
    ScenarioError,
    apply_settings,
    defaults_130nm,
    defaults_65nm,
    load_scenario,
    parse_scenario_text,
)
from mesosync.timebase import GAUSS_MAX

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def test_shipped_130nm_file():
    scn = load_scenario(SCENARIO_DIR / "defaults-130nm.scn")
    assert scn.bit_rate_hz == 1.3e9
    assert scn.period == 769_231
    assert scn.k_divide == 16
    assert scn.v_dd == 1.2
    assert scn.n_phases == 10
    assert scn.i_weak_uA == 1
    assert scn.strong_ratio == 16
    assert scn.c_filter_fF == 200
    assert scn.window() == (0.3, 0.9 + 1e-16) or scn.window()[0] == pytest.approx(0.3)


def test_shipped_65nm_file():
    scn = load_scenario(SCENARIO_DIR / "defaults-65nm.scn")
    assert scn.bit_rate_hz == 4e9
    assert scn.period == 250_000
    assert scn.k_divide == 32
    assert scn.v_dd == 1.0


def test_defaults_match_shipped_files():
    assert defaults_130nm().k_divide == 16
    assert defaults_65nm().k_divide == 32
    assert defaults_65nm().bit_rate_hz == 4e9


def test_unknown_key_is_error():
    with pytest.raises(ScenarioError, match="unknown scenario key"):
        parse_scenario_text("pump.i_weak_mA = 1\n")


def test_duplicate_key_is_error():
    with pytest.raises(ScenarioError, match="duplicate"):
        parse_scenario_text("channel.n = 1\nchannel.n = 2\n")


def test_missing_equals_is_error():
    with pytest.raises(ScenarioError, match="key = value"):
        parse_scenario_text("channel.n 1\n")


def test_comments_and_blanks_ignored():
    scn = parse_scenario_text("# comment\n\nchannel.alpha = 0.25  # inline\n")
    assert scn.alpha == 0.25


def test_bool_and_type_coercion():
    scn = parse_scenario_text("jitter.correlated = false\ncoarse.k_divide = 32\n")
    assert scn.correlated is False
    assert scn.k_divide == 32
    with pytest.raises(ScenarioError, match="boolean"):
        parse_scenario_text("jitter.correlated = maybe\n")
    with pytest.raises(ScenarioError, match="integer"):
        parse_scenario_text("coarse.k_divide = 16.5\n")


def test_apply_settings_overrides():
    scn = apply_settings(Scenario(), {"channel.alpha": "0.42", "data.pattern": "alternating"})
    assert scn.alpha == 0.42
    assert scn.pattern == "alternating"


def test_validation_rejects_bad_values():
    with pytest.raises(ScenarioError):
        apply_settings(Scenario(), {"channel.alpha": "1.5"})
    with pytest.raises(ScenarioError):
        apply_settings(Scenario(), {"dll.n_phases": "9"})
    with pytest.raises(ScenarioError):
        apply_settings(Scenario(), {"snapshot.hot_index": "10"})
    # Each of these ran once: a negative hold time turned the hold check off.
    for settings in (
        {"channel.transition_time_ui": "-0.1"},
        {"dll.mode": "tracking", "dll.loop_bw_hz": "-1e6"},
        {"dll.mode": "tracking", "dll.loop_bw_hz": "0"},
        {"cdt.t_hold_ui": "-0.5"},
        # Vc would move too slowly to time a crossing in fs, too fast to
        # be finite, or not at all.
        {"pump.c_filter_fF": "1e303"},
        {"supply.v_dd": "1e302"},
        {"pump.i_weak_uA": "1e303", "pump.strong_ratio": "1e303"},
        {"pump.i_weak_uA": "1e-20", "pump.c_filter_fF": "1e300"},
    ):
        with pytest.raises(ScenarioError):
            apply_settings(Scenario(), settings)


def test_vc_start_defaults_to_window_center():
    assert Scenario().vc_start() == pytest.approx(0.6)
    assert apply_settings(Scenario(), {"loop.vc_init_v": "0.45"}).vc_start() == 0.45


def test_duration_conversion():
    scn = apply_settings(Scenario(), {"sim.duration_us": "2.5"})
    assert scn.duration_fs == 2_500_000_000


@pytest.mark.parametrize("bit_rate_hz", [1.3e9, 4e9])
@pytest.mark.parametrize("n_phases", [4, 6, 10, 32])
@pytest.mark.parametrize("corner", sorted(_CORNER_MULT))
def test_vcdl_range_within_one_period(corner, n_phases, bit_rate_hz):
    # No corner's fine line spans more than a period, at the fewest DLL
    # phases DllPhases accepts too.
    scn = Scenario(corner=corner, n_phases=n_phases, bit_rate_hz=bit_rate_hz)
    assert 0 <= scn.vcdl_curve().range_fs <= scn.period


def test_scenario_is_checked_when_built():
    # Every Scenario validates itself, also one made by replace: neither
    # of these reaches a run (a false-lock study of either once raised a
    # bare ValueError).
    for changes in ({"corner": "XX"}, {"v_dd": -1.0}):
        with pytest.raises(ScenarioError):
            replace(defaults_130nm(), **changes)


def test_jitter_edge_offsets_fit_in_fs():
    # One Rng.gauss draw never exceeds its largest radius, at the smallest
    # uniform it draws, so GAUSS_MAX bounds every gaussian edge offset.
    assert math.sqrt(-2.0 * math.log(2.0**-53)) < GAUSS_MAX
    # Receive-clock jitter needs uncorrelated clocks.
    base = replace(defaults_130nm(), correlated=False)
    T = base.period
    largest = sys.float_info.max / T
    for key in ("tx_sin_amp_ui", "rx_sin_amp_ui"):
        replace(base, **{key: largest / 2})
        with pytest.raises(ScenarioError, match="overflows"):
            replace(base, **{key: largest * 2})
    for key in ("tx_gauss_sigma_ui", "rx_gauss_sigma_ui"):
        replace(base, **{key: largest / GAUSS_MAX / 2})
        with pytest.raises(ScenarioError, match="overflows"):
            replace(base, **{key: largest / GAUSS_MAX * 2})
