"""Scenario description and the line-oriented ``key = value`` file format.

Keys are namespaced (``pump.i_weak_uA = 1``); ``#`` starts a comment;
unknown keys are errors so that typos never silently fall back to defaults.

``Scenario`` is the one home of every model default: the component
configurations take each value explicitly and are built from a scenario
(``pump_config``, ``vcdl_curve`` and the other builders below).  A
``Scenario`` is valid once built, also by ``dataclasses.replace``: its
``validate`` builds every component and makes every conversion a run makes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .coarse_loop import WindowComparator
from .dll_cdt import CdtChain, DllPhases
from .fine_loop import PumpConfig, VcdlCurve
from .link import BitSource, ChannelConfig
from .phase_detector import MetastabilityModel
from .timebase import (FS_PER_NS, FS_PER_PS, GAUSS_MAX, ClockGen, JitterSpec,
                       SimTime, period_fs)


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class Scenario:
    # sim.*
    bit_rate_hz: float = 1.3e9
    duration_us: float = 10.0
    seed: int = 1
    # channel.*
    n: int = 0
    alpha: float = 0.0
    transition_time_ui: float = 0.2
    swing_v: float = 0.2
    # data.*
    pattern: str = "prbs15"
    # jitter.*
    correlated: bool = True
    tx_sin_amp_ui: float = 0.0
    tx_sin_freq_hz: float = 0.0
    tx_sin_phase_rad: float = 0.0
    tx_gauss_sigma_ui: float = 0.0
    rx_sin_amp_ui: float = 0.0
    rx_sin_freq_hz: float = 0.0
    rx_sin_phase_rad: float = 0.0
    rx_gauss_sigma_ui: float = 0.0
    # dll.*
    n_phases: int = 10
    dll_mode: str = "ideal"
    loop_bw_hz: float = 20e6
    # pump.* / supply.*
    i_weak_uA: float = 1.0
    strong_ratio: float = 16.0
    c_filter_fF: float = 200.0
    v_dd: float = 1.2
    # window.*
    trip_delay_ns: float = 6.0
    # coarse.*
    k_divide: int = 16
    # vcdl.*  (range multipliers in DLL phase steps: the fastest corner spans
    # exactly one step, typical spans two, slow corners up to 2.6)
    corner: str = "TT"
    d_min_ui: float = 0.0
    mult_ff: float = 1.0
    mult_tt: float = 2.0
    mult_ss: float = 2.6
    mult_fnsp: float = 2.3
    mult_snfp: float = 2.3
    # pd.*
    tw_ps: float = 10.0
    resolution: str = "stochastic"
    # cdt.*
    t_setup_ui: float = 0.02
    t_hold_ui: float = 0.0
    # loop.*
    vc_init_v: float = -1.0      # negative selects the window center
    # snapshot.*
    snapshot_hot: int = -1       # negative = cold start from Q0
    # lock.*  (drift_frac bounds the windowed Vc excursion as a fraction of
    # the activity-driven maximum; see the lock detector)
    lock_window_divided: int = 2
    lock_drift_frac: float = 0.5
    lock_vc_margin_frac: float = 0.10
    # eye.*
    eye_bins: int = 100

    @property
    def period(self) -> SimTime:
        return period_fs(self.bit_rate_hz)

    @property
    def duration_fs(self) -> SimTime:
        return round(self.duration_us * 1e9)

    def window(self) -> tuple[float, float]:
        return self.v_dd / 4.0, 3.0 * self.v_dd / 4.0

    def vc_start(self) -> float:
        if self.vc_init_v >= 0.0:
            return abs(self.vc_init_v)  # -0.0 starts at 0.0
        lo, hi = self.window()
        return (lo + hi) / 2.0

    # Component configurations, built in one place for the simulation and
    # for validation.

    def jitter(self) -> tuple[JitterSpec, JitterSpec]:
        """Transmitter and receiver clock jitter."""
        return (
            JitterSpec(self.tx_sin_amp_ui, self.tx_sin_freq_hz,
                       self.tx_sin_phase_rad, self.tx_gauss_sigma_ui),
            JitterSpec(self.rx_sin_amp_ui, self.rx_sin_freq_hz,
                       self.rx_sin_phase_rad, self.rx_gauss_sigma_ui),
        )

    def channel_config(self) -> ChannelConfig:
        return ChannelConfig(
            n=self.n,
            alpha=self.alpha,
            bit_period=self.period,
            transition_time=round(self.transition_time_ui * self.period),
            swing=self.swing_v,
        )

    def window_comparator(self) -> WindowComparator:
        v_low, v_high = self.window()
        return WindowComparator(v_low, v_high, round(self.trip_delay_ns * FS_PER_NS))

    def pump_config(self) -> PumpConfig:
        return PumpConfig(
            i_weak=self.i_weak_uA * 1e-6,
            strong_ratio=self.strong_ratio,
            c_filter=self.c_filter_fF * 1e-15,
            v_dd=self.v_dd,
        )

    def vcdl_curve(self) -> VcdlCurve:
        """``d_min_ui`` plus, across the window, the corner's multiple of
        one DLL phase step."""
        mult = {"FF": self.mult_ff, "TT": self.mult_tt, "SS": self.mult_ss,
                "FNSP": self.mult_fnsp, "SNFP": self.mult_snfp}.get(self.corner)
        if mult is None:
            raise ScenarioError(f"unknown corner: {self.corner!r}")
        T = self.period
        v_low, v_high = self.window()
        return VcdlCurve(
            d_min=round(self.d_min_ui * T),
            range_fs=round(mult * round(T / self.n_phases)),
            v_low=v_low,
            v_high=v_high,
        )

    def cdt_chain(self) -> CdtChain:
        T = self.period
        return CdtChain(T, round(self.t_setup_ui * T), round(self.t_hold_ui * T))

    def metastability_model(self) -> MetastabilityModel:
        return MetastabilityModel(round(self.tw_ps * FS_PER_PS), self.resolution)

    def dll_phases(self, reference: ClockGen) -> DllPhases:
        return DllPhases(reference, self.n_phases, self.dll_mode, self.loop_bw_hz)

    def __post_init__(self):
        self.validate()

    def validate(self) -> "Scenario":
        for key, name in _FLOAT_KEYS:
            if not math.isfinite(getattr(self, name)):
                raise ScenarioError(f"{key} must be finite")
        if self.bit_rate_hz <= 0:
            raise ScenarioError("sim.bit_rate_hz must be positive")
        if self.duration_us < 0:
            raise ScenarioError("sim.duration_us must be >= 0")
        if not 0.0 <= self.alpha < 1.0:
            raise ScenarioError("channel.alpha must be in [0, 1)")
        if self.n < 0:
            raise ScenarioError("channel.n must be >= 0")
        if self.n_phases % 2 != 0:
            raise ScenarioError("dll.n_phases must be even")
        if self.k_divide < 1:
            raise ScenarioError("coarse.k_divide must be >= 1")
        if self.snapshot_hot >= self.n_phases:
            raise ScenarioError("snapshot.hot_index out of range")
        if self.vc_init_v > self.v_dd:
            raise ScenarioError("loop.vc_init_v must not exceed supply.v_dd")
        # The retiming stage settles T/2 - t_setup after its edge.
        if not 0.0 <= self.t_setup_ui <= 0.5:
            raise ScenarioError("cdt.t_setup_ui must be in [0, 0.5]")
        # A negative hold would read as no hold check at all.
        if self.t_hold_ui < 0:
            raise ScenarioError("cdt.t_hold_ui must be >= 0")
        # Only the harness reads these; a margin of half the window leaves
        # no interior Vc to lock at.
        if self.lock_window_divided < 1:
            raise ScenarioError("lock.window_divided must be >= 1")
        if self.lock_drift_frac <= 0:
            raise ScenarioError("lock.drift_frac must be positive")
        if not 0.0 <= self.lock_vc_margin_frac < 0.5:
            raise ScenarioError("lock.vc_margin_frac must be in [0, 0.5)")
        if self.eye_bins < 1:
            raise ScenarioError("eye.bins must be >= 1")
        # The components check their own values; building each one makes
        # every conversion a run makes, so a bad value, or a finite one
        # that overflows in fs, is a ScenarioError here, not a crash mid-run.
        try:
            T = self.period
            self.duration_fs
            for spec in self.jitter():
                # No edge offset, round(offset * T), can be larger than this.
                if not math.isfinite((spec.sin_amp_ui
                                      + GAUSS_MAX * spec.gauss_sigma_ui) * T):
                    raise ScenarioError("jitter overflows a clock edge in fs")
            self.channel_config()
            self.window_comparator()
            self.pump_config()
            self.dll_phases(ClockGen(T))
            curve = self.vcdl_curve()
            self.metastability_model()
            self.cdt_chain()
            BitSource(self.pattern, self.seed)
        except OverflowError as e:
            raise ScenarioError(f"a value overflows in fs: {e}") from None
        except ValueError as e:
            raise ScenarioError(str(e)) from None
        # A negative delay would sample before the clock edge that asks
        # for the sample; a fine line longer than a period is never needed.
        if not (curve.d_min >= 0 and curve.range_fs >= 0
                and curve.d_min + curve.range_fs <= T):
            raise ScenarioError(
                "VCDL delay (vcdl.d_min_ui plus the corner's range) must "
                "stay within [0, 1] UI"
            )
        return self


# scenario-file key -> dataclass field
_KEYMAP = {
    "sim.bit_rate_hz": "bit_rate_hz",
    "sim.duration_us": "duration_us",
    "sim.seed": "seed",
    "channel.n": "n",
    "channel.alpha": "alpha",
    "channel.transition_time_ui": "transition_time_ui",
    "channel.swing_v": "swing_v",
    "data.pattern": "pattern",
    "jitter.correlated": "correlated",
    "jitter.tx.sin_amp_ui": "tx_sin_amp_ui",
    "jitter.tx.sin_freq_hz": "tx_sin_freq_hz",
    "jitter.tx.sin_phase_rad": "tx_sin_phase_rad",
    "jitter.tx.gauss_sigma_ui": "tx_gauss_sigma_ui",
    "jitter.rx.sin_amp_ui": "rx_sin_amp_ui",
    "jitter.rx.sin_freq_hz": "rx_sin_freq_hz",
    "jitter.rx.sin_phase_rad": "rx_sin_phase_rad",
    "jitter.rx.gauss_sigma_ui": "rx_gauss_sigma_ui",
    "dll.n_phases": "n_phases",
    "dll.mode": "dll_mode",
    "dll.loop_bw_hz": "loop_bw_hz",
    "pump.i_weak_uA": "i_weak_uA",
    "pump.strong_ratio": "strong_ratio",
    "pump.c_filter_fF": "c_filter_fF",
    "supply.v_dd": "v_dd",
    "window.trip_delay_ns": "trip_delay_ns",
    "coarse.k_divide": "k_divide",
    "vcdl.corner": "corner",
    "vcdl.d_min_ui": "d_min_ui",
    "vcdl.mult_ff": "mult_ff",
    "vcdl.mult_tt": "mult_tt",
    "vcdl.mult_ss": "mult_ss",
    "vcdl.mult_fnsp": "mult_fnsp",
    "vcdl.mult_snfp": "mult_snfp",
    "pd.tw_ps": "tw_ps",
    "pd.resolution": "resolution",
    "cdt.t_setup_ui": "t_setup_ui",
    "cdt.t_hold_ui": "t_hold_ui",
    "loop.vc_init_v": "vc_init_v",
    "snapshot.hot_index": "snapshot_hot",
    "lock.window_divided": "lock_window_divided",
    "lock.drift_frac": "lock_drift_frac",
    "lock.vc_margin_frac": "lock_vc_margin_frac",
    "eye.bins": "eye_bins",
}

_FIELD_TYPES = {f.name: f.type for f in fields(Scenario)}
_FLOAT_KEYS = [(k, f) for k, f in _KEYMAP.items() if _FIELD_TYPES[f] == "float"]


def _coerce(field_name: str, raw: str):
    ftype = _FIELD_TYPES[field_name]
    raw = raw.strip()
    if ftype == "bool":
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ScenarioError(f"expected boolean for {field_name}, got {raw!r}")
    if ftype == "int":
        try:
            return int(raw)
        except ValueError as e:
            raise ScenarioError(f"expected integer for {field_name}: {e}") from None
    if ftype == "float":
        try:
            return float(raw)
        except ValueError as e:
            raise ScenarioError(f"expected number for {field_name}: {e}") from None
    return raw


def apply_settings(s: Scenario, settings: dict[str, str]) -> Scenario:
    """Apply ``file-key -> raw value`` overrides, rejecting unknown keys."""
    updates = {}
    for key, raw in settings.items():
        if key not in _KEYMAP:
            raise ScenarioError(f"unknown scenario key: {key!r}")
        fname = _KEYMAP[key]
        updates[fname] = _coerce(fname, raw)
    return replace(s, **updates)


def parse_scenario_text(text: str, base: Scenario | None = None) -> Scenario:
    settings: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ScenarioError(f"line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in settings:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
        settings[key] = value.strip()
    return apply_settings(base or Scenario(), settings)


def load_scenario(path: str | Path, base: Scenario | None = None) -> Scenario:
    return parse_scenario_text(Path(path).read_text(encoding="utf-8"), base)


def defaults_130nm() -> Scenario:
    """1.3 Gb/s, 1.2 V, K = 16, 10-phase DLL."""
    return Scenario()


def defaults_65nm() -> Scenario:
    """4 Gb/s, 1.0 V, K = 32; other blocks unchanged."""
    return replace(Scenario(), bit_rate_hz=4e9, v_dd=1.0, k_divide=32)
