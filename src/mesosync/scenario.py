"""Scenario description and the line-oriented ``key = value`` file format.

Keys are namespaced (``pump.i_weak_uA = 1``); ``#`` starts a comment;
unknown keys are errors so that typos never silently fall back to defaults.

``Scenario`` is the one home of every model default: the component
configurations take each value explicitly and are built from a scenario
(``pump_config``, ``vcdl_curve`` and the other builders below).  A
``Scenario`` is valid once built, also by ``dataclasses.replace``: its
``validate`` builds every component and makes every conversion a run makes,
and an error from a component starts with the keys that component reads.

A value that no scenario sets to a second value is a constant of the code
that reads it, not a key: the VCDL corner ranges (``_CORNER_MULT``), the
lock detector's window, drift and margin (``lock``) and the eye
histogram's bins (``harness._EYE_BINS``).
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


# VCDL range per process corner, in DLL phase steps: the fastest corner
# spans exactly one step, typical spans two, slow corners up to 2.6.
_CORNER_MULT = {"FF": 1.0, "TT": 2.0, "SS": 2.6, "FNSP": 2.3, "SNFP": 2.3}


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
    tx_gauss_sigma_ui: float = 0.0
    rx_sin_amp_ui: float = 0.0
    rx_sin_freq_hz: float = 0.0
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
    # vcdl.*
    corner: str = "TT"
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
                       self.tx_gauss_sigma_ui),
            JitterSpec(self.rx_sin_amp_ui, self.rx_sin_freq_hz,
                       self.rx_gauss_sigma_ui),
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
        """No delay at the window's low threshold, the corner's multiple of
        one DLL phase step (``_CORNER_MULT``) at its high threshold."""
        mult = _CORNER_MULT.get(self.corner)
        if mult is None:
            raise ScenarioError(f"unknown corner: {self.corner!r}")
        v_low, v_high = self.window()
        return VcdlCurve(
            range_fs=round(mult * round(self.period / self.n_phases)),
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
        # The components check their own values; building each one makes
        # every conversion a run makes, so a bad value, or a finite one
        # that overflows in fs, is a ScenarioError here, not a crash
        # mid-run.  Its message starts with ``keys``, the keys read by the
        # component being built.
        tx, rx = (f"jitter.{side}.sin_amp_ui, jitter.{side}.gauss_sigma_ui"
                  for side in ("tx", "rx"))
        try:
            keys = "sim.bit_rate_hz"
            T = self.period
            keys = "sim.duration_us"
            self.duration_fs
            keys = f"{tx}, {rx}"
            specs = self.jitter()
            for keys, spec in zip((tx, rx), specs):
                # No edge offset, round(offset * T), can be larger than this.
                if not math.isfinite((spec.sin_amp_ui
                                      + GAUSS_MAX * spec.gauss_sigma_ui) * T):
                    raise ValueError("jitter overflows a clock edge in fs")
            keys = ("channel.n, channel.alpha, channel.transition_time_ui, "
                    "channel.swing_v, sim.bit_rate_hz")
            self.channel_config()
            keys = "supply.v_dd, window.trip_delay_ns"
            self.window_comparator()
            keys = ("pump.i_weak_uA, pump.strong_ratio, pump.c_filter_fF, "
                    "supply.v_dd")
            self.pump_config()
            keys = "dll.n_phases, dll.mode, dll.loop_bw_hz"
            self.dll_phases(ClockGen(T))
            # The curve never spans more than a period: DllPhases has at
            # least 4 phases and no corner spans more than 2.6 phase steps.
            keys = "vcdl.corner, dll.n_phases, supply.v_dd, sim.bit_rate_hz"
            self.vcdl_curve()
            keys = "pd.tw_ps, pd.resolution"
            self.metastability_model()
            keys = "cdt.t_setup_ui, cdt.t_hold_ui, sim.bit_rate_hz"
            self.cdt_chain()
            keys = "data.pattern, sim.seed"
            BitSource(self.pattern, self.seed)
        except OverflowError as e:
            raise ScenarioError(f"{keys}: a value overflows in fs: {e}") from None
        except ValueError as e:
            raise ScenarioError(f"{keys}: {e}") from None
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
    "jitter.tx.gauss_sigma_ui": "tx_gauss_sigma_ui",
    "jitter.rx.sin_amp_ui": "rx_sin_amp_ui",
    "jitter.rx.sin_freq_hz": "rx_sin_freq_hz",
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
    "pd.tw_ps": "tw_ps",
    "pd.resolution": "resolution",
    "cdt.t_setup_ui": "t_setup_ui",
    "cdt.t_hold_ui": "t_hold_ui",
    "loop.vc_init_v": "vc_init_v",
    "snapshot.hot_index": "snapshot_hot",
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


def parse_scenario_text(text: str) -> Scenario:
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
    return apply_settings(Scenario(), settings)


def load_scenario(path: str | Path) -> Scenario:
    return parse_scenario_text(Path(path).read_text(encoding="utf-8"))


def defaults_130nm() -> Scenario:
    """1.3 Gb/s, 1.2 V, K = 16, 10-phase DLL."""
    return Scenario()


def defaults_65nm() -> Scenario:
    """4 Gb/s, 1.0 V, K = 32; other blocks unchanged."""
    return replace(Scenario(), bit_rate_hz=4e9, v_dd=1.0, k_divide=32)
