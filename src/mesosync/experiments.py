"""Studies made of many closed-loop runs: the parameter sweep and the
false-lock study.

Each study calls ``harness.run`` once per point or leg, with derived
per-run seeds, and collects the runs' records.  ``FalseLockReport`` is the
one home of the false-lock study's verdict and its thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .fine_loop import vcdl_delay
from .harness import RunMetrics, _fs, run
from .scenario import Scenario, ScenarioError, apply_settings
from .timebase import derive_seed


def sweep(base: Scenario, param: str, grid: list, **options) -> list[RunMetrics]:
    """Independent runs over a parameter grid with derived per-point seeds;
    each point is ``run(scn, **options)``.

    Failures are recorded on the result rather than aborting the sweep; a
    bad instant among ``options`` is refused before the first point.
    """
    for key, us in options.items():
        if key.endswith("_us"):
            _fs(key, us)
    results = []
    for i, value in enumerate(grid):
        try:
            scn = apply_settings(base, {param: str(value)})
            scn = replace(scn, seed=derive_seed(base.seed, i))
            results.append(run(scn, **options))
        except Exception as e:  # record per-point failures, keep sweeping
            m = RunMetrics(scenario=base, error=f"{type(e).__name__}: {e}")
            results.append(m)
    return results


# The false-lock study's pass thresholds: how far Vc may move over the hold
# leg, and how long a restored run may take to its first clean sample.
HOLD_DVC_MAX_V = 0.010
RESTORED_DWELL_MAX_US = 0.05


@dataclass
class FalseLockReport:
    alpha_used: float
    hold_dvc_max: float
    hold_locked: bool
    stochastic_runs: list  # (seed, escaped, escape_after_switch_us, lock_us)
    restored_runs: list    # (seed, dwell_us, lock_us)

    @property
    def ok(self) -> bool:
        """The study's verdict: the hold leg neither moved Vc by
        ``HOLD_DVC_MAX_V`` nor locked, every stochastic seed escaped and
        locked, and every restored seed locked without dwelling
        ``RESTORED_DWELL_MAX_US`` at the false equilibrium.  An empty
        restored leg (the reference run did not lock) fails."""
        return (
            self.hold_dvc_max < HOLD_DVC_MAX_V
            and not self.hold_locked
            and all(e and l is not None for _, e, _, l in self.stochastic_runs)
            and bool(self.restored_runs)
            and all(dw is not None and dw < RESTORED_DWELL_MAX_US
                    and l is not None for _, dw, l in self.restored_runs)
        )


def false_lock_alpha(scn: Scenario) -> float:
    """Channel alpha that parks the cold-start sampling edge on transitions."""
    d = vcdl_delay(scn.vc_start(), scn.vcdl_curve())
    return (d % scn.period) / scn.period


def _us(fs: int | None) -> float | None:
    """An instant in fs as µs; None stays None."""
    return None if fs is None else fs / 1e9


def false_lock_experiment(
    scn: Scenario,
    *,
    phase1_us: float = 2.0,
    n_seeds: int = 20,
) -> FalseLockReport:
    """Three-legged study of the half-period unstable equilibrium.

    Leg 1 holds every metastable sample at its previous value for its
    whole ``phase1_us`` run, pinning the loop at the wrong edge: the
    control voltage must stay put and no lock may be declared.  Leg 2
    repeats the hold phase, then resolves metastable samples by a coin for
    the scenario's duration: every seed must escape the equilibrium and
    lock.  Leg 3 restores a snapshot near the correct lock, taken from a
    reference run of the scenario's duration: the loop must never dwell at
    the false equilibrium.  Holding is a run option, not a scenario
    setting: legs 1 and 2 hold through ``run``'s ``hold_until_us``, and the
    reference run and leg 3 never hold.  Legs 2 and 3 need at least one
    seed each; a reference run that does not lock leaves leg 3 empty, which
    fails the study.
    """
    if n_seeds < 1:
        raise ScenarioError(f"the false-lock study needs at least one seed, "
                            f"got {n_seeds}")
    alpha = false_lock_alpha(scn)
    base = replace(scn, alpha=alpha, pattern="alternating")

    hold_m = run(replace(base, duration_us=phase1_us), keep_traces=True,
                 hold_until_us=phase1_us)
    v0 = base.vc_start()
    dvc = max((abs(v - v0) for v in hold_m.vc_volts), default=0.0)

    stoch_runs = []
    for i in range(n_seeds):
        s = replace(
            base,
            duration_us=phase1_us + scn.duration_us,
            seed=derive_seed(scn.seed, 100 + i),
        )
        mm = run(s, hold_until_us=phase1_us, stop_after_lock_us=0.5)
        escaped = mm.first_clean_sample_fs is not None
        stoch_runs.append(
            (
                s.seed,
                escaped,
                _us(mm.first_clean_sample_fs) - phase1_us if escaped else None,
                _us(mm.lock_time_fs),
            )
        )

    # Reference lock for the snapshot leg: same channel, random resolution.
    ref = run(replace(base, seed=derive_seed(scn.seed, 99)),
              stop_after_lock_us=0.5)
    restored_runs = []
    if ref.locked:
        for i in range(n_seeds):
            s = replace(base, seed=derive_seed(scn.seed, 200 + i),
                        snapshot_hot=ref.final_hot)
            mm = run(s, stop_after_lock_us=0.5)
            restored_runs.append(
                (s.seed, _us(mm.first_clean_sample_fs), _us(mm.lock_time_fs)))

    return FalseLockReport(
        alpha_used=alpha,
        hold_dvc_max=dvc,
        hold_locked=hold_m.locked,
        stochastic_runs=stoch_runs,
        restored_runs=restored_runs,
    )
