"""The lock detector's gates, each refusing on its own, and a run that
never locks."""

import math
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from mesosync import defaults_130nm
from mesosync.harness import Simulation
from mesosync.lock import LOCK_GATES, LockDetector
from mesosync.scenario import apply_settings, load_scenario

SCN = defaults_130nm()
SCN_FILE = Path(__file__).resolve().parent.parent / "scenarios" / "defaults-130nm.scn"


def _detector() -> LockDetector:
    return LockDetector(SCN, SCN.window_comparator(), SCN.pump_config())


def _history(det: LockDetector) -> list[list]:
    # One cycle per period over exactly one lock window, with the ring
    # stepped at 0: Vc in the middle of the window, every decision active,
    # no metastable sample and no excursion.  Every gate passes first at the
    # last cycle, where the ring step leaves the window.
    v = (det.v_floor + det.v_ceil) / 2
    n = det.win // det.T
    assert n * det.T == det.win
    return [[k * det.T, v, k % 2, 1 - k % 2, False, 0] for k in range(n + 1)]


def _refuse_region(det, cycles):
    cycles[-1][5] = None  # Vc or the published region outside the window


def _refuse_ring_change(det, cycles):
    det.last_ring_change = 1


def _refuse_recent_excursion(det, cycles):
    cycles[-1][5] = cycles[-1][0] - 1


def _refuse_history(det, cycles):
    del cycles[:2]  # the oldest Vc point is more than a period inside


def _refuse_activity(det, cycles):
    for c in cycles[7:]:  # 7 active decisions, one short of a quarter of 33
        c[3] = c[2]


def _refuse_drift_bound(det, cycles):
    for c in cycles[::2]:
        c[1] = det.v_floor


def _refuse_vc_margin(det, cycles):
    for c in cycles:
        c[1] = math.nextafter(det.v_ceil, 1.0)


def _refuse_metastable(det, cycles):
    cycles[0][4] = True  # the oldest flag in the window


REFUSALS = {
    "region": _refuse_region,
    "ring_change": _refuse_ring_change,
    "recent_excursion": _refuse_recent_excursion,
    "history": _refuse_history,
    "activity": _refuse_activity,
    "drift_bound": _refuse_drift_bound,
    "vc_margin": _refuse_vc_margin,
    "metastable": _refuse_metastable,
}


def _feed(det, cycles) -> list:
    return [det.update(*c) for c in cycles]


@pytest.mark.parametrize("v_dd", [1.2, 1.0])
def test_vc_margin_is_a_tenth_of_the_window(v_dd):
    # The vc_margin gate keeps Vc 10 % of the window clear of each
    # threshold, written out here rather than read from the lock module.
    scn = replace(SCN, v_dd=v_dd)
    window = scn.window_comparator()
    det = LockDetector(scn, window, scn.pump_config())
    margin = 0.1 * (window.v_high - window.v_low)
    assert det.v_floor == window.v_low + margin
    assert det.v_ceil == window.v_high - margin


def test_hand_built_history_locks_at_its_last_cycle():
    det = _detector()
    cycles = _history(det)
    gates = _feed(det, cycles)
    assert gates == ["ring_change"] * (len(cycles) - 1) + [None]
    assert det.time == cycles[-1][0]


@pytest.mark.parametrize("gate", LOCK_GATES)
def test_each_gate_refuses_on_its_own(gate):
    # Parametrized over LOCK_GATES, so a gate without a case fails here.
    det = _detector()
    cycles = _history(det)
    REFUSALS[gate](det, cycles)
    assert _feed(det, cycles)[-1] == gate
    assert det.time is None


def test_all_ones_run_is_refused_by_activity():
    # Constant data gives the detector no transitions: the loop never
    # decides, so the activity gate refuses every cycle once the ring has
    # settled and the Vc history spans the window.
    scn = apply_settings(load_scenario(SCN_FILE), {"data.pattern": "ones"})
    sim = Simulation(replace(scn, duration_us=2.0))
    update = sim.lock.update
    gates = []

    def recorded(*args):
        gates.append(update(*args))
        return gates[-1]

    sim.lock.update = recorded
    m = sim.run()
    assert not m.locked and m.exit_code == 2
    assert gates[-1] == "activity"
    assert Counter(gates) == {"ring_change": 30, "history": 1, "activity": 2567}
