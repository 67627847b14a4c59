import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mesosync import cli
from mesosync.cli import main
from mesosync.scenario import _FIELD_TYPES, _KEYMAP

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SCN = str(SCENARIOS / "defaults-130nm.scn")
SCN_65 = str(SCENARIOS / "defaults-65nm.scn")

# Golden output of the run below.  A refactor must keep every byte; change a
# hash only together with a deliberate change of the simulated behaviour.
GOLDEN_SHA256 = {
    "vc_trace.csv": "0d592b5bce8e891242f74eac9abebb4b535379ab2ea37e6c460df71a1a3fc787",
    "counter_trace.csv": "38eb71bc141c072c9ea6c9484a5777dfc11f265868429f4b7152f52f4de18d82",
    "eye_hist.csv": "e58b72849c06a8628e1d2df8b24cf5e8494804577a3061af99c841f1c5f5c593",
    "metrics.txt": "e5e62875505736891e8e04b6e29d5d54db948ef86dc119e662033ea0bbdeb626",
}


# Golden output of a 65 nm run whose transmitter clock carries 0.4 UI of
# sinusoidal jitter that the receiver does not share, so every bit boundary
# is off the nominal grid.
GOLDEN_JITTER_SHA256 = {
    "vc_trace.csv": "cafa0b6ad06226451ba1f6f07729bd3e7f2199383777f1fb52aa3eb4e684b5e7",
    "counter_trace.csv": "1912b9202f2a9cc34f73d726f7d0e4212bf1b2230d92d86e75368f19ead59811",
    "eye_hist.csv": "322d816a8c0fd2894fdd2229cd72950dba479a9e25fd1459825dd80146d49337",
    "metrics.txt": "a4e639a0f94fa2bc4fa2741eaa38b1878aafaf1ae1a2e0b0193bae94d81680da",
}


# Golden output of a run whose coarse loop hunts: the comparator's 20 ns trip
# delay lets Vc overshoot the window both ways, so the ring steps up and back
# down and both strong pulses fire.
GOLDEN_HUNTING_SHA256 = {
    "vc_trace.csv": "e0681825f39a8f8db8a31b2ea92ebdd858b3e87e1616037d73018acaa099ec2f",
    "counter_trace.csv": "465fb82cb6504b4e220eebb7800f494bdbc9f0c5ba58597ca64b353d5d91ce4e",
    "eye_hist.csv": "ae10a773f5cd003d1d68bc59fdd618726ebcda1f0f530f4356701082713a9e0b",
    "metrics.txt": "8674d6f3d47b242dd8f42807b4898b2c5be511de3721264c19e6e1a11007c7ea",
}


def _assert_golden(out_dir, golden):
    for name, digest in golden.items():
        assert hashlib.sha256((out_dir / name).read_bytes()).hexdigest() == digest, name


def test_run_subcommand(tmp_path, capsys):
    code = main([
        "run", SCN, "--duration", "3", "--set", "channel.alpha=0.3",
        "--out", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "locked = true" in out
    _assert_golden(tmp_path, GOLDEN_SHA256)


def test_run_jittered_golden(tmp_path, capsys):
    code = main([
        "run", SCN_65, "--duration", "2",
        "--set", "jitter.correlated=false",
        "--set", "jitter.tx.sin_amp_ui=0.4",
        "--set", "jitter.tx.sin_freq_hz=200e6",
        "--set", "channel.alpha=0.62",
        "--out", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "locked = true" in out
    _assert_golden(tmp_path, GOLDEN_JITTER_SHA256)


def test_run_hunting_golden(tmp_path, capsys):
    code = main([
        "run", SCN, "--duration", "3",
        "--set", "window.trip_delay_ns=20", "--set", "channel.alpha=0.05",
        "--out", str(tmp_path),
    ])
    out = capsys.readouterr().out.splitlines()
    assert code == 2
    assert "counter_monotone = false" in out
    rows = [r.split(",") for r in
            (tmp_path / "counter_trace.csv").read_text().splitlines()[1:]]
    assert sum(r[4:] == ["1", "0"] for r in rows) == 77  # up_strong
    assert sum(r[4:] == ["0", "1"] for r in rows) == 78  # dn_strong
    _assert_golden(tmp_path, GOLDEN_HUNTING_SHA256)


# Each bad value must end as a scenario error, never as a traceback or a run.
BAD_SETTINGS = [
    "nope.key=1",
    "snapshot.restore_vc=true",
    "vcdl.corner=XX",
    "vcdl.shape=wavy",
    "dll.n_phases=2",
    "dll.mode=foo",
    "data.pattern=foo",
    "supply.v_dd=-1",
    "channel.transition_time_ui=1.5",
    "channel.swing_v=0",
    "sim.bit_rate_hz=1e20",
    "pump.i_weak_uA=0",
    "pd.tw_ps=-1",
    "window.trip_delay_ns=-1",
    "loop.vc_init_v=5",
    "jitter.tx.sin_amp_ui=-1",
    "jitter.rx.gauss_sigma_ui=-1",
    "sim.duration_us=nan",
    "sim.duration_us=inf",
    "cdt.t_setup_ui=-0.1",
    "cdt.t_setup_ui=1e9",
    "cdt.t_hold_ui=-0.5",
    "channel.transition_time_ui=-0.1",
    "dll.loop_bw_hz=-1e6",
]

# Keys that once set a single value and are now constants of the code that
# reads them; each is refused like any unknown key, even at its old value.
REMOVED_KEYS = {
    "jitter.tx.sin_phase_rad": "0.0",
    "jitter.rx.sin_phase_rad": "0.0",
    "vcdl.d_min_ui": "0.0",
    "vcdl.mult_ff": "1.0",
    "vcdl.mult_tt": "2.0",
    "vcdl.mult_ss": "2.6",
    "vcdl.mult_fnsp": "2.3",
    "vcdl.mult_snfp": "2.3",
    "lock.window_divided": "2",
    "lock.drift_frac": "0.5",
    "lock.vc_margin_frac": "0.10",
    "eye.bins": "100",
}


def test_run_without_numpy():
    # The package and a run with the oracle need nothing beyond the
    # standard library: with numpy blocked, a locking run still exits 0
    # and reports an eye centre.
    code = (
        "import sys; sys.modules['numpy'] = None\n"
        "import mesosync\n"
        "from mesosync import cli\n"
        f"sys.exit(cli.main(['run', {SCN!r}, '--duration', '1',"
        " '--set', 'channel.alpha=0.3']))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "oracle_center_ui = 0.800000" in proc.stdout.splitlines()


def test_run_unknown_key_exits_2(capsys):
    for setting in BAD_SETTINGS:
        code = main(["run", SCN, "--duration", "0.1", "--set", setting])
        out = capsys.readouterr()
        assert code == 2, setting
        assert out.err.startswith("scenario error:"), setting
        # The message names the refused key, also when a component refused it.
        assert setting.partition("=")[0] in out.err, setting
        assert out.out == "", setting


def test_jitter_error_names_only_its_clock(capsys):
    code = main(["run", SCN, "--duration", "0.1", "--set", "jitter.rx.sin_amp_ui=-1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "jitter.rx.sin_amp_ui" in err and "jitter.tx." not in err


@pytest.mark.parametrize("key, value", [("jitter.rx.sin_amp_ui", "0.45"),
                                        ("jitter.rx.gauss_sigma_ui", "0.02")])
def test_rx_jitter_on_correlated_clocks_is_refused(key, value, capsys):
    # With jitter.correlated = true the receive clock is the transmit
    # clock, so receive-clock jitter would go unused: it is refused.
    code = main(["run", SCN, "--duration", "0.1", "--set", f"{key}={value}",
                 "--set", "jitter.rx.sin_freq_hz=200e6"])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith("scenario error:")
    assert key in out.err and "jitter.correlated" in out.err


def test_bit_period_of_0_fs_is_refused_as_such(capsys):
    code = main(["run", SCN, "--duration", "0.1", "--set", "sim.bit_rate_hz=1e20"])
    assert code == 2
    assert capsys.readouterr().err == (
        "scenario error: sim.bit_rate_hz: the bit period rounds to 0 fs\n")


@pytest.mark.parametrize("in_file", [False, True], ids=["set", "file"])
@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_key_is_unknown(key, in_file, tmp_path, capsys):
    setting = f"{key} = {REMOVED_KEYS[key]}"
    if in_file:
        scn = tmp_path / "s.scn"
        scn.write_text(Path(SCN).read_text() + setting + "\n")
        argv = ["run", str(scn), "--duration", "0.1"]
    else:
        argv = ["run", SCN, "--duration", "0.1", "--set", setting.replace(" ", "")]
    code = main(argv)
    out = capsys.readouterr()
    assert code == 2
    assert out.err == f"scenario error: unknown scenario key: {key!r}\n"
    assert out.out == ""


@pytest.mark.parametrize("value", ["hold", "stochastic"])
def test_resolution_key_is_unknown(value, capsys):
    # Holding metastable samples is the run option hold_until_us, not a
    # scenario setting: the key that once chose it is refused at each of
    # its old values.
    code = main(["run", SCN, "--duration", "0.1", "--set", f"pd.resolution={value}"])
    out = capsys.readouterr()
    assert code == 2
    assert out.err == "scenario error: unknown scenario key: 'pd.resolution'\n"
    assert out.out == ""


def test_run_nonmonotonic_jitter_exits_2(capsys):
    # Uncorrelated gaussian receiver jitter this large pushes some clock edge
    # behind its predecessor partway through the run.
    code = main([
        "run", SCN, "--duration", "2",
        "--set", "jitter.correlated=false",
        "--set", "jitter.rx.gauss_sigma_ui=0.3",
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("jitter error:")
    assert len(err.splitlines()) == 1


def test_run_nonconvergent_exits_2(capsys):
    code = main([
        "run", SCN, "--duration", "1",
        "--set", "data.pattern=ones",
    ])
    assert code == 2


def test_run_never_locked_reports_no_phase(capsys):
    # A run too short to lock reports no sampling phase and no centring
    # error: its detector phases are acquisition, not a locked loop's.
    code = main([
        "run", SCN, "--duration", "0.3", "--set", "channel.alpha=0.3",
    ])
    lines = capsys.readouterr().out.splitlines()
    assert code == 2
    assert "locked = false" in lines
    for key in ("sampling_phase_ui", "oracle_center_ui", "phase_error_ui"):
        assert f"{key} = none" in lines


def test_run_timing_violation_exits_3(capsys):
    # A hold requirement near a full cycle forces every transfer capture to
    # clash with the following transition.
    code = main([
        "run", SCN, "--duration", "3",
        "--set", "channel.alpha=0.62", "--set", "cdt.t_hold_ui=0.9",
    ])
    assert code == 3


# Golden stdout of runs with thousands of transfer-chain violations, the
# only goldens that pin a nonzero violation count: at alpha 0.005 the SS and
# FNSP corners lock with their fine delay past the span the stage-1 phase
# rule assumes, and exit 3.
SLOW_CORNER = ["--set", "channel.alpha=0.005", "--duration", "3"]
GOLDEN_EXIT3_SHA256 = {
    "run": (["run", SCN, "--set", "vcdl.corner=SS", *SLOW_CORNER],
            "22f68766e94658793047c037523bcc65aa925fc73edfe04cc7d9a2e2cd87c753"),
    "sweep": (["sweep", SCN, "--param", "vcdl.corner", "--grid", "SS,FNSP,TT",
               *SLOW_CORNER],
              "7ada48c045a6bce18701f478336dc2b3d954b7df043a3ab13683848df8835a0f"),
}


@pytest.mark.parametrize("command", GOLDEN_EXIT3_SHA256)
def test_violations_golden(command, capsys):
    argv, digest = GOLDEN_EXIT3_SHA256[command]
    code = main(argv)
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (3, digest)


def test_sweep_subcommand(tmp_path, capsys):
    code = main([
        "sweep", SCN, "--duration", "4", "--param", "channel.alpha",
        "--grid", "0.1,0.35", "--settle", "0.5", "--out", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    lines = [l for l in out.splitlines() if l and l[0].isdigit()]
    assert len(lines) == 2
    assert all(",true," in l for l in lines)
    # --out keeps every point's traces.
    for point in ("point_000", "point_001"):
        for name in ("vc_trace.csv", "counter_trace.csv", "eye_hist.csv"):
            assert len((tmp_path / point / name).read_text().splitlines()) > 1


@pytest.mark.parametrize("settle", ["-1", "nan", "inf"])
def test_sweep_bad_settle_exits_2(settle, capsys):
    code = main([
        "sweep", SCN, "--duration", "1", "--param", "channel.alpha",
        "--grid", "0.1,0.3", "--settle", settle,
    ])
    out = capsys.readouterr()
    assert code == 2
    assert out.err.startswith("scenario error:")
    assert len(out.err.splitlines()) == 1
    assert out.out == ""


# Finite inputs whose conversion to fs overflows, or whose clock jitter
# could push an edge offset past the float range; each once ended in an
# OverflowError traceback.
_OVERFLOWING_SETS = [
    ["sim.bit_rate_hz=1e-300"],
    ["sim.duration_us=1e300"],
    ["cdt.t_hold_ui=1e303"],
    ["window.trip_delay_ns=1e303"],
    ["pd.tw_ps=1e306"],
    ["channel.transition_time_ui=1e303"],
    ["jitter.tx.gauss_sigma_ui=1e303"],
    ["jitter.rx.gauss_sigma_ui=1e303", "jitter.correlated=false"],
    ["jitter.tx.sin_amp_ui=1e303", "jitter.tx.sin_freq_hz=1e6"],
]
OVERFLOWING = [
    pytest.param(["run", SCN, "--duration", "0.1"]
                 + [a for setting in sets for a in ("--set", setting)],
                 id=",".join(sets))
    for sets in _OVERFLOWING_SETS
] + [
    pytest.param(["run", SCN, "--duration", "1e300"], id="run-duration"),
    pytest.param(["sweep", SCN, "--param", "channel.alpha", "--grid", "0.1",
                  "--settle", "1e300"], id="sweep-settle"),
    pytest.param(["falselock", SCN, "--seeds", "1", "--duration", "1e300"],
                 id="falselock-duration"),
]


@pytest.mark.parametrize("argv", OVERFLOWING)
def test_overflowing_input_exits_2(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    assert code == 2
    assert out.err.startswith(("scenario error:", "jitter error:"))
    assert len(out.err.splitlines()) == 1
    assert out.out == ""
    if "--set" in argv:
        # The message names the key of the first --set.
        assert argv[argv.index("--set") + 1].partition("=")[0] in out.err


@pytest.mark.parametrize("command", [
    ["run"], ["sweep", "--param", "channel.alpha", "--grid", "0.1"],
])
@pytest.mark.parametrize("below", [False, True])
def test_out_that_is_a_file_exits_2(tmp_path, capsys, monkeypatch, command, below):
    # An --out path that is a file, or lies under one, or (sweep) whose
    # point directory is a file, is refused before anything is simulated.
    f = tmp_path / "f"
    f.write_text("keep")
    bad = [f / "sub" if below else f]
    if command[0] == "sweep":
        (tmp_path / "point_000").write_text("keep")
        bad.append(tmp_path)

    def no_run(*args, **kwargs):
        raise AssertionError("simulated despite a bad --out")

    monkeypatch.setattr(cli, "run", no_run)
    monkeypatch.setattr(cli, "sweep", no_run)
    for out_dir in bad:
        code = main([command[0], SCN, "--duration", "0.3", *command[1:],
                     "--out", str(out_dir)])
        out = capsys.readouterr()
        assert code == 2
        assert out.err.startswith(f"scenario error: --out {out_dir}")
        assert len(out.err.splitlines()) == 1
        assert out.out == ""
    assert f.read_text() == "keep"
    assert all(p.read_text() == "keep" for p in tmp_path.glob("point_*"))


def test_run_reentry_before_first_divided_edge_writes_a_row(tmp_path, capsys):
    # Vc starts just below the window and the weak pump brings it back in
    # before the first divided edge: the publication of "within" changes
    # the FSM's enable output, so it writes a counter_trace row.
    code = main([
        "run", SCN, "--set", "loop.vc_init_v=0.2999", "--duration", "0.5",
        "--out", str(tmp_path),
    ])
    capsys.readouterr()
    assert code in (0, 2)
    rows = (tmp_path / "counter_trace.csv").read_text().splitlines()
    assert "10635386,0,0,0,0,0" in rows


def test_run_negative_zero_start_prints_zero(tmp_path, capsys):
    code = main([
        "run", SCN, "--set", "loop.vc_init_v=-0.0", "--duration", "0.5",
        "--out", str(tmp_path),
    ])
    capsys.readouterr()
    assert code in (0, 2)
    rows = (tmp_path / "vc_trace.csv").read_text().splitlines()
    assert rows[1] == "0,0.000000000"


def test_falselock_subcommand(capsys):
    code = main([
        "falselock", SCN, "--seeds", "3", "--duration", "6",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "ok = true" in out
    assert "hold_dvc_max_mv = 0.000" in out


# Golden stdout of a short false-lock study on each shipped scenario, with
# its exit code; like the run goldens above, a refactor keeps every byte.
GOLDEN_FALSELOCK_SHA256 = {
    SCN: (0, "874fc53f5fdc560e694145b24850ce35c84863fc3e0d35bae5ec2f0e0d3146fa"),
    SCN_65: (2, "ce13e0da83b8e596951448d005b25bfdb1a9aa3f09404dca2dac09d54e943b63"),
}


@pytest.mark.parametrize("scn", GOLDEN_FALSELOCK_SHA256, ids=["130nm", "65nm"])
def test_falselock_golden(scn, capsys):
    code = main(["falselock", scn, "--seeds", "2", "--duration", "1"])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) \
        == GOLDEN_FALSELOCK_SHA256[scn]


@pytest.mark.parametrize("duration", ["0.3", "0.7"])
def test_falselock_legs_run_the_duration(duration, capsys):
    # --duration sets the length of each leg.  In 0.3 us no leg locks; in
    # 0.7 us the stochastic leg locks but the reference run does not, so
    # the snapshot leg restores no seed, which fails the study.
    code = main(["falselock", SCN, "--seeds", "1", "--duration", duration])
    out = capsys.readouterr().out
    assert code == 2
    assert "ok = false" in out
    assert "restored seed=" not in out


def test_falselock_needs_a_seed(capsys):
    # With no stochastic or snapshot seed the study would check only the
    # hold leg and still report ok.
    for seeds in ("0", "-3"):
        code = main(["falselock", SCN, "--seeds", seeds, "--duration", "3"])
        out = capsys.readouterr()
        assert code == 2, seeds
        assert out.err.startswith("scenario error:"), seeds
        assert out.out == "", seeds


def test_falselock_out_is_a_usage_error(tmp_path, capsys):
    # The study writes no outputs, so --out is refused, not ignored.
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["falselock", SCN, "--seeds", "1", "--duration", "1",
              "--out", str(out_dir)])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert not out_dir.exists()


# Raw --set values by field type: in-range, boundary, out-of-range and
# malformed.  The bit rate stays below 10 GHz so that a 0.3 us run stays
# short.
_JUNK = st.sampled_from(["", "x", "nan", "inf", "-inf", "1e400", "-1",
                        "1e303", "1e-300"])
_VALUES = {
    "float": st.floats(min_value=-2.0, max_value=40.0).map(repr)
    | st.sampled_from(["0", "1", "0.5", "1e9", "-1e9"]) | _JUNK,
    "int": st.integers(min_value=-3, max_value=40).map(str)
    | st.sampled_from(["1.5", "99999"]) | _JUNK,
    "bool": st.sampled_from(["true", "false", "maybe"]),
    "str": st.sampled_from(["ideal", "tracking", "prbs15", "alternating",
                            "ones", "zeros", "hold", "stochastic", "TT", "SS",
                            "FF", "FNSP", "SNFP", "linear", "tanh", "bogus"]),
}


@st.composite
def _setting(draw):
    key = draw(st.sampled_from(sorted(_KEYMAP)))
    if key == "sim.bit_rate_hz":
        raw = draw(st.floats(min_value=1e3, max_value=1e10).map(repr) | _JUNK)
    else:
        raw = draw(_VALUES[_FIELD_TYPES[_KEYMAP[key]]])
    return f"{key}={raw}"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    sets=st.lists(_setting(), min_size=1, max_size=4),
    duration=st.sampled_from(["0", "0.05", "0.3"]),
)
def test_run_any_setting_ends_cleanly(sets, duration):
    # Every combination of settings ends as a scenario error or a run with
    # a defined exit code; none escapes as a traceback.
    argv = ["run", SCN, "--duration", duration]
    for setting in sets:
        argv += ["--set", setting]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), argv
    if err.getvalue():
        assert err.getvalue().startswith(("scenario error:", "jitter error:")), argv
