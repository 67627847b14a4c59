import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

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
    "pd.resolution=maybe",
    "window.trip_delay_ns=-1",
    "loop.vc_init_v=5",
    "jitter.tx.sin_amp_ui=-1",
    "jitter.rx.gauss_sigma_ui=-1",
    "sim.duration_us=nan",
    "sim.duration_us=inf",
    "vcdl.mult_tt=-1e9",
    "vcdl.mult_tt=1e9",
    "vcdl.d_min_ui=-0.1",
    "cdt.t_setup_ui=-0.1",
    "cdt.t_setup_ui=1e9",
    "channel.transition_time_ui=-0.1",
    "dll.loop_bw_hz=-1e6",
    "lock.window_divided=0",
    "lock.drift_frac=0",
    "lock.vc_margin_frac=-0.5",
    "eye.bins=0",
]


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
        assert out.out == "", setting


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


def test_falselock_needs_a_seed(capsys):
    # With no stochastic or snapshot seed the study would check only the
    # hold leg and still report ok.
    for seeds in ("0", "-3"):
        code = main(["falselock", SCN, "--seeds", seeds, "--duration", "3"])
        out = capsys.readouterr()
        assert code == 2, seeds
        assert out.err.startswith("scenario error:"), seeds
        assert out.out == "", seeds


# Raw --set values by field type: in-range, boundary, out-of-range and
# malformed.  The bit rate stays below 10 GHz so that a 0.3 us run stays
# short.
_JUNK = st.sampled_from(["", "x", "nan", "inf", "-inf", "1e400", "-1"])
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
