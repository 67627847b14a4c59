from dataclasses import replace

from mesosync import defaults_130nm, harness, run
from mesosync.reports import summary_items, write_outputs


def test_outputs_headers_and_lf(tmp_path):
    scn = replace(defaults_130nm(), alpha=0.3, duration_us=3.0)
    m = run(scn, stop_after_lock_us=0.3, keep_traces=True)
    write_outputs(m, tmp_path)
    for name, header in [
        ("vc_trace.csv", "time_fs,vc_volts"),
        ("counter_trace.csv", "time_fs,hot_index,enable,updn,up_strong,dn_strong"),
        ("eye_hist.csv", "phase_bin_ui,value_volts,count"),
    ]:
        raw = (tmp_path / name).read_bytes()
        assert b"\r" not in raw
        text = raw.decode("utf-8")
        assert text.splitlines()[0] == header
        assert len(text.splitlines()) > 1
    metrics = (tmp_path / "metrics.txt").read_text()
    assert "locked = true" in metrics
    assert "ber_errors = 0" in metrics


def test_eye_hist_contents(tmp_path):
    scn = replace(defaults_130nm(), alpha=0.3, duration_us=3.0)
    m = run(scn, stop_after_lock_us=0.3, keep_traces=True)
    assert m.eye_hist
    phases = {p for p, _, _ in m.eye_hist}
    assert len(phases) == harness._EYE_BINS
    assert all(c >= 1 for _, _, c in m.eye_hist)
    # Levels cluster at +-swing/2.
    values = {v for _, v, _ in m.eye_hist}
    assert 0.1 in values and -0.1 in values


def test_byte_identical_reruns(tmp_path):
    scn = replace(defaults_130nm(), alpha=0.42, duration_us=3.0)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    write_outputs(run(scn, keep_traces=True), d1)
    write_outputs(run(scn, keep_traces=True), d2)
    for name in ("vc_trace.csv", "counter_trace.csv", "eye_hist.csv", "metrics.txt"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_summary_items_complete():
    scn = replace(defaults_130nm(), duration_us=0.0)
    items = dict(summary_items(run(scn)))
    assert items["locked"] == "false"
    assert items["exit_code"] == "2"
    assert "lock_time_us" in items
