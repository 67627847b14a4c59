"""CSV and summary writers for run results.

All files are UTF-8 with LF line endings and mandatory headers; identical
runs produce byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

from .harness import RunMetrics


def _write(path: Path, header: str, rows) -> None:
    """Write ``header``, then the rows (each ending in LF) in one call.

    ``rows`` is an iterator: joining a trace's rows into one string would
    hold them all at once (2.7 MB more peak RSS for 24k Vc points)."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(header)
        f.writelines(rows)


def write_outputs(m: RunMetrics, outdir: str | Path) -> None:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    _write(out / "vc_trace.csv", "time_fs,vc_volts\n",
           (f"{t},{v:.9f}\n" for t, v in m.vc_trace))
    _write(out / "counter_trace.csv",
           "time_fs,hot_index,enable,updn,up_strong,dn_strong\n",
           (f"{t},{hot},{en},{updn},{su},{sd}\n"
            for t, hot, en, updn, su, sd in m.counter_trace))
    _write(out / "eye_hist.csv", "phase_bin_ui,value_volts,count\n",
           (f"{p:.4f},{v:.4f},{c}\n" for p, v, c in m.eye_hist or []))
    _write(out / "metrics.txt", "",
           (f"{key} = {value}\n" for key, value in summary_items(m)))


def summary_items(m: RunMetrics) -> list[tuple[str, str]]:
    def fmt(x):
        return "none" if x is None else f"{x:.6f}"

    return [
        ("locked", str(m.locked).lower()),
        ("lock_time_us", fmt(None if m.lock_time_fs is None else m.lock_time_fs / 1e9)),
        ("sampling_phase_ui", fmt(m.sampling_phase_ui)),
        ("oracle_center_ui", fmt(m.oracle_center_ui)),
        ("phase_error_ui", fmt(m.phase_error_ui)),
        ("ber_errors", str(m.ber_errors)),
        ("ber_bits", str(m.ber_bits)),
        ("latency_max_t", fmt(m.latency_max_t)),
        ("latency_mean_t", fmt(m.latency_mean_t)),
        ("latency_hist_t", " ".join(f"{b}:{c}" for b, c in m.latency_hist) or "none"),
        ("post_lock_violations", str(m.post_lock_violations)),
        ("total_violations", str(m.total_violations)),
        ("excursion_max_divided", fmt(m.excursion_max_divided)),
        ("one_hot_violations", str(m.one_hot_violations)),
        ("vc_bound_violations", str(m.vc_bound_violations)),
        ("counter_monotone", str(m.counter_monotone).lower()),
        ("final_hot", str(m.final_hot)),
        ("vc_final_v", fmt(m.vc_final)),
        ("vc_pp_post_lock_v", fmt(m.vc_peak_to_peak_post_lock)),
        ("pd_events", str(m.pd_event_count)),
        ("duration_fs", str(m.duration_fs)),
        ("exit_code", str(m.exit_code)),
    ]
