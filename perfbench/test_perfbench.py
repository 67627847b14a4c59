"""Tests of the benchmark itself: inputs, tracer and output check.

    python3 -m pytest perfbench -q
"""

import json
import time
from dataclasses import replace

import pytest

import run as bench
import workloads as wl
from tracer import LAYER_UNITS, PATCHES, Tracer, original_attr, resolve


def _traced(name, scns, tmp_path):
    with wl.collect_runs() as runs, Tracer() as tracer:
        outcome = wl.execute(name, scns, tmp_path)
    return runs, outcome, tracer


def _short(name):
    """Inputs of the default seed, cut down so a traced repeat is quick."""
    scns = wl.inputs(name, bench.DEFAULT_SEED)
    if name == "lock_sweep":
        return scns[:2]
    if name == "jitter_65nm_out":
        return [replace(s, duration_us=0.5) for s in scns]
    return scns


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_inputs_follow_the_seed(name):
    assert wl.inputs(name, 7) == wl.inputs(name, 7)
    assert wl.inputs(name, 7) != wl.inputs(name, 8)


def test_every_workload_is_timed_by_the_parent():
    assert bench.WORKLOADS == wl.WORKLOADS


@pytest.mark.parametrize("name", ["lock_sweep", "jitter_65nm_out", "falselock"])
def test_oracle_calls(name, tmp_path):
    runs, _, tracer = _traced(name, _short(name), tmp_path)
    layers = tracer.layer_metrics(1.0, wl.sim_metrics(runs)["cycles"])
    expected = len(runs) if name == "lock_sweep" else 0
    assert runs and layers["oracle.calls"] == expected


def test_traced_run_matches_untraced_and_restores_every_patch(tmp_path):
    before = [original_attr(resolve(owner), attr) for _, owner, attr, _ in PATCHES]
    scns = _short("jitter_65nm_out")
    traced, _, tracer = _traced("jitter_65nm_out", scns, tmp_path / "t")
    with wl.collect_runs() as plain:
        wl.execute("jitter_65nm_out", scns, tmp_path / "p")
    after = [original_attr(resolve(owner), attr) for _, owner, attr, _ in PATCHES]
    assert all(a is b for a, b in zip(after, before))
    assert wl.outputs_hash(traced) == wl.outputs_hash(plain)
    layers = tracer.layer_metrics(1.0, 1)
    assert layers["reports.bytes_written"] > 0
    assert {s[0] for s in tracer.spans} >= {"init", "run", "cdt_transfer",
                                             "write_outputs"}


def test_patches_are_restored_after_an_error():
    before = [original_attr(resolve(owner), attr) for _, owner, attr, _ in PATCHES]
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    after = [original_attr(resolve(owner), attr) for _, owner, attr, _ in PATCHES]
    assert all(a is b for a, b in zip(after, before))


def test_self_times_account_for_the_traced_wall(tmp_path):
    t0 = time.perf_counter()
    runs, _, tracer = _traced("lock_sweep", _short("lock_sweep"), tmp_path)
    wall = time.perf_counter() - t0
    layers = tracer.layer_metrics(wall, 1)
    inside = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert inside == pytest.approx(tracer._stack[0][0] / 1e9)
    assert 0.0 <= layers["trace.residual_s"] < 0.1 * wall


def test_altered_field_fails_the_output_check(tmp_path):
    scns = wl.inputs("lock_sweep", bench.DEFAULT_SEED)[:1]
    with wl.collect_runs() as runs:
        outcome = wl.execute("lock_sweep", scns, tmp_path)
    assert wl.check("lock_sweep", runs, outcome) == [[]]
    for field, value in [("latency_max_t", 3.01), ("phase_error_ui", 0.06),
                         ("missed_deliveries_post_lock", 1), ("locked", False)]:
        bad = [replace(runs[0], **{field: value})]
        assert wl.check("lock_sweep", bad, outcome) != [[]], field
    altered = [replace(runs[0], vc_final=runs[0].vc_final + 1e-12)]
    assert wl.outputs_hash(altered) != wl.outputs_hash(runs)


def test_recorded_hash_is_checked():
    recorded = bench.expected_hash("lock_sweep", bench.DEFAULT_SEED)
    ok = [{"hash": recorded}] * 2
    assert bench.verify("lock_sweep", bench.DEFAULT_SEED, ok) == []
    assert bench.verify("lock_sweep", bench.DEFAULT_SEED, [{"hash": "0" * 64}])
    unrecorded = max(bench.RECORDED_SEEDS) + 1
    assert bench.expected_hash("lock_sweep", unrecorded) is None
    assert bench.verify("lock_sweep", unrecorded, [{"hash": "0" * 64}]) == []
    assert bench.verify("lock_sweep", unrecorded,
                        [{"hash": "0" * 64}, {"hash": "1" * 64}])


def test_every_workload_has_recorded_hashes():
    for name in wl.WORKLOADS:
        for seed in bench.RECORDED_SEEDS:
            assert bench.expected_hash(name, seed), (name, seed)


def test_recorded_hash_matches_a_fresh_run(tmp_path):
    scns = wl.inputs("falselock", bench.DEFAULT_SEED)
    with wl.collect_runs() as runs:
        outcome = wl.execute("falselock", scns, tmp_path)
    assert not any(wl.check("falselock", runs, outcome))
    recorded = bench.expected_hash("falselock", bench.DEFAULT_SEED)
    assert wl.outputs_hash(runs) == recorded


def test_benchmark_json_names_what_the_parent_reports():
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: bench.END_TO_END[k][0] for k in bench.REPORTED}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
