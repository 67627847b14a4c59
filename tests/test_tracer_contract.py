"""The benchmark's tracer patches mesosync names from outside the package.

A renamed or deleted name only shows up there as a KeyError inside a traced
benchmark run, so check every patch target here.  The tracer also sums the
transfer chain's spans and deliveries over all calls, which the simulation
relies on when it runs the chain in blocks.
"""

import importlib.util
from dataclasses import replace
from pathlib import Path

from mesosync import defaults_130nm, harness, run

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_patch_target_resolves():
    tracer = _load_tracer()
    assert tracer.PATCHES
    missing = []
    for _, owner, attr, _ in tracer.PATCHES:
        try:
            tracer.original_attr(tracer.resolve(owner), attr)
        except (AttributeError, KeyError, ImportError):
            missing.append(f"{owner}.{attr}")
    assert missing == []


def test_tracer_sees_every_transfer_block():
    # The transfer chain runs in blocks during the simulation; the tracer
    # sums its spans and deliveries over the calls, so every detector event
    # but the last (it only re-times the one before) is counted once.
    tracer = _load_tracer()
    before = [
        tracer.original_attr(tracer.resolve(owner), attr)
        for _, owner, attr, _ in tracer.PATCHES
    ]
    scn = replace(defaults_130nm(), alpha=0.3, duration_us=3.0)
    with tracer.Tracer() as t:
        m = run(scn)
    after = [
        tracer.original_attr(tracer.resolve(owner), attr)
        for _, owner, attr, _ in tracer.PATCHES
    ]
    assert m.pd_event_count > 2 * harness._CDT_BLOCK
    assert t.extra["deliveries"] == m.pd_event_count - 1
    assert sum(1 for span in t.spans if span[0] == "cdt_transfer") > 1
    assert all(a is b for a, b in zip(before, after))
