"""The benchmark's tracer patches mesosync names from outside the package.

A renamed or deleted name only shows up there as a KeyError inside a traced
benchmark run, so check every patch target here.
"""

import importlib.util
from pathlib import Path

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
