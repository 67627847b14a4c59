"""Per-module tracing of mesosync from outside the package.

Each traced callable is replaced, for the duration of a ``Tracer`` block,
by a wrapper that times it.  A wrapper is installed where the caller looks
the name up: a function imported with ``from .x import f`` is patched in
the importing module, a method on its class.  Self time is a call's
duration minus the time of the traced calls made inside it, and is
attributed to the layer (module) that defines the callable, so the self
times of all layers add up to the time spent inside traced calls.

Hot leaf calls are aggregated into a count and a self time per callable,
which keeps memory flat however many millions of calls a run makes.  The
coarse calls (simulation set-up and run, transfer chain, oracle, output
writer) also record one span each: name, start, end and parent span.
"""

from __future__ import annotations

import importlib
import time
from pathlib import Path

# Per-layer metric -> unit, in report order.
LAYER_UNITS = {
    "link.bit_at_calls": "count",
    "link.transition_distance_calls": "count",
    "link.boundary_calls": "count",
    "link.bit_calls": "count",
    "link.calls_per_cycle": "calls/cycle",
    "link.self_s": "s",
    "timebase.edge_calls": "count",
    "timebase.self_s": "s",
    "phase_detector.sample_calls": "count",
    "phase_detector.metastable_share": "share",
    "phase_detector.self_s": "s",
    "fine_loop.pump_integrate_calls": "count",
    "fine_loop.vcdl_delay_calls": "count",
    "fine_loop.self_s": "s",
    "coarse_loop.fsm_step_calls": "count",
    "coarse_loop.ring_step_calls": "count",
    "coarse_loop.self_s": "s",
    "dll_cdt.cdt_transfer_s": "s",
    "dll_cdt.edge_calls": "count",
    "dll_cdt.missed_share": "share",
    "dll_cdt.self_s": "s",
    "oracle.calls": "count",
    "oracle.self_s": "s",
    "harness.init_s": "s",
    "harness.self_s": "s",
    "harness.self_s_per_cycle": "s/cycle",
    "scenario.self_s": "s",
    "reports.self_s": "s",
    "reports.bytes_written": "bytes",
    "trace.residual_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.cycles": "count",
}

LAYERS = ("link", "timebase", "phase_detector", "fine_loop", "coarse_loop",
          "dll_cdt", "oracle", "harness", "scenario", "reports")

# (layer, owner, attribute, span name or None for an aggregated leaf).
# The owner is "module" or "module:Class"; the attribute of a class may be
# a function or a property (its getter is traced).
PATCHES = (
    ("timebase", "mesosync.timebase:ClockGen", "edge", None),
    ("timebase", "mesosync.timebase:ClockGen", "first_edge_at_or_after", None),
    ("timebase", "mesosync.timebase:Rng", "coin", None),
    ("timebase", "mesosync.timebase:Rng", "gauss", None),
    ("timebase", "mesosync.harness", "derive_seed", None),
    ("timebase", "mesosync.fine_loop", "clamp_voltage", None),
    ("timebase", "mesosync.scenario", "period_fs", None),
    ("link", "mesosync.link:BitSource", "__init__", None),
    ("link", "mesosync.link:BitSource", "bit", None),
    ("link", "mesosync.link:RxWaveform", "__init__", None),
    ("link", "mesosync.link:RxWaveform", "boundary", None),
    ("link", "mesosync.link:RxWaveform", "bit_at", None),
    ("link", "mesosync.link:RxWaveform", "value_at", None),
    ("link", "mesosync.link:RxWaveform", "nearest_transition_distance", None),
    ("phase_detector", "mesosync.phase_detector:Sampler", "sample", None),
    ("phase_detector", "mesosync.phase_detector", "sample_comparator", None),
    ("phase_detector", "mesosync.harness", "alexander_step", None),
    ("fine_loop", "mesosync.harness", "pump_integrate", None),
    ("fine_loop", "mesosync.harness", "vcdl_delay", None),
    ("coarse_loop", "mesosync.harness", "fsm_step", None),
    ("coarse_loop", "mesosync.harness", "ring_step", None),
    ("coarse_loop", "mesosync.harness", "window_classify", None),
    ("coarse_loop", "mesosync.coarse_loop:RingCounter", "hot_index", None),
    ("dll_cdt", "mesosync.harness", "cdt_transfer", "cdt_transfer"),
    ("dll_cdt", "mesosync.dll_cdt:DllPhases", "__init__", None),
    ("dll_cdt", "mesosync.dll_cdt:DllPhases", "edge", None),
    ("dll_cdt", "mesosync.dll_cdt:DllPhases", "first_edge_after", None),
    ("oracle", "mesosync.oracle", "eye_center_phase", "oracle"),
    ("harness", "mesosync.harness:Simulation", "__init__", "init"),
    ("harness", "mesosync.harness:Simulation", "run", "run"),
    ("scenario", "mesosync.scenario:Scenario", "__init__", None),
    ("scenario", "mesosync.scenario:Scenario", "validate", None),
    ("scenario", "mesosync.scenario:Scenario", "window", None),
    ("scenario", "mesosync.scenario:Scenario", "vc_start", None),
    ("scenario", "mesosync.scenario:Scenario", "period", None),
    ("scenario", "mesosync.scenario:Scenario", "duration_fs", None),
    ("scenario", "mesosync.scenario", "load_scenario", None),
    ("scenario", "mesosync.scenario", "apply_settings", None),
    ("scenario", "mesosync.cli", "load_scenario", None),
    ("scenario", "mesosync.cli", "apply_settings", None),
    ("reports", "mesosync.cli", "write_outputs", "write_outputs"),
    ("reports", "mesosync.cli", "summary_items", None),
)


def resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def original_attr(obj, attr: str):
    """The attribute as stored on its owner (unbound function, property)."""
    return obj.__dict__[attr]


class Tracer:
    """Context manager that installs the wrappers and restores the originals.

    After the block, ``cells`` maps ``"layer.attr"`` to ``[calls, self_ns]``,
    ``spans`` lists ``(name, start_ns, end_ns, parent_index)`` and
    ``extra`` holds the counts the hooks take from arguments and results.
    """

    def __init__(self):
        self.cells: dict[str, list[int]] = {}
        self.spans: list = []
        self.extra = {"metastable": 0, "deliveries": 0, "missed": 0,
                      "bytes_written": 0}
        self._stack = [[0]]       # child-time accumulators; [0] is the root
        self._span_stack = [-1]
        self._undo: list = []

    def __enter__(self):
        hooks = {
            ("phase_detector", "sample"): self._hook_sample,
            ("dll_cdt", "cdt_transfer"): self._hook_cdt,
            ("reports", "write_outputs"): self._hook_write,
        }
        try:
            for layer, owner, attr, span in PATCHES:
                obj = resolve(owner)
                orig = original_attr(obj, attr)
                cell = self.cells.setdefault(f"{layer}.{attr}", [0, 0])
                hook = hooks.get((layer, attr))
                if isinstance(orig, property):
                    wrapped = property(self._wrap(orig.fget, cell, span, hook))
                else:
                    wrapped = self._wrap(orig, cell, span, hook)
                setattr(obj, attr, wrapped)
                self._undo.append((obj, attr, orig))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    def _wrap(self, fn, cell, span, hook):
        stack = self._stack
        clock = time.perf_counter_ns
        if span is None:
            def leaf(*args, **kwargs):
                child = [0]
                stack.append(child)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stack.pop()
                    cell[0] += 1
                    cell[1] += dt - child[0]
                    stack[-1][0] += dt
                if hook is not None:
                    hook(args, result)
                return result

            return leaf

        spans = self.spans
        span_stack = self._span_stack

        def spanned(*args, **kwargs):
            child = [0]
            stack.append(child)
            index = len(spans)
            spans.append(None)
            parent = span_stack[-1]
            span_stack.append(index)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                span_stack.pop()
                stack.pop()
                cell[0] += 1
                cell[1] += dt - child[0]
                stack[-1][0] += dt
                spans[index] = (span, t0, t1, parent)
            if hook is not None:
                hook(args, result)
            return result

        return spanned

    def _hook_sample(self, args, result):
        if args[0].last_was_metastable:
            self.extra["metastable"] += 1

    def _hook_cdt(self, args, deliveries):
        self.extra["deliveries"] += len(deliveries)
        self.extra["missed"] += sum(1 for d in deliveries if d.t_deliver <= 0)

    def _hook_write(self, args, result):
        out = Path(args[1])
        self.extra["bytes_written"] += sum(
            p.stat().st_size for p in out.iterdir() if p.is_file()
        )

    def layer_metrics(self, wall_s: float, cycles: int) -> dict[str, float]:
        """Per-layer counts and self times for a traced run of ``wall_s``."""
        def calls(key):
            return self.cells.get(key, [0, 0])[0]

        self_s = {layer: 0.0 for layer in LAYERS}
        layer_calls = {layer: 0 for layer in LAYERS}
        for key, (n, ns) in self.cells.items():
            layer = key.split(".", 1)[0]
            self_s[layer] += ns / 1e9
            layer_calls[layer] += n

        def span_s(name):
            return sum(t1 - t0 for n, t0, t1, _ in self.spans if n == name) / 1e9

        samples = calls("phase_detector.sample")
        deliveries = self.extra["deliveries"]
        traced = sum(self_s.values())
        per_cycle = max(cycles, 1)
        return {
            "link.bit_at_calls": calls("link.bit_at"),
            "link.transition_distance_calls":
                calls("link.nearest_transition_distance"),
            "link.boundary_calls": calls("link.boundary"),
            "link.bit_calls": calls("link.bit"),
            "link.calls_per_cycle": layer_calls["link"] / per_cycle,
            "link.self_s": self_s["link"],
            "timebase.edge_calls": calls("timebase.edge"),
            "timebase.self_s": self_s["timebase"],
            "phase_detector.sample_calls": samples,
            "phase_detector.metastable_share":
                self.extra["metastable"] / samples if samples else 0.0,
            "phase_detector.self_s": self_s["phase_detector"],
            "fine_loop.pump_integrate_calls": calls("fine_loop.pump_integrate"),
            "fine_loop.vcdl_delay_calls": calls("fine_loop.vcdl_delay"),
            "fine_loop.self_s": self_s["fine_loop"],
            "coarse_loop.fsm_step_calls": calls("coarse_loop.fsm_step"),
            "coarse_loop.ring_step_calls": calls("coarse_loop.ring_step"),
            "coarse_loop.self_s": self_s["coarse_loop"],
            "dll_cdt.cdt_transfer_s": span_s("cdt_transfer"),
            "dll_cdt.edge_calls": calls("dll_cdt.edge"),
            "dll_cdt.missed_share":
                self.extra["missed"] / deliveries if deliveries else 0.0,
            "dll_cdt.self_s": self_s["dll_cdt"],
            "oracle.calls": calls("oracle.eye_center_phase"),
            "oracle.self_s": self_s["oracle"],
            "harness.init_s": span_s("init"),
            "harness.self_s": self_s["harness"],
            "harness.self_s_per_cycle": self_s["harness"] / per_cycle,
            "scenario.self_s": self_s["scenario"],
            "reports.self_s": self_s["reports"],
            "reports.bytes_written": self.extra["bytes_written"],
            "trace.residual_s": wall_s - traced,
        }
