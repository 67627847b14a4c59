"""One measured repeat of one workload, in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED TRACE

Prints one JSON object as its last line.  ``setup_end`` is the
CLOCK_MONOTONIC reading (shared by all processes of the host) taken once
the workload's first ``Simulation`` is constructed, so the parent can time
set-up from the moment it started this process.  Everything before that
point, imports included, is set-up.  Untraced repeats run a host-speed
probe from the first line on; the time spent in it is reported so that
it can be subtracted from set-up and excluded from ``wall_s``.
"""

import contextlib
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback

from hostspeed import SpeedProbe


def main(name: str, seed: int, probe: SpeedProbe | None) -> dict:
    import workloads as wl
    from mesosync.harness import Simulation
    from tracer import Tracer

    scns = wl.inputs(name, seed)
    Simulation(scns[0])
    setup_end = time.monotonic()
    setup_probe_s = probe.spent if probe else 0.0

    workdir = wl.ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    outdir = tempfile.mkdtemp(prefix=f"{name}-", dir=workdir)
    tracer = None if probe else Tracer()
    error = None
    try:
        with wl.collect_runs() as runs, tracer or contextlib.nullcontext():
            spent = probe.spent if probe else 0.0
            t0 = time.perf_counter()
            try:
                outcome = wl.execute(name, scns, outdir)
            except Exception:
                error = traceback.format_exc(limit=5)
            wall = time.perf_counter() - t0
            if probe:
                probe.stop()
                wall -= probe.spent - spent
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if error is None:
        failures = wl.check(name, runs, outcome)
    else:
        failures = [[] for _ in runs] + [[error]]
    sim = wl.sim_metrics(runs)
    result = {
        "setup_end": setup_end,
        "setup_probe_s": setup_probe_s,
        "wall_s": wall,
        "peak_rss_mb": rss_mb,
        "runs": len(failures),
        "failed": sum(1 for bad in failures if bad),
        "failures": [bad for bad in failures if bad][:3],
        "hash": wl.outputs_hash(runs),
        "sim": sim,
    }
    if probe:
        result["host_speed"] = probe.speed()
        result["probes"] = len(probe.samples)
    else:
        result["layers"] = tracer.layer_metrics(wall, sim["cycles"])
        result["spans"] = tracer.spans
    return result


if __name__ == "__main__":
    name, seed, traced = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    print(json.dumps(main(name, seed, None if traced else SpeedProbe().start())))
