#!/usr/bin/env python3
"""Sampling profile of one benchmark workload, run in this process.

    python3 bench/sample_profile.py steady_130nm
    python3 bench/sample_profile.py falselock --seed 3 --repeats 2

Builds the workload's inputs from ``perfbench/workloads.py`` (loaded as
``bench/check_hashes.py`` loads it), then runs ``execute`` ``--repeats``
times while a ``signal.setitimer(ITIMER_PROF)`` timer interrupts the
process every 0.5 ms of CPU time and records the Python stack.  No tracer
wraps any call, so the shares are not inflated by per-call overhead.
The kernel delivers the ticks at its own clock granularity, which may be
coarser than the interval asked for, so the CPU time sampled is printed
with the sample count.  Then follows one row per function: its self share
(the samples it was running in) and its inclusive share (the samples it
was on the stack in, counted once however deep it recurses), sorted by
self share.  A function is named ``file:first line qualified name``; the
generated constructors of all NamedTuples share the row
``<string>:1 <lambda>``.
"""

from __future__ import annotations

import argparse
import signal
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from check_hashes import load_workloads  # noqa: E402

INTERVAL_S = 0.0005
ROOT = Path(__file__).resolve().parent.parent


def sample(fn, interval: float = INTERVAL_S) -> list[tuple]:
    """Call ``fn()`` under a CPU-time interval timer; returns one stack per
    sample, each a tuple of code objects from the innermost frame out."""
    stacks: list[tuple] = []

    def on_tick(signum, frame):
        codes = []
        while frame is not None:
            codes.append(frame.f_code)
            frame = frame.f_back
        stacks.append(tuple(codes))

    previous = signal.signal(signal.SIGPROF, on_tick)
    signal.setitimer(signal.ITIMER_PROF, interval, interval)
    try:
        fn()
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, previous)
    # A tick that lands in the handler itself holds no program frame.
    return [s for s in stacks if s and s[0] is not on_tick.__code__]


def label(code) -> str:
    """``file:first line qualified name``, the file relative to the repo."""
    path = Path(code.co_filename)
    try:
        name = str(path.relative_to(ROOT))
    except ValueError:
        name = path.name
    return f"{name}:{code.co_firstlineno} {code.co_qualname}"


def shares(stacks: list[tuple]) -> list[tuple[str, float, float]]:
    """(function, self share, inclusive share) per function label seen, by
    falling self share, then falling inclusive share."""
    n = len(stacks)
    labelled = [[label(c) for c in s] for s in stacks]
    own = Counter(s[0] for s in labelled)
    incl = Counter(f for s in labelled for f in set(s))
    rows = [(f, own[f] / n, incl[f] / n) for f in incl]
    rows.sort(key=lambda r: (-r[1], -r[2], r[0]))
    return rows


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=1)
    args = ap.parse_args(argv)
    workloads = load_workloads()
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    scns = workloads.inputs(args.workload, args.seed)
    with tempfile.TemporaryDirectory() as out:
        def repeats():
            for _ in range(args.repeats):
                workloads.execute(args.workload, scns, Path(out))
        cpu = time.process_time()
        stacks = sample(repeats)
        cpu = time.process_time() - cpu
    print(f"{len(stacks)} samples over {cpu:.2f} s of CPU time (timer "
          f"interval {INTERVAL_S * 1e3:g} ms): {args.workload} seed "
          f"{args.seed}, {args.repeats} repeat(s)")
    if not stacks:
        return 1
    print(f"{'self':>7} {'incl':>7}  function")
    for name, own, incl in shares(stacks):
        print(f"{own:7.1%} {incl:7.1%}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
