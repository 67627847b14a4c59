"""Host-speed probe: a fixed pure-Python loop timed every few milliseconds.

The vCPUs of a shared host alternate between full and reduced speed many
times a second, and the share of slow time drifts over minutes, so wall
times of identical work move by up to ~35 % between runs.  ``SpeedProbe``
runs ``probe_loop`` from a SIGALRM handler every ``PERIOD_S`` of wall time,
so its samples see the same host states as the code being timed.  The loop
has the simulator's instruction mix (integer arithmetic, a heap,
dict and list updates) but none of its code: dividing a time by the mean
probe time removes the host's drift and nothing a program change does.
"""

from __future__ import annotations

import heapq
import signal
import time

PERIOD_S = 0.02
# probe_loop() time on an uncontended core of the 2-vCPU Xeon (Sapphire
# Rapids, KVM) the benchmark was tuned on; normalized times are scaled to it.
NOMINAL_S = 0.00045


def probe_loop(n: int = 800) -> int:
    heap: list = []
    counts: dict = {}
    acc = x = 1
    for i in range(n):
        x = (0x9E3779B1 * x + 12345) & 0xFFFFFFFF
        heapq.heappush(heap, x & 0xFFFF)
        if len(heap) > 32:
            acc += heapq.heappop(heap)
        counts[x & 255] = counts.get(x & 255, 0) + 1
        acc ^= [x, i, acc][0] >> 3
    return acc


class SpeedProbe:
    """Samples the host speed from a timer while the process runs.

    ``spent`` is the total time spent inside probes, to be subtracted from
    any interval the probes interrupted; ``speed()`` is ``NOMINAL_S`` over
    the mean probe time (1.0 on an uncontended host, less when slowed).
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _probe(self, signum, frame):
        t0 = time.perf_counter()
        probe_loop()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def start(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self) -> float:
        return NOMINAL_S * len(self.samples) / sum(self.samples)
