"""Host-speed probe: what a unit of CPU time is worth right now.

The hosts this benchmark runs on are shared: the same fixed loop was
measured here at three discrete speed levels (38, 55 and 80 ns per
iteration) that each last from seconds to minutes, and every CPU-bound
number moves with them.  Measuring longer does not average that away;
measuring the host next to the workload does.

:func:`probe` times a fixed pure-Python loop on the calling thread's CPU
clock; it must run on the thread that does the work, while that thread
is warm.  A *calibrated* time is a raw time multiplied by
``NOMINAL_S / probe`` of the probes on either side of it
(:func:`scale`), i.e. expressed in milliseconds of a host on which the
probe takes :data:`NOMINAL_S`.  Only CPU-bound quantities are
calibrated (see README, *Calibration*): a latency that mostly waits on
fixed timers is not proportional to host speed.
"""

from __future__ import annotations

import time

#: Loop iterations timed by one probe; as many again run first, untimed,
#: so a thread that just woke up is measured at speed.  Small on purpose:
#: on the store workloads the probe runs on the server's loop thread, and
#: 8 ms (16 at the slow level) is far inside the 160 ms failure-detection
#: timeout where 60 ms was not comfortably so.
ITERATIONS = 100_000

#: Probe time at this host's fastest level when the benchmark was defined
#: (36.5 ns per iteration); calibrated numbers are "ms on such a host".
NOMINAL_S = ITERATIONS * 36.5e-9


def _loop(n: int) -> int:
    x = 0
    for i in range(n):
        x += i
    return x


def probe() -> float:
    """Thread-CPU seconds the fixed loop takes right now."""
    _loop(ITERATIONS)
    t0 = time.thread_time()
    _loop(ITERATIONS)
    return time.thread_time() - t0


def scale(before: float, after: float) -> float:
    """Factor that turns a raw CPU-bound time measured between two probes
    into calibrated time."""
    return NOMINAL_S / ((before + after) / 2.0)


class Stopwatch:
    """Calibrated wall and CPU time of in-process, CPU-bound work.

    The work is cut into chunks by :meth:`lap`; each chunk is scaled by
    the probes on either side of it and added to the totals.  Time spent
    probing is not counted.
    """

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.raw_wall_s = 0.0
        self._probe = probe()
        self._restart()

    def _restart(self) -> None:
        self._cpu0 = time.process_time()
        self._t0 = time.perf_counter()

    def lap(self, min_s: float = 0.0) -> None:
        """Close the running chunk (unless it is shorter than ``min_s``)."""
        wall = time.perf_counter() - self._t0
        if wall < min_s:
            return
        cpu = time.process_time() - self._cpu0
        after = probe()
        factor = scale(self._probe, after)
        self.wall_s += wall * factor
        self.cpu_s += cpu * factor
        self.raw_wall_s += wall
        self._probe = after
        self._restart()
