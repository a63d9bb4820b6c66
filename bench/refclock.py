"""Reference seconds: CPU time corrected for the speed of a shared host.

On a shared machine the CPU time of a fixed piece of work is not fixed:
when other tenants load the host, the same op can take up to twice the
CPU time for minutes at a stretch.  Wall time varies more still.  The
benchmark therefore times a fixed kernel, written here and independent
of the program under test, just before every timed op, and reports

    reference seconds = CPU seconds * REF_KERNEL_S / kernel CPU seconds

with the kernel time taken as the median of its last ``WINDOW`` runs.
The kernel is what the program's ring spends its time on, a pure-Python
convolution of lists of 60-bit integers, so the two slow down together.
``REF_KERNEL_S`` is the kernel's CPU time on an idle core of the 2-CPU
machine the benchmark was tuned on, so there reference seconds are CPU
seconds.  A change to the program does not move the kernel; a change to
the kernel or to ``REF_KERNEL_S`` moves every time the benchmark reports.
"""

from __future__ import annotations

import random
import resource
import statistics
import time
from collections import deque

REF_KERNEL_S = 0.003
WINDOW = 5

_rng = random.Random("refclock kernel v1")
_A = [_rng.getrandbits(60) - (1 << 59) for _ in range(160)]
_B = [_rng.getrandbits(60) - (1 << 59) for _ in range(100)]


def kernel() -> list[int]:
    out = [0] * (len(_A) + len(_B) - 1)
    for i, a in enumerate(_A):
        for j, b in enumerate(_B):
            out[i + j] += a * b
    return out


def cpu_s(who=resource.RUSAGE_SELF) -> float:
    """User plus system CPU seconds of this process, or of its reaped
    children with ``resource.RUSAGE_CHILDREN``."""
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


class RefClock:
    """Converts CPU seconds of this process or its children to reference
    seconds, at the host speed of the last few calibrations."""

    def __init__(self):
        self.recent: deque[float] = deque(maxlen=WINDOW)
        self.speeds: list[float] = []
        for _ in range(WINDOW):
            self.calibrate()

    def calibrate(self) -> None:
        start = time.process_time()
        kernel()
        self.recent.append(time.process_time() - start)

    def speed(self) -> float:
        """Host speed now, relative to the idle tuning machine."""
        return REF_KERNEL_S / statistics.median(self.recent)

    def convert(self, cpu_s: float) -> float:
        speed = self.speed()
        self.speeds.append(speed)
        return cpu_s * speed
