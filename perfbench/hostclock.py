"""A fixed numpy kernel timed every quarter second during each solve.

The host this benchmark runs on changes speed by a third or more within
seconds and from minute to minute, for reasons outside the process. The
kernel does the same kinds of work as the workloads (a matrix-vector pair on
a 1000 x 200 matrix, clipped small-vector updates, an elementwise pass over a
400 x 300 matrix), so the ratio of a solve's time per operation to the
kernel's time at the same moments is far steadier than either time alone.
``to_reference`` turns such a ratio back into seconds: seconds of a host on
which the kernel takes ``KERNEL_REF_S``, its median on the 2-vCPU Intel Xeon
virtual machine the benchmark was defined on.

An interval timer raises SIGALRM; Python runs the handler, and so the kernel,
in the main thread between two bytecodes of the solve. The time the kernel
takes inside a solve is booked in ``spent`` and taken off the solve's time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

SAMPLE_EVERY_S = 0.25
KERNEL_REF_S = 1.6e-3


def to_reference(seconds, kernel_s):
    """``seconds`` measured while the kernel took ``kernel_s``, as seconds
    of the reference host."""
    return seconds * KERNEL_REF_S / kernel_s


class HostClock:
    def __init__(self):
        rng = np.random.default_rng(20240817)
        self.K = rng.standard_normal((1000, 200))
        self.u, self.p = rng.standard_normal(200), rng.standard_normal(1000)
        self.k, self.v, self.q = rng.standard_normal((200, 40)), rng.standard_normal(40), rng.standard_normal(200)
        self.A, self.X, self.Y = (
            rng.standard_normal((400, 300)), rng.standard_normal((400, 10)), rng.standard_normal((10, 300)),
        )
        self.samples = []
        self.spent = 0.0  # seconds of sampling inside the current solve
        self._saved_handler = None

    def _kernel(self):
        for _ in range(4):
            self.K @ self.u
            self.K.T @ self.p
            for _ in range(4):
                z = np.clip(self.q + 0.5 * (self.k @ self.v), -1.0, 1.0)
                self.v - 0.5 * (self.k.T @ z)
        R = self.A - self.X @ self.Y
        return float((R * R).sum())

    def sample(self):
        """Run and time the kernel once; returns its seconds."""
        t = time.perf_counter()
        self._kernel()
        dt = time.perf_counter() - t
        self.samples.append(dt)
        return dt

    def _on_alarm(self, signum, frame):
        self.spent += self.sample()

    def begin(self):
        """Before a solve: forget the last one's samples, take one now, and
        start the timer."""
        self.samples, self.spent = [], 0.0
        self.sample()
        self._saved_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def end(self):
        """Right after a solve: stop the timer."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._saved_handler)

    def median(self):
        """Take one more sample; the median kernel time around the solve."""
        self.sample()
        return statistics.median(self.samples)
