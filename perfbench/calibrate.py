"""Fixed reference kernel that samples the machine's current speed.

The kernel never touches galpha.  One pass takes a few milliseconds and is
made of parts, each a kind of work the workloads do: Python bytecode, small
numpy calls, stacked 3x3 eigenvalues, LAPACK on a 100x100 matrix and
formatting floats into text.  Its inputs take well under 1 MB.  A pass runs
the parts that match the work of the workload at hand.

:class:`Sampler` runs a pass every few tens of milliseconds while a workload
iteration runs, so the passes see the machine in the states its calls saw.
``worker.py`` rescales a call's time by the reference time of the parts over
their median time in the passes during (or nearest to) that call.
"""

from __future__ import annotations

import io
import signal
from time import perf_counter

import numpy as np

#: Median time of each part, in seconds, on a 2-vCPU x86-64 VM (Python 3.11,
#: numpy 2 on OpenBLAS, one BLAS thread).  They define the reference speed.
REFERENCE_S = {
    "python": 0.0012,
    "small_numpy": 0.0013,
    "stacked_eig": 0.0017,
    "dense_solve": 0.0013,
    "format": 0.0012,
}


class Kernel:
    """The reference kernel and its fixed inputs."""

    def __init__(self):
        rng = np.random.default_rng(20190214)
        self.small = rng.standard_normal((3, 3))
        self.stack = rng.standard_normal((450, 3, 3))
        self.dense = rng.standard_normal((100, 100)) + 100.0 * np.eye(100)
        self.rhs = rng.standard_normal(100)
        self.rows = rng.standard_normal((9, 100))

    def _python(self):
        acc = 0.0
        for i in range(9_000):
            acc += (i * 0.5) % 7.0

    def _small_numpy(self):
        m = self.small
        for _ in range(180):
            m = np.abs(m @ self.small) / (1.0 + np.abs(m).max())

    def _stacked_eig(self):
        np.linalg.eigvals(self.stack)

    def _dense_solve(self):
        for _ in range(9):
            np.linalg.solve(self.dense, self.rhs)

    def _format(self):
        out = io.StringIO()
        for row in self.rows:
            out.write(",".join(repr(float(x)) for x in row))
            out.write("\n")

    def run(self, parts) -> dict[str, float]:
        """Seconds each of the named parts took in one pass of the kernel."""
        times = {}
        for name in parts:
            part = getattr(self, "_" + name)
            t0 = perf_counter()
            part()
            times[name] = perf_counter() - t0
        return times


class Sampler:
    """Runs kernel passes from a ``SIGALRM`` handler every ``interval`` seconds.

    It stands in for ``workloads.clock`` while an iteration runs.  ``now()``
    is ``perf_counter()`` minus the time spent in passes, so timed calls
    leave the passes out.  Each pass is stamped with ``now()`` at its start,
    and each timed call's interval is kept on the same scale.
    """

    def __init__(self, kernel: Kernel, parts, interval: float):
        self.kernel, self.parts, self.interval = kernel, parts, interval
        self.spent = 0.0
        self.samples: list[tuple[float, dict[str, float]]] = []
        self.calls: list[tuple[float, float]] = []
        self._busy = False
        self._previous = None

    def now(self) -> float:
        return perf_counter() - self.spent

    def record(self, start: float, end: float) -> None:
        self.calls.append((start, end))

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that arrives during a pass is dropped
            return
        self._busy = True
        t0 = perf_counter()
        times = self.kernel.run(self.parts)
        self.samples.append((t0 - self.spent, times))
        self.spent += perf_counter() - t0
        self._busy = False

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
