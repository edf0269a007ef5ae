"""Host-speed probe: rescales measured time to a fixed reference speed.

The benchmark runs on a shared host whose per-core speed drifts by up to
±30% over spans of seconds to minutes.  CPU time follows wall time, so it
removes none of that drift.  This probe samples the speed while the program
runs: a SIGALRM interval timer fires every PERIOD_S of wall time, and the
handler times a fixed reference loop (REF_SIZE^2 cell updates of a
lexicographic relaxation sweep, the same kind of interpreter work as the
pure-Python kernels).  Each sample gives the host's speed at that moment as
REF_SECONDS / sample; the probe reports the mean speed over any stretch of
samples.

`clock()` is perf_counter minus the time spent inside the handler, so the
probe's own work is never charged to the program.  A stretch of program
time t measured with `clock()` is reported as t * speed, the time it would
have taken at the reference speed.  The handler runs between bytecodes of
the main thread only; the program is not otherwise touched.  The reference
loop and its constants live here, not in the program, so a change to the
program cannot move the reference.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.02
REF_SIZE = 12
# Time of one reference loop on a quiet core of the machine the first
# numbers were taken on; defines the reference speed of 1.0.
REF_SECONDS = 3.0e-4
# Untimed loops before the first sample, so the interpreter has specialized
# the reference loop's bytecode.
WARMUP_LOOPS = 20

_U = np.linspace(0.0, 1.0, (REF_SIZE + 2) ** 2).reshape(REF_SIZE + 2, REF_SIZE + 2)
_C = np.full((REF_SIZE, REF_SIZE), 4.0)


def reference_loop() -> float:
    """One fixed relaxation sweep that writes nothing; returns its largest update."""
    u, c = _U, _C
    omega = 1.5
    maxupd = 0.0
    for i in range(REF_SIZE):
        for j in range(REF_SIZE):
            s = 0.25 * (u[i + 2, j + 1] + u[i, j + 1] + u[i + 1, j + 2] + u[i + 1, j])
            unew = (1.0 - omega) * u[i + 1, j + 1] + omega * ((1.0 - s) / c[i, j])
            upd = unew - u[i + 1, j + 1]
            if upd < 0.0:
                upd = -upd
            if upd > maxupd:
                maxupd = upd
    return maxupd


class SpeedProbe:
    """Samples host speed on a wall-clock interval timer while started."""

    def __init__(self, period: float = PERIOD_S) -> None:
        self.period = period
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        for _ in range(WARMUP_LOOPS):
            reference_loop()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def __enter__(self) -> "SpeedProbe":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def clock(self) -> float:
        """perf_counter without the time spent in the probe's handler."""
        return time.perf_counter() - self.spent

    def mark(self) -> int:
        return len(self.samples)

    def speed(self, since: int = 0, until: int | None = None) -> float:
        """Mean host speed relative to the reference over samples[since:until]."""
        window = self.samples[since:until]
        if not window:
            raise RuntimeError("no speed samples in the measured stretch")
        return statistics.fmean(REF_SECONDS / s for s in window)
