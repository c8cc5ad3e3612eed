"""How fast this process is running right now.

On a small shared virtual machine the same pass can take 25% more or less
time from one minute to the next, because the host lends the virtual CPU
more or less of a physical core.  The probe measures that: while it is
started, a SIGALRM handler times a fixed chunk of pure-Python work every
INTERVAL_S of wall time.  A time measured while the probe ran, minus the
probe's own time, times REF_S / (mean chunk time), is that time at the
reference speed, at which the chunk takes REF_S.  Machine speed moves the
chunk and the program alike; the program moves the chunk only through the
caches they share (within 9% across the benchmark's workloads).

The chunk mixes three kinds of interpreter work in about equal parts:
float arithmetic, a walk through a list larger than the CPU caches, and
method calls with math.cos.  Each alone tracks some workloads and misses
others (arithmetic alone left a 14% spread on rotation products, against
44% raw); the mix tracked all of them within about 5% per pass.

Standard library only: the set-up probe imports it before polyfil.
"""

from __future__ import annotations

import math
import signal
import time

INTERVAL_S = 0.005
REF_S = 100e-6
_ARITH = 700
_WALK = 1500
_CALLS = 200
_DATA_LEN = 200_000


class _Point:
    def __init__(self) -> None:
        self.v = 1.0

    def f(self, x: float) -> float:
        return self.v * x + 1.0


class SpeedProbe:
    """Samples chunk times between :meth:`start` and :meth:`stop`."""

    def __init__(self) -> None:
        start = time.perf_counter()
        self._data = [float(i) for i in range(_DATA_LEN)]
        self._f = _Point().f
        self._offset = 0
        self.samples: list[float] = []
        self.build_s = time.perf_counter() - start  # making the list above
        self._previous = None

    def _chunk(self) -> float:
        acc = 0.0
        for i in range(_ARITH):
            acc += i * 0.5
        start = self._offset
        self._offset = (start + _WALK) % (_DATA_LEN - _WALK)
        for x in self._data[start:start + _WALK]:
            acc += x
        f = self._f
        for i in range(_CALLS):
            acc += f(i) + math.cos(i)
        return acc

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        self._chunk()
        self.samples.append(time.perf_counter() - start)

    def start(self) -> None:
        self._handler(None, None)  # so there is always a sample
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def __enter__(self) -> "SpeedProbe":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def spent(self, since: int = 0) -> float:
        """Seconds the probe itself took, from sample ``since`` on."""
        return sum(self.samples[since:])

    def mean_chunk_s(self) -> float:
        return sum(self.samples) / len(self.samples)

    def to_reference(self, seconds: float) -> float:
        """``seconds``, measured while the probe ran, at the reference speed."""
        return seconds * REF_S / self.mean_chunk_s()
