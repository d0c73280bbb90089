"""Timing that corrects for the host's speed.

The benchmark runs on shared machines whose speed swings by up to 1.8x as
other tenants load the same cores.  The speed flips between a fast and a slow
state about once a second, and the share of slow time drifts over minutes, so
a time measured in a slow stretch reads slow however long the run.

``Timed`` therefore samples the host's speed while it times a block: a short
probe, a fixed pure-Python loop, runs before the block, every ``INTERVAL_S``
inside it (from a timer signal, in the same thread), and after it.  The time
spent in probes is taken out of the block's time, and ``scaled`` is that time
at the speed where a probe takes ``REFERENCE_S``:
``seconds * REFERENCE_S / mean(probe times)``.  The raw times are printed
beside the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
import time

# About the seconds of one probe on the machine the baseline was recorded on,
# where it took 1.3-1.6 ms; a constant, so that scaled times compare across
# runs and commits.
REFERENCE_S = 0.0016
INTERVAL_S = 0.1


def probe() -> float:
    """Seconds taken by a fixed loop of dict and integer operations."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(10_000):
        key = i % 997
        table[key] = table.get(key, 0) + i * i % 7
    return time.perf_counter() - start


class Timed:
    """Time a block, less the probes run inside it; see the module docstring.

    After the block, ``seconds`` is its time and ``scaled`` that time at the
    reference speed.  Not reentrant: it owns the process's SIGALRM timer.
    """

    def __enter__(self) -> Timed:
        self.samples = [probe()]
        self._probing = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(probe())
        self._probing += time.perf_counter() - start

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.seconds = time.perf_counter() - self._start - self._probing
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(probe())
        self.scaled = self.seconds * REFERENCE_S / statistics.fmean(self.samples)
