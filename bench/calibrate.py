"""Interpreter-speed calibration.

The host's speed drifts: on a shared 2-vCPU Linux VM the same `compare` call
has measured anywhere from 3 to 6 ms, and the speed changes within a second,
so a calibration taken before or after a multi-second call misses it. While
the benchmark measures, a ``Sampler`` therefore interrupts the process every
``INTERVAL`` seconds (SIGALRM, no threads) and times a fixed burst of a
pure-Python chunk. Each call's time is scaled by the speed the bursts ran at
during the call (or, for a call shorter than the interval, the latest burst):

    scaled = (measured - time spent in bursts) * (burst rate / NOMINAL_RATE)

so a timing reads as seconds on a host that runs the chunk at
``NOMINAL_RATE`` chunks per second. The chunk is bench code and never
changes with the package, so a faster package still reads faster. It mixes
the package's kinds of work: small frozen dataclasses, float arithmetic and
``math.fsum``, dict lookups and number formatting.
"""

from __future__ import annotations

import math
import signal
import time
from dataclasses import dataclass

# Chunks per second on the reference host (a shared 2-vCPU Linux VM, Python
# 3.11). Only a scale: it cancels in every comparison.
NOMINAL_RATE = 12500.0
INTERVAL = 0.02  # seconds between bursts
BURST = 12  # chunks per burst, about 1 ms


@dataclass(frozen=True)
class _Row:
    i: int
    x: float
    y: float


def chunk() -> float:
    rows = [_Row(i, i * 0.25, math.sqrt(i + 1.0)) for i in range(48)]
    index = {row.i: row for row in rows}
    total = math.fsum(index[j].y - index[j].x * 0.5 for j in range(0, 48, 2))
    text = " ".join(f"{row.y:.12g}" for row in rows[:12])
    return total + len(text)


class Sampler:
    """Context manager that runs a timed burst every INTERVAL seconds."""

    def __init__(self) -> None:
        self.busy = 0.0  # seconds spent in bursts
        self.chunks = 0
        self.last_rate = NOMINAL_RATE
        self._burst()

    def _burst(self, *_) -> None:
        start = time.perf_counter()
        for _ in range(BURST):
            chunk()
        elapsed = time.perf_counter() - start
        self.busy += elapsed
        self.chunks += BURST
        self.last_rate = BURST / elapsed

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._burst)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, int]:
        return self.busy, self.chunks

    def scale(self, measured: float, mark: tuple[float, int]) -> float:
        """``measured`` seconds, taken since ``mark``, without the bursts inside
        it and scaled to the nominal speed."""
        busy = self.busy - mark[0]
        chunks = self.chunks - mark[1]
        rate = chunks / busy if chunks else self.last_rate
        return (measured - busy) * rate / NOMINAL_RATE
