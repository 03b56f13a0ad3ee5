"""A gauge of how fast this core runs at the moment.

The cores of the machine the benchmark was built on switch between two
speeds for seconds at a time, most likely as its neighbours' load comes and
goes: a fixed loop takes up to 1.8 times as long in the slow state as in the
fast one, in CPU time as much as in wall time.  So the benchmark times a
fixed pure-Python loop (`gauge`) while the work runs and reports every time
scaled to the loop's reference duration: the time the work would have taken
had the loop run in REFERENCE_S.
"""

from __future__ import annotations

import signal
from dataclasses import dataclass
from fractions import Fraction
from time import process_time

SAMPLE_ITERATIONS = 300
REFERENCE_S = 0.004  # CPU time of one gauge at the reference speed
SAMPLE_EVERY_S = 0.1


@dataclass(frozen=True)
class _Element:
    group: str
    payload: tuple


def gauge() -> float:
    """CPU seconds of a fixed loop with dergrade's instruction mix: frozen
    dataclass values keyed in dicts, tuple building, Fraction arithmetic.
    It calls nothing of dergrade.  Of the loops tried, its time moved most
    nearly as much as dergrade's own between the two speeds."""
    start = process_time()
    acc = {}
    zero = Fraction(0)
    for i in range(SAMPLE_ITERATIONS):
        p = tuple((j * 7 + i) % 11 for j in range(6))
        e = _Element("g", p)
        acc[e] = acc.get(e, zero) + Fraction(i % 5 - 2, i % 3 + 1)
        q = tuple(p[p[j] % 6] for j in range(6))
        acc[_Element("g", q)] = acc.get(e, zero) * 3
    return process_time() - start


class Speedometer:
    """Samples `gauge` every SAMPLE_EVERY_S of wall time from a SIGALRM
    handler while it is entered.

    `mark()` starts timing a piece of work; `scaled(mark)` returns its CPU
    time, less the time spent sampling, at the reference speed, using the
    samples taken while it ran (or the last one before, for work shorter than
    the sampling period).
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _on_alarm(self, signum, frame):
        self._sample()

    def _sample(self):
        start = process_time()
        self.samples.append(gauge())
        self.spent += process_time() - start

    def factor(self) -> float:
        """Reference speed over the mean speed of every sample so far."""
        return REFERENCE_S * len(self.samples) / sum(self.samples)

    def mark(self):
        return process_time(), self.spent, len(self.samples)

    def scaled(self, mark) -> float:
        cpu0, spent0, n0 = mark
        cpu = process_time() - cpu0 - (self.spent - spent0)
        during = self.samples[n0:] or self.samples[-1:]
        return cpu * REFERENCE_S * len(during) / sum(during)
