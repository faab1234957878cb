"""Host speed reference for the benchmark's timings.

On a shared host the CPU speed a process gets drifts by tens of percent,
over seconds to minutes, and the process's CPU time drifts with its wall
time. So the benchmark times every case against a fixed reference
computation that uses nothing from the repo. The reference runs just
before and just after the case and, when probing, once every
PROBE_INTERVAL_S inside it, UNITS units each time. Each piece of the case
between two reference runs is scaled by UNIT_S over the mean of their
times per unit. A scaled time reads what the work would take at the speed
at which one reference unit takes UNIT_S, which is about its median on
the 2-core Xeon host with Python 3.11.7 that the baseline was measured on.

The drift does not slow every kind of work alike, so one reference unit
mixes the kinds the cases do, in four parts of roughly equal time:
interpreter-bound integer arithmetic, sums of small fractions in a dict,
products of integers with thousands of digits, and fraction-valued row
elimination.

Set-up is mostly process start and module loading, which drifts apart
from the speed of the reference unit. So a set-up probe, a child process,
is scaled instead by START_REFERENCE: a child that starts the interpreter,
loads standard-library modules and sums fractions, and takes about
START_REFERENCE_S on the same host.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

UNIT_S = 0.002
# Units per reference run, the same inside a stretch and around it: the
# first unit after other work runs on cold caches, so runs of different
# lengths would measure different speeds.
UNITS = 2
PROBE_INTERVAL_S = 0.1

# Run with ``python -c``; prints the monotonic clock, which Linux shares
# between processes, when it is done.
START_REFERENCE = (
    "import collections, dataclasses, fractions, hashlib, itertools, json, math, random, time\n"
    "sums = {}\n"
    "for i in range(4000):\n"
    "    key = (i % 97, i % 13)\n"
    "    sums[key] = sums.get(key, 0) + fractions.Fraction(i % 5 + 1, i % 9 + 1)\n"
    "print(time.monotonic_ns())\n"
)
START_REFERENCE_S = 0.085

_INT_TURNS = 6_000
_FRACTION_TURNS = 150
_BIG_TURNS = 2
_BIG = (3**4000, 7**3500, 11**3800)
_ELIMINATION_SIZE = 6


def reference_unit() -> None:
    """One unit of the reference computation."""
    acc = 0
    for i in range(_INT_TURNS):
        acc += i * i % 7
    sums: dict = {}
    for i in range(_FRACTION_TURNS):
        key = (i % 13, i % 7, i % 3)
        sums[key] = sums.get(key, 0) + Fraction(i % 5 + 1, i % 9 + 1)
    x, factor, modulus = _BIG
    for i in range(_BIG_TURNS):
        x = (x * factor + i) % modulus
    n = _ELIMINATION_SIZE
    rows = [
        [Fraction((3 * i + 7 * j) % 11 - 5, 1 + i * j % 4) + (40 if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    for c in range(n):
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]


def reference_s() -> float:
    """Wall seconds per unit of one reference run, made now."""
    t0 = time.perf_counter_ns()
    for _ in range(UNITS):
        reference_unit()
    return (time.perf_counter_ns() - t0) / 1e9 / UNITS


def scaled(seconds: float, before: float, after: float, nominal: float = UNIT_S) -> float:
    """Wall seconds scaled to the reference speed, from the reference times
    measured just before and just after them, whose nominal time is
    ``nominal``."""
    return seconds * nominal * 2 / (before + after)


class Stretch:
    """Times the work in a ``with`` block: ``wall_s`` without the inner
    reference runs, ``scaled_s``, and ``unit_after``, the reference time
    measured after it, which is the next stretch's ``unit_before``.

    With ``probe``, a reference run is made on SIGALRM every
    PROBE_INTERVAL_S inside the block. Signal handlers run between
    bytecodes of the main thread, so the work resumes unchanged."""

    def __init__(self, unit_before: float, probe: bool = False):
        self.unit_before = unit_before
        self.probe = probe
        self.marks: list[tuple[int, int, float]] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter_ns()
        unit = reference_s()
        self.marks.append((t0, time.perf_counter_ns(), unit))

    def __enter__(self) -> "Stretch":
        if self.probe:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> bool:
        if self.probe:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        end = time.perf_counter_ns()
        self.unit_after = reference_s()
        # (start, end, seconds per unit) of each reference run, in order.
        points = [(self._start, self._start, self.unit_before), *self.marks,
                  (end, end, self.unit_after)]
        self.wall_s = self.scaled_s = 0.0
        for (_, piece_start, unit_a), (piece_end, _, unit_b) in zip(points, points[1:]):
            piece = (piece_end - piece_start) / 1e9
            self.wall_s += piece
            self.scaled_s += scaled(piece, unit_a, unit_b)
        return False
