"""Machine-speed probe and calibrated seconds.

On a shared host the speed of a core drifts with its neighbours' load:
a fixed pure-Python loop runs anywhere from 1.1x to 1.8x its best time,
in stretches of several seconds. That swing is wider than any bound a
regression gate could use, so the benchmark times every operation twice
over: its wall-clock, and the probe loop right before and after it. An
operation's *calibrated* time is its wall-clock scaled by
``NOMINAL_S / probe``: what it would have taken at the nominal probe
speed. Both are reported; the end-to-end metrics use calibrated time.
Long stretches of work (set-up) are timed on a :class:`Clock` in laps,
each lap calibrated by its own probes, so the calibration follows the
drift through the stretch.
"""

from __future__ import annotations

import time

#: Probe time on an uncontended core of the reference host (2-vCPU
#: x86_64 VM, CPython 3.11), in seconds. A fixed constant, so that
#: calibrated seconds compare across runs.
NOMINAL_S = 0.000100


def _loop() -> int:
    total, table = 0, {}
    for i in range(1000):
        total += i * i
        table[i & 63] = total
    return total


def probe() -> float:
    """Best of three timings of the probe loop, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - t0)
    return best


def calibrated(seconds: float, before: float, after: float) -> float:
    """``seconds`` of wall-clock, bracketed by probe times ``before``
    and ``after``, at the nominal speed."""
    return seconds * NOMINAL_S / ((before + after) / 2)


class Clock:
    """Calibrated seconds of a long stretch of work, taken in laps.

    Each lap is bracketed by probes and calibrated on its own, so the
    calibration follows the machine's drift through the stretch; the
    time the probes themselves take is not counted."""

    def __init__(self):
        self.seconds = 0.0  # calibrated
        self.wall = 0.0
        self._probe = probe()
        self._t0 = time.perf_counter()

    def lap(self) -> None:
        """Close the current lap and start the next."""
        lap = time.perf_counter() - self._t0
        after = probe()
        self.seconds += calibrated(lap, self._probe, after)
        self.wall += lap
        self._probe = after
        self._t0 = time.perf_counter()
