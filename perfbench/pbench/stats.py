"""Summary statistics with the benchmark's sampling rules.

Kept free of any import from the program under test, so the numbers the
benchmark reports never depend on the code being measured.

* A percentile is reported only when at least :data:`MIN_TAIL` samples
  lie beyond it (nearest-rank definition), so p95 needs 200 samples.
* Open-loop latency runs from the time a request was *due*, not from
  when the generator managed to send it, so a stall also charges the
  requests queued behind it.
* A failed request has infinite latency: it misses any limit.
"""

from __future__ import annotations

import math

#: Samples that must lie beyond a reported percentile.
MIN_TAIL = 10

FAILED = math.inf


class InsufficientSamples(ValueError):
    """Too few samples to report the requested percentile."""


def tail_count(n: int, p: float) -> int:
    """Samples strictly beyond the nearest-rank ``p``-th percentile of
    ``n`` samples."""
    return n - max(1, math.ceil(p / 100.0 * n))


def min_samples(p: float) -> int:
    """Smallest sample count whose ``p``-th percentile is supported."""
    n = 1
    while tail_count(n, p) < MIN_TAIL:
        n += 1
    return n


def percentile(values, p: float) -> float:
    """Nearest-rank ``p``-th percentile; raises
    :class:`InsufficientSamples` unless :data:`MIN_TAIL` samples lie
    beyond it. The median (``p <= 50``) is always supported."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise InsufficientSamples("no samples")
    if p > 50 and tail_count(n, p) < MIN_TAIL:
        raise InsufficientSamples(
            f"p{p:g} of {n} samples has {tail_count(n, p)} beyond it "
            f"(need {MIN_TAIL}, i.e. {min_samples(p)} samples)")
    return float(ordered[max(1, math.ceil(p / 100.0 * n)) - 1])


def median(values) -> float:
    return percentile(values, 50)


def due_latencies(due, done, ok) -> list[float]:
    """Per-request latency measured from the due time; a failed request
    (``ok`` false) gets :data:`FAILED`."""
    return [d1 - d0 if good else FAILED
            for d0, d1, good in zip(due, done, ok)]


def spread(values) -> float:
    """Inter-quartile range over the median (``statistics.quantiles``
    with n=4), the run-to-run stability figure."""
    import statistics

    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
