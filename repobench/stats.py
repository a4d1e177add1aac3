"""Order statistics the benchmark reports: nearest-rank percentiles, the
tail rule, medians and geometric means.

Failed requests enter latency samples as ``math.inf``, so every function
here accepts infinities and sorts them last.
"""

from __future__ import annotations

import math

#: Percentiles the tail rule may report, lowest first.
TAIL_CANDIDATES = (90.0, 99.0, 99.9, 99.99)

#: A tail percentile is reported only with at least this many samples
#: beyond it.
TAIL_MIN_BEYOND = 10


def percentile(samples, p):
    """Nearest-rank percentile: the smallest sample with at least ``p``% of
    the samples at or below it."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must be in (0, 100]; got {p}")
    ordered = sorted(samples)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def median(samples):
    """The nearest-rank 50th percentile (always an observed sample)."""
    return percentile(samples, 50.0)


def tail(samples):
    """``(p, value, beyond)`` for the highest candidate percentile with at
    least :data:`TAIL_MIN_BEYOND` samples beyond it, or ``None`` when even
    the lowest candidate lacks them."""
    best = None
    for p in TAIL_CANDIDATES:
        value = percentile(samples, p)
        beyond = sum(1 for sample in samples if sample > value)
        if beyond < TAIL_MIN_BEYOND:
            break
        best = (p, value, beyond)
    return best


def tail_text(samples):
    """:func:`tail` of latencies in seconds, rendered in ms with its sample
    counts, for a report line."""
    found = tail(samples)
    if found is None:
        return f"n/a(n={len(samples)})"
    p, value, beyond = found
    return f"p{p:g}={value * 1e3:.4g}ms(n={len(samples)},beyond={beyond})"


def geomean(values):
    """Geometric mean of positive values."""
    values = list(values)
    if not values or any(value <= 0 for value in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(value) for value in values) / len(values))

