"""Slot-weighted statistics of one run.

Every op belongs to a slot of its workload's round template.  Each op is
weighted by one over the number of ops run from its slot, so every slot
counts once: a run that stops part-way through a round reports the
figures of the workload's fixed op mix, not of the rounds' prefix.
"""

from __future__ import annotations

from collections import Counter

#: a percentile is reported only when at least this many samples lie beyond it
MIN_TAIL = 10


def slot_weights(slots) -> list[float]:
    counts = Counter(slots)
    return [1.0 / counts[s] for s in slots]


def weighted_quantile(values, weights, q: float) -> float:
    """Smallest value whose cumulative weight reaches the share q."""
    if not values:
        raise ValueError("no samples")
    pairs = sorted(zip(values, weights))
    target = q * sum(weights)
    acc = 0.0
    for value, weight in pairs:
        acc += weight
        if acc >= target * (1 - 1e-12):
            return value
    return pairs[-1][0]


def tail_count(values, threshold: float) -> int:
    """Number of samples strictly beyond a percentile value."""
    return sum(1 for v in values if v > threshold)


def tail_ok(values, threshold: float, min_tail: int = MIN_TAIL) -> bool:
    return tail_count(values, threshold) >= min_tail


def summarize(slots, latencies, ok) -> dict:
    """The latency and outcome figures of one run (latencies in seconds)."""
    w = slot_weights(slots)
    total = sum(w)
    mean = sum(wi * t for wi, t in zip(w, latencies)) / total
    p50 = weighted_quantile(latencies, w, 0.5)
    p90 = weighted_quantile(latencies, w, 0.9)
    return {
        "ops": len(latencies),
        "ops_per_s": 1.0 / mean,
        "op_p50_ms": 1e3 * p50,
        "op_p90_ms": 1e3 * p90,
        "p90_tail": tail_count(latencies, p90),
        "ok_ratio": sum(wi for wi, good in zip(w, ok) if good) / total,
    }
