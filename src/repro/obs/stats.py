"""Summary statistics for experiment results (pure Python, no numpy).

The workloads and the benchmark harness report mean/percentile delay and
jitter; keeping the math here self-contained makes the library
dependency-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence

__all__ = ["percentile", "SummaryStats", "summarize", "DelayRecorder"]


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile; ``fraction`` in [0, 1]."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1]: {fraction}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    lower = int(math.floor(position))
    upper = int(math.ceil(position))
    if lower == upper:
        return ordered[lower]
    weight = position - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


@dataclass(frozen=True)
class SummaryStats:
    """Five-number-style summary of one metric."""

    count: int
    mean: float
    stdev: float
    minimum: float
    p50: float
    p95: float
    p99: float
    maximum: float

    def scaled(self, factor: float) -> "SummaryStats":
        """A copy with every value multiplied (e.g. seconds -> ms)."""
        return SummaryStats(
            count=self.count,
            mean=self.mean * factor,
            stdev=self.stdev * factor,
            minimum=self.minimum * factor,
            p50=self.p50 * factor,
            p95=self.p95 * factor,
            p99=self.p99 * factor,
            maximum=self.maximum * factor,
        )


_EMPTY = SummaryStats(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def summarize(values: Iterable[float]) -> SummaryStats:
    """Build a :class:`SummaryStats`; empty input gives all zeros."""
    data: List[float] = list(values)
    if not data:
        return _EMPTY
    count = len(data)
    mean = sum(data) / count
    if count > 1:
        variance = sum((value - mean) ** 2 for value in data) / (count - 1)
    else:
        variance = 0.0
    return SummaryStats(
        count=count,
        mean=mean,
        stdev=math.sqrt(variance),
        minimum=min(data),
        p50=percentile(data, 0.50),
        p95=percentile(data, 0.95),
        p99=percentile(data, 0.99),
        maximum=max(data),
    )


class DelayRecorder:
    """Collects per-message delays (seconds)."""

    def __init__(self) -> None:
        self.delays: List[float] = []

    def record(self, delay: float) -> None:
        self.delays.append(delay)

    def record_message(self, message) -> None:
        if message.delay is not None:
            self.delays.append(message.delay)

    def summary(self) -> SummaryStats:
        return summarize(self.delays)

    def jitter(self) -> float:
        """Mean absolute successive delay difference."""
        if len(self.delays) < 2:
            return 0.0
        diffs = [
            abs(b - a) for a, b in zip(self.delays, self.delays[1:])
        ]
        return sum(diffs) / len(diffs)
