"""End-to-end observability for the DASH stack.

One :class:`Observability` object per :class:`~repro.sim.context.SimContext`
bundles the two instruments every layer shares:

- :attr:`Observability.metrics` -- a :class:`~repro.obs.registry.MetricsRegistry`
  that reads the layers' own counters on demand (each layer registers
  the stats object it already keeps, once, with ``metrics.watch``);
- :attr:`Observability.spans` -- a :class:`~repro.obs.spans.SpanTracer`
  recording per-message lifecycle events for delay decomposition.

Span sites pay a single attribute check when observability is off::

    obs = self.context.obs
    if obs.enabled:
        obs.spans.event(message.trace_id, "st", "tx")

Counting has no such sites: a counter is a plain attribute of its layer
whether or not anyone is watching.  An unobserved context holds a
:class:`NullObservability`: ``enabled`` is False, there is no tracer
(``spans`` is None), and ``metrics.watch`` keeps nothing.

The package also holds what workloads and benches summarise with:
:mod:`repro.obs.stats` (percentiles, :class:`SummaryStats`,
:class:`DelayRecorder`) and :mod:`repro.obs.report` (table rendering).
"""

from __future__ import annotations

from typing import Any, Dict

from repro.obs.export import (
    flight_recorder,
    metrics_payload,
    span_lines,
    write_metrics_json,
)
from repro.obs.linkutil import LinkUtilizationCollector, jain_fairness
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    families,
)
from repro.obs.report import Table, format_table
from repro.obs.spans import Segment, SpanBreakdown, SpanEvent, SpanTracer
from repro.obs.stats import DelayRecorder, SummaryStats, percentile, summarize

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "families",
    "SpanEvent",
    "Segment",
    "SpanBreakdown",
    "SpanTracer",
    "Observability",
    "NullObservability",
    "DEFAULT_LATENCY_BUCKETS",
    "LinkUtilizationCollector",
    "jain_fairness",
    "metrics_payload",
    "write_metrics_json",
    "span_lines",
    "flight_recorder",
    "Table",
    "format_table",
    "DelayRecorder",
    "SummaryStats",
    "percentile",
    "summarize",
]


class Observability:
    """The enabled facade: live metrics registry plus span tracer."""

    enabled = True

    def __init__(self, loop: Any) -> None:
        self.metrics = MetricsRegistry()
        self.spans = SpanTracer(loop)

    def __repr__(self) -> str:
        return f"<Observability span_events={len(self.spans)}>"


class NullObservability:
    """The off facade: no tracer, and it is its own ``metrics``, whose
    :meth:`watch` keeps nothing (a closed stream's stats stay
    collectable)."""

    enabled = False
    spans = None

    def __init__(self) -> None:
        self.metrics = self

    def watch(self, source: Any, table: Dict[str, Any], **labels: Any) -> None:
        return None

    def __repr__(self) -> str:
        return "<NullObservability>"
