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
whether or not anyone is watching.  The disabled path is a
:class:`NullObservability` whose registry and tracer are stateless
no-ops, so benchmarks with observability off run at full speed.

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
    write_spans_jsonl,
)
from repro.obs.linkutil import LinkUtilizationCollector, jain_fairness
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    families,
)
from repro.obs.report import Table, format_table
from repro.obs.spans import (
    NullSpanTracer,
    Segment,
    SpanBreakdown,
    SpanEvent,
    SpanTracer,
)
from repro.obs.stats import DelayRecorder, SummaryStats, percentile, summarize

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "families",
    "SpanEvent",
    "Segment",
    "SpanBreakdown",
    "SpanTracer",
    "NullSpanTracer",
    "Observability",
    "NullObservability",
    "DEFAULT_LATENCY_BUCKETS",
    "LinkUtilizationCollector",
    "jain_fairness",
    "metrics_payload",
    "write_metrics_json",
    "span_lines",
    "write_spans_jsonl",
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

    def snapshot(self) -> Dict[str, Any]:
        """Combined JSON-serializable state (metrics + span summary)."""
        return metrics_payload(obs=self)

    def __repr__(self) -> str:
        return f"<Observability span_events={len(self.spans)}>"


class NullObservability:
    """The disabled facade: every instrument is a stateless no-op."""

    enabled = False

    def __init__(self) -> None:
        self.metrics = NullRegistry()
        self.spans = NullSpanTracer()

    def snapshot(self) -> Dict[str, Any]:
        return {}

    def __repr__(self) -> str:
        return "<NullObservability>"
