"""Exporters: JSON metrics snapshots and the flight recorder.

Two machine/operator surfaces over one :class:`~repro.obs.Observability`:

- :func:`write_metrics_json` -- one JSON document with the registry
  snapshot (plus optional bench tables and metadata); this is what every
  benchmark writes next to its ``.txt`` table as ``*.metrics.json``.
- :func:`flight_recorder` -- a plain-text report of the top-N slowest
  messages with their per-layer delay breakdowns and deadline-miss
  attribution; the operator's first stop when a latency budget leaks.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.report import format_table

__all__ = [
    "metrics_payload",
    "write_metrics_json",
    "flight_recorder",
]

SCHEMA_VERSION = 1


def metrics_payload(
    obs: Optional[Any] = None,
    experiment: Optional[str] = None,
    tables: Optional[Iterable[Any]] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the ``*.metrics.json`` document."""
    payload: Dict[str, Any] = {"schema": SCHEMA_VERSION}
    if experiment is not None:
        payload["experiment"] = experiment
    if tables is not None:
        payload["tables"] = [_table_payload(table) for table in tables]
    if obs is not None and obs.enabled:
        payload["metrics"] = obs.metrics.snapshot()
        payload["spans"] = {
            "traces": sum(1 for _ in obs.spans.traces()),
            "events": len(obs.spans),
            "dropped": obs.spans.dropped,
        }
    if extra:
        payload["extra"] = extra
    return payload


def _table_payload(table: Any) -> Dict[str, Any]:
    if hasattr(table, "to_payload"):
        return table.to_payload()
    return {"text": str(table)}


def write_metrics_json(path: str, **kwargs: Any) -> Dict[str, Any]:
    """Write :func:`metrics_payload` to ``path``; returns the payload."""
    payload = metrics_payload(**kwargs)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")
    return payload


def flight_recorder(obs: Any, top_n: int = 10) -> str:
    """The operator report: slowest messages, layer by layer."""
    spans = obs.spans
    lines: List[str] = ["== flight recorder =="]
    lines.append(
        f"traces={sum(1 for _ in spans.traces())} events={len(spans)} "
        f"dropped={spans.dropped}"
    )
    slowest = spans.slowest(top_n)
    if not slowest:
        lines.append("(no delivered traces recorded)")
        return "\n".join(lines)

    layers: List[str] = []
    for breakdown in slowest:
        for layer in breakdown.by_layer():
            if layer not in layers:
                layers.append(layer)
    headers = ["trace", "total (ms)", "status", "dominant"] + [
        f"{layer} (ms)" for layer in layers
    ]
    rows = []
    for breakdown in slowest:
        by_layer = breakdown.by_layer()
        status = "late" if breakdown.late else (
            "dropped" if breakdown.dropped else "ok"
        )
        rows.append(
            [
                breakdown.trace_id,
                breakdown.total * 1e3,
                status,
                breakdown.dominant_layer() or "-",
            ]
            + [by_layer.get(layer, 0.0) * 1e3 for layer in layers]
        )
    lines.append(
        format_table(headers, rows, title=f"top {len(slowest)} slowest messages")
    )

    late = [b for b in spans.slowest(n=len(list(spans.traces()))) if b.late]
    if late:
        attribution: Dict[str, int] = {}
        for breakdown in late:
            layer = breakdown.dominant_layer() or "-"
            attribution[layer] = attribution.get(layer, 0) + 1
        lines.append("")
        lines.append(
            format_table(
                ["layer", "deadline misses attributed"],
                sorted(attribution.items(), key=lambda kv: -kv[1]),
                title=f"deadline-miss attribution ({len(late)} late)",
            )
        )
    return "\n".join(lines)
