"""The metrics registry: the layers' own counters, read on demand.

Every layer of the stack already counts what it does -- ``RmsStats``,
``StStats``, ``HostCpu.items_run``, ``Network.setup_count`` ... -- and a
fact is counted once, there.  The one :class:`MetricsRegistry` of a
:class:`~repro.sim.context.SimContext` (behind the
:class:`~repro.obs.Observability` facade) holds no counter of its own: it
is a list of *sources*.  An object registers the thing it counts in once,
when it is built, with the family table of its class and its labels::

    _FAMILIES = families("rms", RmsStats, out_of_order="rms_messages_out_of_order")
    ...
    context.obs.metrics.watch(self.stats, _FAMILIES, layer="st", rms=name)

and :meth:`MetricsRegistry.snapshot` / :meth:`MetricsRegistry.get` read
the attributes when asked.  What an attribute holds says how it exports:

- an ``int`` / ``float`` is one series of its family;
- a ``dict`` is one series per key, under the label the table names
  (``"net_control_drops{kind}"``);
- a ``list`` of samples (``Rms.delays``, kept while observing) is
  bucketed into a :class:`Histogram` at snapshot time;
- a :class:`Histogram` the object owns (``HostCpu.queue_wait``: a
  distribution with no sample list behind it) exports as it stands;
- a method is called and its result exported by the same rules.

Sources that share a family and a label set add up (the incarnations of
one re-established stream).  A zero is exported as a zero: a family that
is absent was never registered, which is not the same thing.  With
observability off there is no registry: the off facade's ``watch``
keeps nothing.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import ParameterError

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "families",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Log-spaced latency buckets (seconds), 100 us .. 10 s; +inf is implicit.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    1e-1, 2.5e-1, 5e-1,
    1.0, 2.5, 5.0, 10.0,
)


class Histogram:
    """A fixed-bucket histogram with sum and count.

    ``bounds`` are the inclusive upper bounds of the finite buckets; one
    overflow bucket past the last bound is implicit.
    """

    __slots__ = ("bounds", "bucket_counts", "sum", "count")

    def __init__(self, bounds: Optional[Sequence[float]] = None) -> None:
        bounds = tuple(bounds if bounds is not None else DEFAULT_LATENCY_BUCKETS)
        if not bounds or list(bounds) != sorted(bounds):
            raise ParameterError(f"histogram bounds must be sorted: {bounds}")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, fraction: float) -> float:
        """Approximate quantile by linear interpolation within a bucket."""
        if not 0.0 <= fraction <= 1.0:
            raise ParameterError(f"fraction must be in [0, 1]: {fraction}")
        if self.count == 0:
            return 0.0
        target = fraction * self.count
        cumulative = 0
        lower = 0.0
        for index, bucket_count in enumerate(self.bucket_counts):
            upper = (
                self.bounds[index]
                if index < len(self.bounds)
                else math.inf
            )
            if cumulative + bucket_count >= target:
                if bucket_count == 0 or math.isinf(upper):
                    return lower if not math.isinf(upper) else self.bounds[-1]
                weight = (target - cumulative) / bucket_count
                return lower + weight * (upper - lower)
            cumulative += bucket_count
            lower = upper
        return self.bounds[-1]

    def absorb(self, samples: Union["Histogram", Iterable[float]]) -> None:
        """Fold in raw samples, or another histogram over the same bounds."""
        if not isinstance(samples, Histogram):
            for value in samples:
                self.observe(value)
            return
        if samples.bounds != self.bounds:
            raise ParameterError(
                f"cannot merge histograms over {samples.bounds} and {self.bounds}"
            )
        for index, bucket_count in enumerate(samples.bucket_counts):
            self.bucket_counts[index] += bucket_count
        self.sum += samples.sum
        self.count += samples.count


#: How one attribute exports: (family name, key label of a dict, kind).
Export = Tuple[str, Optional[str], str]
LabelKey = Tuple[Tuple[str, Any], ...]


def families(
    prefix: str, attrs: Any, kind: str = "counter", **renames: str
) -> Dict[str, Export]:
    """The family table of one counted class, built once at import.

    ``attrs`` names the exported attributes (a dataclass stands for its
    fields).  Each exports as ``prefix_attr`` unless ``renames`` gives the
    family; a ``dict`` attribute needs its key label named there, as
    ``"family{label}"``.  Tables are plain dicts: merge a ``kind="gauge"``
    one into a counter one with ``{**a, **b}``.
    """
    if dataclasses.is_dataclass(attrs):
        attrs = [field.name for field in dataclasses.fields(attrs)]
    if not set(renames) <= set(attrs):
        raise ParameterError(f"renamed but not exported: {set(renames) - set(attrs)}")
    table: Dict[str, Export] = {}
    for attr in attrs:
        name, _, label = renames.get(attr, f"{prefix}_{attr}").partition("{")
        table[attr] = (name, label.rstrip("}") or None, kind)
    return table


class MetricsRegistry:
    """The watched sources of one context, read when asked."""

    def __init__(self) -> None:
        self._sources: List[Tuple[Any, Dict[str, Export], Dict[str, Any]]] = []

    def watch(self, source: Any, table: Dict[str, Export], **labels: Any) -> None:
        """Export ``source``'s attributes named in ``table`` (see
        :func:`families`) under ``labels``, for as long as the registry
        lives.  The only way in."""
        self._sources.append((source, table, labels))

    def _collect(
        self, only: Optional[str] = None
    ) -> Dict[str, Tuple[str, Dict[LabelKey, Any]]]:
        """``{family: (kind, {labels: number or Histogram})}``, read now."""
        out: Dict[str, Tuple[str, Dict[LabelKey, Any]]] = {}
        for source, table, labels in self._sources:
            for attr, (name, key_label, kind) in table.items():
                if only is not None and name != only:
                    continue
                value = getattr(source, attr)
                if callable(value):
                    value = value()
                if not isinstance(value, dict):
                    _add(out, name, kind, labels, value)
                elif key_label is None:
                    raise ParameterError(f"{name}: a dict needs 'family{{label}}'")
                else:
                    for key, item in value.items():
                        _add(out, name, kind, {**labels, key_label: key}, item)
        return out

    def get(self, name: str, **labels: Any) -> Optional[Any]:
        """The current value (a :class:`Histogram` for a distribution) of
        the series with exactly these labels, else ``None``."""
        _, series = self._collect(name).get(name, ("", {}))
        return series.get(tuple(sorted(labels.items())))

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-serializable snapshot of every family and series."""
        out: Dict[str, Any] = {}
        for name, (kind, series) in sorted(self._collect().items()):
            entries: List[Dict[str, Any]] = []
            for key, value in series.items():
                entry: Dict[str, Any] = {"labels": dict(key)}
                if kind == "histogram":
                    entry["count"] = value.count
                    entry["sum"] = value.sum
                    entry["mean"] = value.mean
                    entry["p50"] = value.quantile(0.50)
                    entry["p99"] = value.quantile(0.99)
                    entry["buckets"] = {
                        "le": list(value.bounds),
                        "counts": list(value.bucket_counts),
                    }
                else:
                    entry["value"] = value
                entries.append(entry)
            out[name] = {"kind": kind, "series": entries}
        return out


def _add(
    out: Dict[str, Tuple[str, Dict[LabelKey, Any]]],
    name: str,
    kind: str,
    labels: Dict[str, Any],
    value: Any,
) -> None:
    """Add one read value to its series, creating family and series."""
    distribution = isinstance(value, (list, Histogram))
    if distribution:
        kind = "histogram"
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParameterError(f"{name}: cannot export {value!r}")
    family_kind, series = out.setdefault(name, (kind, {}))
    if family_kind != kind:
        raise ParameterError(f"metric {name!r} is a {family_kind}, not a {kind}")
    key = tuple(sorted(labels.items()))
    first = next(iter(series), key)
    if [label for label, _ in first] != [label for label, _ in key]:
        raise ParameterError(
            f"metric {name!r} has labels {[label for label, _ in first]}, "
            f"got {sorted(labels)}"
        )
    if not distribution:
        series[key] = series.get(key, 0) + value
        return
    if key not in series:
        series[key] = Histogram(getattr(value, "bounds", None))
    series[key].absorb(value)

