"""Message-lifecycle spans: per-trace event streams and delay breakdown.

Every message entering the stack (with observability enabled) is
assigned a *trace id*; instrumentation points in the RMS core, the
subtransport layer, the network simulation, and the CPU scheduler emit
:class:`SpanEvent` records against that id.  A message's end-to-end
delay then decomposes into per-layer segments -- the gap between two
consecutive events is attributed to the layer of the *earlier* event
(the component that held the message during that interval).

Canonical event chain of one ST message (see DESIGN.md for the full
vocabulary)::

    st:send -> cpu:enqueue -> cpu:dequeue -> cpu:done       (send stage)
    -> st:enqueue -> net:tx                                  (piggyback)
    -> net:rx -> st:rx                                       (network)
    -> cpu:enqueue -> cpu:dequeue -> cpu:done                (recv stage)
    -> st:deliver [-> st:late]

The tracer also keeps a *wire side table* correlating in-flight
``(st_rms_id, seq)`` pairs with trace ids, so the receiving subtransport
layer can rejoin a component's trace without widening the wire format.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple

if TYPE_CHECKING:  # repro.sim imports repro.obs, not the other way round
    from repro.sim.events import EventLoop

__all__ = ["SpanEvent", "Segment", "SpanBreakdown", "SpanTracer"]


@dataclass(frozen=True)
class SpanEvent:
    """One point on a message's lifecycle."""

    trace_id: int
    time: float
    layer: str
    event: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        detail = " ".join(f"{key}={value!r}" for key, value in self.fields.items())
        return (
            f"[{self.time:12.6f}] #{self.trace_id} {self.layer}:{self.event} "
            f"{detail}"
        ).rstrip()


@dataclass(frozen=True)
class Segment:
    """The interval between two consecutive span events."""

    layer: str
    from_event: str
    to_event: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanBreakdown:
    """One trace's events, segmented and aggregated per layer."""

    def __init__(self, trace_id: int, events: List[SpanEvent]) -> None:
        self.trace_id = trace_id
        self.events = sorted(events, key=lambda e: e.time)
        self.segments: List[Segment] = [
            Segment(
                layer=a.layer,
                from_event=f"{a.layer}:{a.event}",
                to_event=f"{b.layer}:{b.event}",
                start=a.time,
                end=b.time,
            )
            for a, b in zip(self.events, self.events[1:])
        ]

    @property
    def total(self) -> float:
        """Wall time from the first to the last event of the trace."""
        if len(self.events) < 2:
            return 0.0
        return self.events[-1].time - self.events[0].time

    @property
    def delivered(self) -> bool:
        return any(e.event == "deliver" for e in self.events)

    @property
    def dropped(self) -> bool:
        return any(e.event == "drop" for e in self.events)

    @property
    def late(self) -> bool:
        return any(e.event == "late" for e in self.events)

    def by_layer(self) -> Dict[str, float]:
        """Seconds attributed to each layer, summing to :attr:`total`."""
        out: Dict[str, float] = {}
        for segment in self.segments:
            out[segment.layer] = out.get(segment.layer, 0.0) + segment.duration
        return out

    def dominant_layer(self) -> Optional[str]:
        """The layer that consumed the largest share of the delay."""
        by_layer = self.by_layer()
        if not by_layer:
            return None
        return max(by_layer, key=lambda layer: by_layer[layer])

    def __repr__(self) -> str:
        return (
            f"<SpanBreakdown #{self.trace_id} events={len(self.events)} "
            f"total={self.total:.6f}s>"
        )


#: Events one tracer keeps; later events are dropped and counted, which
#: bounds the memory of a long observed run.
MAX_EVENTS = 1_000_000


class SpanTracer:
    """Collects span events per trace id.

    Once :data:`MAX_EVENTS` are held, new events are dropped and
    :attr:`dropped` counts them, and no component is stashed.
    """

    def __init__(self, loop: EventLoop) -> None:
        self._loop = loop
        self._ids = itertools.count(1)
        self._events = 0
        self._traces: "Dict[int, List[SpanEvent]]" = {}
        self._wire: Dict[Tuple[int, int], int] = {}
        self.dropped = 0

    # -- trace lifecycle -------------------------------------------------

    def new_trace(self) -> int:
        return next(self._ids)

    def event(self, trace_id: Optional[int], layer: str, event: str, **fields: Any) -> None:
        """Record one lifecycle event; a ``None`` trace id is ignored."""
        if trace_id is None:
            return
        if self._events >= MAX_EVENTS:
            self.dropped += 1
            return
        bucket = self._traces.get(trace_id)
        if bucket is None:
            bucket = []
            self._traces[trace_id] = bucket
        bucket.append(SpanEvent(trace_id, self._loop.now, layer, event, fields))
        self._events += 1

    # -- wire correlation ------------------------------------------------

    def stash(self, key: Tuple[int, int], trace_id: int) -> None:
        """Remember a trace id for an in-flight ``(st_rms_id, seq)``.

        Nothing is stashed once the tracer is full: a component whose
        frame is lost is never claimed, and its trace records no more.
        """
        if self._events < MAX_EVENTS:
            self._wire[key] = trace_id

    def claim(self, key: Tuple[int, int]) -> Optional[int]:
        """Retrieve (and forget) the trace id of an arriving component."""
        return self._wire.pop(key, None)

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return self._events

    def traces(self) -> Iterable[int]:
        return self._traces.keys()

    def events_for(self, trace_id: int) -> List[SpanEvent]:
        return list(self._traces.get(trace_id, ()))

    def breakdown(self, trace_id: int) -> Optional[SpanBreakdown]:
        events = self._traces.get(trace_id)
        if not events:
            return None
        return SpanBreakdown(trace_id, events)

    def slowest(self, n: int = 10, delivered_only: bool = True) -> List[SpanBreakdown]:
        """The ``n`` traces with the largest end-to-end time, slowest first."""
        breakdowns = (
            SpanBreakdown(trace_id, events)
            for trace_id, events in self._traces.items()
            if events
        )
        if delivered_only:
            breakdowns = (b for b in breakdowns if b.delivered)
        return sorted(breakdowns, key=lambda b: b.total, reverse=True)[:n]

    def clear(self) -> None:
        self._traces.clear()
        self._wire.clear()
        self._events = 0
        self.dropped = 0

    def __repr__(self) -> str:
        return (
            f"<SpanTracer traces={len(self._traces)} events={self._events} "
            f"dropped={self.dropped}>"
        )

