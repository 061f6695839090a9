"""Structured tracing for simulations.

A :class:`Tracer` records ``(time, category, event, fields)`` tuples.
Tests assert against traces; benchmarks keep tracing off for speed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterator, List, Optional, Set

from repro.errors import ParameterError
from repro.sim.events import EventLoop

__all__ = ["TraceRecord", "Tracer", "NullTracer"]


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry."""

    time: float
    category: str
    event: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        detail = " ".join(f"{key}={value!r}" for key, value in self.fields.items())
        return f"[{self.time:12.6f}] {self.category}.{self.event} {detail}".rstrip()


class Tracer:
    """Records trace entries, optionally filtered by category.

    ``keep`` selects what happens once ``max_records`` is reached:
    ``"head"`` (the default) keeps the earliest records and drops new
    ones; ``"tail"`` runs the buffer as a ring, evicting the oldest
    record to admit each new one.  Either way ``dropped`` counts the
    records lost.
    """

    enabled = True

    def __init__(
        self,
        loop: EventLoop,
        categories: Optional[Set[str]] = None,
        max_records: int = 1_000_000,
        keep: str = "head",
    ) -> None:
        if keep not in ("head", "tail"):
            raise ParameterError(f"keep must be 'head' or 'tail': {keep!r}")
        self._loop = loop
        self._categories = categories
        self._max_records = max_records
        self.keep = keep
        self.records: Deque[TraceRecord] = deque()
        self.dropped = 0

    def wants(self, category: str) -> bool:
        return self._categories is None or category in self._categories

    def record(self, category: str, event: str, **fields: Any) -> None:
        if not self.wants(category):
            return
        if len(self.records) >= self._max_records:
            self.dropped += 1
            if self.keep == "head":
                return
            self.records.popleft()  # ring buffer: oldest makes room
        self.records.append(TraceRecord(self._loop.now, category, event, fields))

    def select(
        self, category: Optional[str] = None, event: Optional[str] = None
    ) -> Iterator[TraceRecord]:
        """Iterate records matching the given category and/or event."""
        for record in self.records:
            if category is not None and record.category != category:
                continue
            if event is not None and record.event != event:
                continue
            yield record

    def count(self, category: Optional[str] = None, event: Optional[str] = None) -> int:
        return sum(1 for _ in self.select(category, event))

    def clear(self) -> None:
        self.records.clear()
        self.dropped = 0

    def dump(self) -> str:
        return "\n".join(str(record) for record in self.records)


class NullTracer:
    """A tracer that records nothing; the default for benchmarks."""

    enabled = False

    def __init__(self) -> None:
        # Per-instance, never class-level: a shared mutable list would
        # leak state across every simulation using the null tracer.
        self.records: List[TraceRecord] = []
        self.dropped = 0

    def wants(self, category: str) -> bool:
        return False

    def record(self, category: str, event: str, **fields: Any) -> None:
        return None

    def select(
        self, category: Optional[str] = None, event: Optional[str] = None
    ) -> Iterator[TraceRecord]:
        return iter(())

    def count(self, category: Optional[str] = None, event: Optional[str] = None) -> int:
        return 0

    def clear(self) -> None:
        return None

    def dump(self) -> str:
        return ""
