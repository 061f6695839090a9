"""Ready-queue ordering policies.

Section 4.1: deadlines determine the execution order of protocol
processes and the order in which packets are queued on a network
interface.  The paper contrasts deadline-based ordering with systems
that use "only priorities (or no information at all)"; all three
policies are implemented so the benchmarks can compare them (E5).

Every policy is *stable*: equal keys pop in insertion order.  For EDF
this realizes the refinement of section 4.3.1 -- if message A is sent
after message B with a transmission deadline greater than or equal to
B's, then B is delivered first.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Generic, List, Optional, Tuple, TypeVar

from repro.errors import SchedulingError

__all__ = [
    "ReadyQueue",
    "FifoQueue",
    "EdfQueue",
    "PriorityQueue",
    "make_queue",
    "POLICIES",
]

T = TypeVar("T")


class ReadyQueue(Generic[T]):
    """Interface: push items with ordering hints, pop in policy order."""

    policy_name = "abstract"

    def push(self, item: T, deadline: float = 0.0, priority: int = 0) -> None:
        raise NotImplementedError

    def pop(self) -> T:
        raise NotImplementedError

    def peek(self) -> T:
        raise NotImplementedError

    def __len__(self) -> int:
        # Also the truth test, and deliberately the only one: the CPU and
        # link models ask "anything queued?" once per work item, and a
        # ``__bool__`` that calls ``len()`` would make that two calls.
        raise NotImplementedError


class _HeapQueue(ReadyQueue[T]):
    """Shared heap machinery; subclasses define the sort key."""

    def __init__(self) -> None:
        self._heap: List[Tuple[Any, int, T]] = []
        self._seq = itertools.count()

    def _key(self, deadline: float, priority: int) -> Any:
        raise NotImplementedError

    def push(self, item: T, deadline: float = 0.0, priority: int = 0) -> None:
        heapq.heappush(
            self._heap, (self._key(deadline, priority), next(self._seq), item)
        )

    def pop(self) -> T:
        if not self._heap:
            raise SchedulingError(f"{self.policy_name} queue is empty")
        return heapq.heappop(self._heap)[2]

    def peek(self) -> T:
        if not self._heap:
            raise SchedulingError(f"{self.policy_name} queue is empty")
        return self._heap[0][2]

    def __len__(self) -> int:
        return len(self._heap)

    def items(self) -> List[T]:
        """All queued items in policy order (non-destructive)."""
        return [entry[2] for entry in sorted(self._heap)]


class FifoQueue(_HeapQueue[T]):
    """First-in first-out: ignores deadlines and priorities."""

    policy_name = "fifo"

    def _key(self, deadline: float, priority: int) -> Any:
        return 0


class EdfQueue(_HeapQueue[T]):
    """Earliest deadline first, stable on ties (section 4.1/4.3.1)."""

    policy_name = "edf"

    def _key(self, deadline: float, priority: int) -> Any:
        return deadline


class PriorityQueue(_HeapQueue[T]):
    """Static priorities (lower value runs first), stable on ties."""

    policy_name = "priority"

    def _key(self, deadline: float, priority: int) -> Any:
        return priority


POLICIES = {
    "fifo": FifoQueue,
    "edf": EdfQueue,
    "priority": PriorityQueue,
}


def make_queue(policy: str) -> ReadyQueue:
    """Build a ready queue by policy name ('fifo', 'edf', 'priority')."""
    try:
        return POLICIES[policy]()
    except KeyError:
        raise SchedulingError(
            f"unknown scheduling policy {policy!r}; choose from {sorted(POLICIES)}"
        ) from None
