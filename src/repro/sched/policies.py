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

A policy is one number: which of ``(0, deadline, priority)`` is the sort
key (``key_slot``).  The queues below index that triple by it, and so do
the two servers that run their own ``(key, seq, ...)`` heap in their own
bodies (:class:`~repro.sched.cpu.HostCpu`, ``netsim.topology.Link``), so
each order is stated once and chosen at construction, not per push.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Generic, List, Tuple, Type, TypeVar

from repro.errors import SchedulingError

__all__ = [
    "ReadyQueue",
    "FifoQueue",
    "EdfQueue",
    "PriorityQueue",
    "make_queue",
    "key_slot",
    "POLICIES",
]

T = TypeVar("T")


class ReadyQueue(Generic[T]):
    """A stable heap: push items with ordering hints, pop in policy order."""

    policy_name = "abstract"
    #: Index into ``(0, deadline, priority)`` of this policy's sort key.
    key_slot = 0

    def __init__(self) -> None:
        self._heap: List[Tuple[Any, int, T]] = []
        self._seq = itertools.count()

    def push(self, item: T, deadline: float = 0.0, priority: int = 0) -> None:
        key = (0, deadline, priority)[self.key_slot]
        heapq.heappush(self._heap, (key, next(self._seq), item))

    def pop(self) -> T:
        try:
            return heapq.heappop(self._heap)[2]
        except IndexError:
            raise SchedulingError(f"{self.policy_name} queue is empty") from None

    def peek(self) -> T:
        if not self._heap:
            raise SchedulingError(f"{self.policy_name} queue is empty")
        return self._heap[0][2]

    def __len__(self) -> int:
        return len(self._heap)

    def items(self) -> List[T]:
        """All queued items in policy order (non-destructive)."""
        return [entry[2] for entry in sorted(self._heap)]


class FifoQueue(ReadyQueue[T]):
    """First-in first-out: ignores deadlines and priorities."""

    policy_name = "fifo"
    key_slot = 0


class EdfQueue(ReadyQueue[T]):
    """Earliest deadline first, stable on ties (section 4.1/4.3.1)."""

    policy_name = "edf"
    key_slot = 1


class PriorityQueue(ReadyQueue[T]):
    """Static priorities (lower value runs first), stable on ties."""

    policy_name = "priority"
    key_slot = 2


POLICIES = {
    "fifo": FifoQueue,
    "edf": EdfQueue,
    "priority": PriorityQueue,
}


def _policy(policy: str) -> Type[ReadyQueue]:
    try:
        return POLICIES[policy]
    except KeyError:
        raise SchedulingError(
            f"unknown scheduling policy {policy!r}; choose from {sorted(POLICIES)}"
        ) from None


def make_queue(policy: str) -> ReadyQueue:
    """Build a ready queue by policy name ('fifo', 'edf', 'priority')."""
    return _policy(policy)()


def key_slot(policy: str) -> int:
    """The sort-key slot of a policy name, for a server's own heap."""
    return _policy(policy).key_slot
