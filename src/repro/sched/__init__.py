"""Deadline-based scheduling for CPUs and network interfaces (4.1)."""

from repro.sched.cpu import HostCpu, WorkItem
from repro.sched.policies import (
    POLICIES,
    EdfQueue,
    FifoQueue,
    PriorityQueue,
    ReadyQueue,
    make_queue,
)

__all__ = [
    "EdfQueue",
    "FifoQueue",
    "HostCpu",
    "POLICIES",
    "PriorityQueue",
    "ReadyQueue",
    "WorkItem",
    "make_queue",
]
