"""Deadline-based scheduling for CPUs and network interfaces (4.1)."""

from repro.sched.cpu import HostCpu
from repro.sched.policies import POLICIES, key_slot

__all__ = [
    "HostCpu",
    "POLICIES",
    "key_slot",
]
