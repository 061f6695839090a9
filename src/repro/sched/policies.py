"""Scheduling policies: which sort key a server's ready heap uses.

Section 4.1: deadlines determine the execution order of protocol
processes and the order in which packets are queued on a network
interface.  The paper contrasts deadline-based ordering with systems
that use "only priorities (or no information at all)"; all three
policies are implemented so the benchmarks can compare them (E5).

A policy is one number: which of ``(0, deadline, priority)`` is the sort
key.  The two servers, :class:`~repro.sched.cpu.HostCpu` and
``netsim.topology.Link``, run their own ``(key, seq, ...)`` heap and
index that triple by :func:`key_slot`, so each order is stated once and
chosen at construction, not per push.  The ``seq`` makes every policy
*stable*: equal keys pop in insertion order.  For EDF this realizes the
refinement of section 4.3.1 -- if message A is sent after message B
with a transmission deadline greater than or equal to B's, then B is
delivered first.
"""

from __future__ import annotations

from repro.errors import SchedulingError

__all__ = ["key_slot", "POLICIES"]

#: Policy name -> index into ``(0, deadline, priority)`` of its sort key:
#: FIFO ignores deadlines and priorities, EDF orders by deadline, and
#: static priorities run the lower value first.
POLICIES = {"fifo": 0, "edf": 1, "priority": 2}


def key_slot(policy: str) -> int:
    """The sort-key slot of a policy name, for a server's own heap."""
    try:
        return POLICIES[policy]
    except KeyError:
        raise SchedulingError(
            f"unknown scheduling policy {policy!r}; choose from {sorted(POLICIES)}"
        ) from None
