"""Host CPU model with deadline-based short-term scheduling (section 4.1).

When an upper-level RMS is created, its total delay is divided among
stages (send protocol processing, ST delay, network delay, receive
protocol processing).  Each piece of protocol work submitted to a
:class:`HostCpu` carries the deadline of its stage; the CPU executes one
work item at a time and picks the next by the configured policy (EDF by
default, FIFO/priority for the ablation benchmarks).  A work item is a
plain tuple in the CPU's ready heap; :class:`WorkItem` is only the
record ``HostCpu.keep_history`` keeps of a finished one.

Protocol CPU costs are linear in message size: the constants below
charge a fixed cost per message and per context switch, and per-byte
costs for copying, checksumming, encryption and authentication.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from repro.obs.registry import Histogram, families
from repro.sim.context import SimContext
from repro.sched.policies import key_slot

__all__ = ["HostCpu", "WorkItem", "stage_costs"]


# Per-operation CPU costs, in seconds, of a late-1980s workstation-class
# CPU (a few MIPS): tens of microseconds of fixed cost per protocol
# operation plus per-byte costs for touching data (sections 4.1, 4.3).
# Relative magnitudes are what the experiments depend on; absolute
# values only set the time scale.
PER_MESSAGE = 50e-6  # protocol bookkeeping per message
PER_CONTEXT_SWITCH = 100e-6  # process dispatch (section 4.3)
CHECKSUM_PER_BYTE = 30e-9  # software checksumming
ENCRYPT_PER_BYTE = 120e-9  # software encryption
MAC_PER_BYTE = 60e-9  # software message authentication
COPY_PER_BYTE = 10e-9  # buffer copies / fragmentation


def stage_costs(
    checksum: bool = False, encrypt: bool = False, mac: bool = False
) -> Tuple[float, Tuple[float, ...]]:
    """The cost model of one protocol stage: its fixed cost and its
    per-byte rates.  A stage over ``size`` bytes costs the fixed cost
    plus ``rate * size`` for each rate, summed left to right; a stream
    resolves the terms once, when it is created, and sums per message."""
    rates: Tuple[float, ...] = (COPY_PER_BYTE,)
    if checksum:
        rates += (CHECKSUM_PER_BYTE,)
    if encrypt:
        rates += (ENCRYPT_PER_BYTE,)
    if mac:
        rates += (MAC_PER_BYTE,)
    return PER_MESSAGE, rates


@dataclass(frozen=True)  # no slots=True: CPython 3.9 has no such option
class WorkItem:
    """What :attr:`HostCpu.completed` records of one finished work item.

    A queued or running item is a plain tuple (see :class:`HostCpu`);
    this record is built only while ``keep_history`` is set.  ``owner``
    is the context-switch accounting owner as submitted (``None`` means
    "derived from the name prefix"); ``trace_id`` is the observability
    span, if the item carried one message's protocol stage.
    """

    name: str
    cpu_time: float
    deadline: float
    owner: Optional[str]
    trace_id: Optional[int]
    submitted_at: float
    started_at: float
    finished_at: float

    @property
    def missed_deadline(self) -> bool:
        return self.finished_at > self.deadline + 1e-12


_FAMILIES = families(
    "cpu",
    ("items_run", "busy_time", "context_switches", "deadline_misses",
     "queue_wait"),
    queue_wait="cpu_queue_wait_seconds",
)


class HostCpu:
    """A single CPU executing protocol work items, one at a time.

    Non-preemptive: once an item starts it runs to completion.  The next
    item is chosen by the configured ready-queue policy.  A context
    switch cost is charged whenever the CPU moves between items of
    different ``owner`` names, modeling the protocol-process context
    switching that section 4.3 trades off against fragmentation.

    A work item is the tuple ``(name, cpu_time, deadline, callback, args,
    owner, trace_id, submitted_at)``: no object is built per item.  An
    item runs two frames, :meth:`submit` and ``_finish``: each pushes and
    pops the stable ``(key, seq, item)`` heap itself and starts the item
    it picks in its own body (charge a context switch, arm the
    completion), as ``Link`` does (DESIGN 8.3); the ``sched.cpu`` rows of
    ``BUDGET.json`` hold the frames and items per message.  ``_busy`` is
    the running item (``None`` while idle) and ``_started_at`` the time
    it started.
    """

    def __init__(
        self,
        context: SimContext,
        name: str = "cpu",
        policy: str = "edf",
    ) -> None:
        self.context = context
        self.name = name
        self._ready: List[Tuple[Any, int, tuple]] = []
        self._key_slot = key_slot(policy)
        self._seq = itertools.count()
        self.policy = policy
        self._busy: Optional[tuple] = None
        self._started_at = 0.0
        self._paused = False
        self._last_owner: Optional[str] = None
        # Statistics.
        self.items_run = 0
        self.busy_time = 0.0
        self.context_switches = 0
        self.deadline_misses = 0
        #: Seconds items waited for the CPU; observed only while spans are
        #: (a distribution has no cheap always-on form).
        self.queue_wait = Histogram()
        self.completed: List[WorkItem] = []
        self.keep_history = False
        context.obs.metrics.watch(self, _FAMILIES, cpu=name)

    def submit(
        self,
        name: str,
        cpu_time: float,
        deadline: float,
        callback: Callable[..., None],
        args: Tuple[Any, ...] = (),
        owner: Optional[str] = None,
        priority: int = 0,
        trace_id: Optional[int] = None,
    ) -> None:
        """Queue one work item; ``callback(*args)`` runs when it completes.

        The stage state travels in ``args`` (no closure allocation) and
        ``owner`` skips the name split at dispatch.
        """
        context = self.context
        now = context.loop._now
        item = (name, cpu_time, deadline, callback, args, owner, trace_id, now)
        obs = context.obs
        if obs.enabled:
            obs.spans.event(trace_id, "cpu", "enqueue", cpu=self.name, item=name)
        ready = self._ready
        if self._busy or self._paused or ready:
            key = (0, deadline, priority)[self._key_slot]
            heappush(ready, (key, next(self._seq), item))
            if self._busy or self._paused:
                return
            # Offered by a completion callback over a backlog: the
            # newcomer competes with it, the best of them runs.
            item = heappop(ready)[2]
            name, cpu_time, owner, trace_id = item[0], item[1], item[5], item[6]
        # Otherwise an idle CPU starts its only item directly and draws no
        # sequence number (any policy pops a singleton identically).
        self._busy = item
        self._started_at = now
        if owner is None:
            owner = name.split("/", 1)[0]
        if owner != self._last_owner:
            cpu_time += PER_CONTEXT_SWITCH
            self.context_switches += 1
        self._last_owner = owner
        if obs.enabled:
            obs.spans.event(trace_id, "cpu", "dequeue", cpu=self.name, item=name)
        context.loop.call_after(cpu_time, self._finish, item, cpu_time)

    @property
    def queue_length(self) -> int:
        return len(self._ready)

    def pause(self) -> None:
        """Stop dispatching queued work (a running item still completes).

        Models a host outage (chaos schedules): submitted protocol
        stages pile up in the ready queue until :meth:`resume`.
        """
        self._paused = True

    def resume(self) -> None:
        if not self._paused:
            return
        self._paused = False
        self._finish(None, 0.0)  # completes nothing, starts the best item

    def _finish(self, item: Optional[tuple], run_time: float) -> None:
        """Complete ``item`` (``None``: nothing) and start the best ready
        item, if the CPU is free to."""
        context = self.context
        now = context.loop._now
        obs = context.obs
        try:
            if item is not None:
                (name, cpu_time, deadline, callback, args, owner, trace_id,
                 submitted_at) = item
                self._busy = None
                self.items_run += 1
                self.busy_time += run_time
                missed = now > deadline + 1e-12
                if missed:
                    self.deadline_misses += 1
                if self.keep_history:
                    self.completed.append(WorkItem(
                        name, cpu_time, deadline, owner, trace_id,
                        submitted_at, self._started_at, now))
                if obs.enabled:
                    self.queue_wait.observe(self._started_at - submitted_at)
                    obs.spans.event(
                        trace_id, "cpu", "done",
                        cpu=self.name, item=name, missed=missed,
                    )
                callback(*args)
        finally:
            # Also when the callback raises: the backlog must not wait for
            # a submit that may never come.  The callback may itself have
            # offered work and started it, hence the ``_busy`` test.
            ready = self._ready
            if ready and not self._busy and not self._paused:
                item = heappop(ready)[2]
                name, run_time, owner, trace_id = (
                    item[0], item[1], item[5], item[6])
                self._busy = item
                self._started_at = now
                if owner is None:
                    owner = name.split("/", 1)[0]
                if owner != self._last_owner:
                    run_time += PER_CONTEXT_SWITCH
                    self.context_switches += 1
                self._last_owner = owner
                if obs.enabled:
                    obs.spans.event(
                        trace_id, "cpu", "dequeue", cpu=self.name, item=name)
                context.loop.call_after(run_time, self._finish, item, run_time)

    def __repr__(self) -> str:
        return (
            f"<HostCpu {self.name} policy={self.policy} queued="
            f"{self.queue_length} run={self.items_run}>"
        )
