"""Host CPU model with deadline-based short-term scheduling (section 4.1).

When an upper-level RMS is created, its total delay is divided among
stages (send protocol processing, ST delay, network delay, receive
protocol processing).  Each piece of protocol work submitted to a
:class:`HostCpu` carries the deadline of its stage; the CPU executes one
work item at a time and picks the next by the configured policy (EDF by
default, FIFO/priority for the ablation benchmarks).

Protocol CPU costs are linear in message size, parameterized by a
:class:`CpuCostModel` so experiments can charge realistic relative costs
for checksumming, encryption, and per-message protocol overhead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from repro.obs.registry import Histogram, families
from repro.sim.context import SimContext
from repro.sched.policies import key_slot

__all__ = ["CpuCostModel", "WorkItem", "HostCpu"]


@dataclass(frozen=True)
class CpuCostModel:
    """Per-operation CPU costs, in seconds.

    The defaults model a late-1980s workstation-class CPU (a few MIPS):
    tens of microseconds of fixed cost per protocol operation plus
    per-byte costs for touching data.  Relative magnitudes are what the
    experiments depend on; absolute values only set the time scale.
    """

    per_message: float = 50e-6  # protocol bookkeeping per message
    per_context_switch: float = 100e-6  # process dispatch (section 4.3)
    checksum_per_byte: float = 30e-9  # software checksumming
    encrypt_per_byte: float = 120e-9  # software encryption
    mac_per_byte: float = 60e-9  # software message authentication
    copy_per_byte: float = 10e-9  # buffer copies / fragmentation

    def protocol_cost(
        self,
        size: int,
        checksum: bool = False,
        encrypt: bool = False,
        mac: bool = False,
        copies: int = 1,
    ) -> float:
        """CPU seconds to run one protocol stage over ``size`` bytes."""
        cost = self.per_message + copies * self.copy_per_byte * size
        if checksum:
            cost += self.checksum_per_byte * size
        if encrypt:
            cost += self.encrypt_per_byte * size
        if mac:
            cost += self.mac_per_byte * size
        return cost


class WorkItem:
    """One unit of protocol processing queued on a CPU.

    ``args`` are the positional arguments for ``callback`` -- the ST
    passes the stage state here instead of closing over it in a lambda.
    ``owner`` is the context-switch accounting owner: ``None`` means
    "derive from the name prefix" (everything before the first ``/``);
    the ST passes it explicitly to skip the per-dispatch string split.
    ``trace_id`` is the observability span, if the work item carries one
    message's protocol stage.
    """

    __slots__ = ("name", "cpu_time", "deadline", "callback", "args", "owner",
                 "priority", "submitted_at", "started_at", "finished_at",
                 "trace_id")

    def __init__(
        self,
        name: str,
        cpu_time: float,
        deadline: float,
        callback: Callable[..., None],
        args: Tuple[Any, ...] = (),
        owner: Optional[str] = None,
        priority: int = 0,
        submitted_at: float = 0.0,
        started_at: Optional[float] = None,
        finished_at: Optional[float] = None,
        trace_id: Optional[int] = None,
    ) -> None:
        self.name = name
        self.cpu_time = cpu_time
        self.deadline = deadline
        self.callback = callback
        self.args = args
        self.owner = owner
        self.priority = priority
        self.submitted_at = submitted_at
        self.started_at = started_at
        self.finished_at = finished_at
        self.trace_id = trace_id

    @property
    def missed_deadline(self) -> Optional[bool]:
        if self.finished_at is None:
            return None
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

    An item costs two bodies, :meth:`submit` and ``_finish``, which push
    and pop the stable ``(key, seq, item)`` heap themselves (DESIGN 8.3).
    """

    def __init__(
        self,
        context: SimContext,
        name: str = "cpu",
        policy: str = "edf",
        cost_model: Optional[CpuCostModel] = None,
        charge_context_switches: bool = True,
    ) -> None:
        self.context = context
        self.name = name
        self.costs = cost_model or CpuCostModel()
        self._ready: List[Tuple[Any, int, WorkItem]] = []
        self._key_slot = key_slot(policy)
        self._seq = itertools.count()
        self.policy = policy
        self._busy = False
        self._paused = False
        self._last_owner: Optional[str] = None
        self._charge_switches = charge_context_switches
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
    ) -> WorkItem:
        """Queue one work item; ``callback(*args)`` runs when it completes.

        The stage state travels in ``args`` (no closure allocation) and
        ``owner`` skips the name split at dispatch.
        """
        item = WorkItem(name, cpu_time, deadline, callback, args, owner,
                        priority, self.context.loop._now, trace_id=trace_id)
        obs = self.context.obs
        if obs.enabled:
            obs.spans.event(trace_id, "cpu", "enqueue", cpu=self.name, item=name)
        ready = self._ready
        if self._busy or self._paused or ready:
            key = (0, deadline, priority)[self._key_slot]
            heappush(ready, (key, next(self._seq), item))
            if not (self._busy or self._paused):
                # Offered by a completion callback over a backlog: the
                # newcomer competes with it, the best of them runs.
                self._begin(heappop(ready)[2])
        else:
            # An idle CPU starts its only item directly and draws no
            # sequence number (any policy pops a singleton identically).
            self._begin(item)
        return item

    @property
    def queue_length(self) -> int:
        return len(self._ready)

    @property
    def utilization_window(self) -> float:
        """Busy seconds accumulated so far."""
        return self.busy_time

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
        if self._ready and not self._busy:
            self._begin(heappop(self._ready)[2])

    def _begin(self, item: WorkItem) -> None:
        context = self.context
        self._busy = True
        item.started_at = context.loop._now
        owner = item.owner
        if owner is None:
            owner = item.name.split("/", 1)[0]
        run_time = item.cpu_time
        if self._charge_switches and owner != self._last_owner:
            run_time += self.costs.per_context_switch
            self.context_switches += 1
        self._last_owner = owner
        obs = context.obs
        if obs.enabled:
            obs.spans.event(
                item.trace_id, "cpu", "dequeue", cpu=self.name, item=item.name
            )
        context.loop.call_after(run_time, self._finish, item, run_time)

    def _finish(self, item: WorkItem, run_time: float) -> None:
        context = self.context
        now = context.loop._now
        item.finished_at = now
        self._busy = False
        self.items_run += 1
        self.busy_time += run_time
        missed = now > item.deadline + 1e-12
        if missed:
            self.deadline_misses += 1
        if self.keep_history:
            self.completed.append(item)
        obs = context.obs
        if obs.enabled:
            self.queue_wait.observe(
                (item.started_at or item.submitted_at) - item.submitted_at
            )
            obs.spans.event(
                item.trace_id, "cpu", "done",
                cpu=self.name, item=item.name, missed=missed,
            )
        try:
            item.callback(*item.args)
        finally:
            # Also when the callback raises: the backlog must not wait for
            # a submit that may never come.  The callback may itself have
            # offered work and started it, hence the ``_busy`` test.
            if self._ready and not self._busy and not self._paused:
                self._begin(heappop(self._ready)[2])

    def __repr__(self) -> str:
        return (
            f"<HostCpu {self.name} policy={self.policy} queued="
            f"{self.queue_length} run={self.items_run}>"
        )
