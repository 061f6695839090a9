"""Discrete-event simulation core.

The DASH system of the paper ran on real machines; this reproduction runs
on a deterministic discrete-event simulator.  :class:`EventLoop` keeps a
timer queue of timestamped callbacks.  All timing-sensitive behaviour in
the library (delay bounds, deadlines, retransmission timers, CPU
scheduling) is expressed through this single clock, which makes every
experiment reproducible bit-for-bit from its random seed.

Times are floats in *seconds* of simulated time.

Implementation: a FIFO deque beside one binary heap.  Events due *now*
(``call_soon`` and ``call_at(now)``) go to the deque and are serviced
without any heap comparison.  Every later event is a ``(time, seq,
handle)`` tuple in the heap, so ordering comparisons happen on C-level
tuples and never reach the handle.  Because ``call_at(now)`` goes to the
deque, a heap entry due at the current instant was scheduled before the
clock got there, hence before everything in the deque: the loop runs the
due heap entries first, then the deque, and moves the clock only when
both are empty.  The dispatch order is therefore the exact total order
of a single lazy-cancel heap -- ``(time, seq)`` with FIFO at equal
timestamps -- so seeded runs reproduce bit-identically.

Cancelled events are removed lazily; when more than a quarter of the
queued entries are dead the queue compacts in place.  Executed handles
are recycled through a free pool when the caller kept no reference
(checked via ``sys.getrefcount``), so steady-state scheduling allocates
nothing.
"""

from __future__ import annotations

import heapq
import itertools
import sys
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.errors import SchedulingError
from repro.obs.registry import families

__all__ = [
    "DEFAULT_IDLE_MAX_EVENTS",
    "EventHandle",
    "EventLoop",
    "GroupTimer",
    "Signal",
    "TIMER_FAMILIES",
    "TimerGroup",
]

#: Runaway guard shared by every drain-until-idle entry point
#: (``EventLoop.run_while_pending``, ``SimContext.run``,
#: ``DashSystem.run``) so the layers cannot drift apart.
DEFAULT_IDLE_MAX_EVENTS = 10_000_000

# Compaction threshold: rebuild the queue when at least _COMPACT_MIN
# cancelled entries make up over a quarter of everything queued.
_COMPACT_MIN = 64

# Handle free-pool bound; beyond this, executed handles are simply
# dropped for the garbage collector.
_POOL_CAP = 4096

_heappush = heapq.heappush
_INF = float("inf")


class EventHandle:
    """A cancellable reference to one scheduled callback.

    Made by the loop, queued from birth.  The loop orders events by the
    ``(time, seq)`` head of their heap entries, so a handle carries no
    sequence number and is never compared."""

    __slots__ = ("time", "_callback", "_args", "cancelled", "_queued",
                 "_loop")

    def __init__(
        self,
        time: float,
        callback: Callable[..., None],
        args: Tuple[Any, ...],
        loop: "EventLoop",
    ) -> None:
        self.time = time
        self._callback = callback
        self._args = args
        self.cancelled = False  # set by cancel() alone; read on every arm
        self._queued = True
        self._loop = loop

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        self._callback = _noop
        self._args = ()
        if self._queued:
            self._loop._note_cancel()

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time:.6f} {state}>"


def _noop() -> None:
    return None


def _no_refcount(_obj: Any) -> int:
    """Stand-in when ``sys.getrefcount`` is unavailable (non-CPython):
    reports an impossible count so handles are never recycled."""
    return 0


_getrefcount = getattr(sys, "getrefcount", _no_refcount)


class EventLoop:
    """A deterministic discrete-event scheduler.

    Events scheduled for the same instant run in scheduling order (FIFO),
    which keeps protocol traces deterministic.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = itertools.count()
        self._running = False
        self._events_run = 0
        #: True when the previous run() stopped because the next live
        #: event lay beyond the idle grace, rather than on an exhausted
        #: event budget (run_while_pending distinguishes the two).
        self._stopped_on_grace = False
        # Timer queue state -- see the module docstring.
        self._bucket: Deque[EventHandle] = deque()
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._cancelled_in_queue = 0
        self._pool: List[EventHandle] = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_run(self) -> int:
        """Number of callbacks executed so far (for tests and tracing)."""
        return self._events_run

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return self.queue_depth - self._cancelled_in_queue

    @property
    def queue_depth(self) -> int:
        """Total queued entries, including cancelled ones awaiting
        compaction (introspection for tests and telemetry)."""
        return len(self._bucket) + len(self._heap)

    # -- scheduling ----------------------------------------------------
    #
    # Each entry point validates, takes a pooled handle and queues it in
    # its own body: a shared helper would be one more Python call on the
    # most-called code in the library.  Nothing is touched before the
    # time is known to be valid; a NaN would silently break heap order.

    def call_at(
        self, when: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated time ``when``."""
        now = self._now
        if not now <= when < _INF:
            raise SchedulingError(
                f"cannot schedule event at {when!r}, now is {now:.6f}"
            )
        pool = self._pool
        if pool:
            handle = pool.pop()
            handle.time = when
            handle._callback = callback
            handle._args = args
            handle.cancelled = False
            handle._queued = True
        else:
            handle = EventHandle(when, callback, args, self)
        if when == now:
            self._bucket.append(handle)
        else:
            _heappush(self._heap, (when, next(self._seq), handle))
        return handle

    def call_after(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        now = self._now
        when = now + delay
        if not (delay >= 0 and when < _INF):
            raise SchedulingError(f"negative or non-finite delay {delay!r}")
        pool = self._pool
        if pool:
            handle = pool.pop()
            handle.time = when
            handle._callback = callback
            handle._args = args
            handle.cancelled = False
            handle._queued = True
        else:
            handle = EventHandle(when, callback, args, self)
        if when == now:
            self._bucket.append(handle)
        else:
            _heappush(self._heap, (when, next(self._seq), handle))
        return handle

    def call_soon(self, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at the current time, after pending
        same-time events."""
        pool = self._pool
        if pool:
            handle = pool.pop()
            handle.time = self._now
            handle._callback = callback
            handle._args = args
            handle.cancelled = False
            handle._queued = True
        else:
            handle = EventHandle(self._now, callback, args, self)
        self._bucket.append(handle)
        return handle

    # -- queue maintenance ---------------------------------------------

    def _note_cancel(self) -> None:
        self._cancelled_in_queue = count = self._cancelled_in_queue + 1
        if count >= _COMPACT_MIN and count * 4 >= self.queue_depth:
            self._compact()

    def _compact(self) -> None:
        """Physically remove cancelled entries.  Both containers are
        filtered in place so references hoisted by a running ``run()``
        stay valid."""
        dropped: List[EventHandle] = []
        bucket = self._bucket
        kept = [handle for handle in bucket if not handle.cancelled]
        if len(kept) != len(bucket):
            dropped.extend(handle for handle in bucket if handle.cancelled)
            bucket.clear()
            bucket.extend(kept)
        heap = self._heap
        live = [entry for entry in heap if not entry[2].cancelled]
        if len(live) != len(heap):
            dropped.extend(entry[2] for entry in heap if entry[2].cancelled)
            heap[:] = live
            heapq.heapify(heap)
        self._cancelled_in_queue = 0
        # Recycle the handles nobody else references.
        pool = self._pool
        while dropped:
            handle = dropped.pop()
            handle._queued = False
            if len(pool) < _POOL_CAP and _getrefcount(handle) == 2:
                pool.append(handle)

    # -- dispatch ------------------------------------------------------

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        idle_grace: Optional[float] = None,
    ) -> float:
        """Run events in time order.

        Stops when the queue is empty, when the next event lies beyond
        ``until`` (the clock then advances exactly to ``until``), when the
        next live event is more than ``idle_grace`` seconds past the
        current clock (the clock stays at the last executed event), or
        after ``max_events`` callbacks.  Returns the simulated time at
        which the run stopped.  ``until`` and ``idle_grace`` are mutually
        exclusive.

        Every queued event sits in a container until the instant it is
        popped to run, so a callback that raises loses nothing: the next
        ``run()`` resumes with the event after it.
        """
        if self._running:
            raise SchedulingError("event loop is already running (reentrant run())")
        if idle_grace is not None:
            if until is not None:
                raise SchedulingError(
                    "run() takes either until or idle_grace, not both"
                )
            if idle_grace < 0:
                raise SchedulingError(f"negative idle_grace {idle_grace!r}")
        self._running = True
        self._stopped_on_grace = False
        ran = 0
        budget = -1 if max_events is None else max_events
        # Hoisted locals: both containers are mutated strictly in place
        # (including by _compact), so these bindings stay valid across
        # arbitrary callback re-entry into the scheduler.
        bucket = self._bucket
        bucket_popleft = bucket.popleft
        heap = self._heap
        pool = self._pool
        getref = _getrefcount
        heappop = heapq.heappop
        now = self._now
        try:
            while True:
                # The dispatch rule: heap entries due at `now` were
                # scheduled before the clock got here (call_at(now) goes
                # to the deque), so they precede everything in the deque.
                if heap and heap[0][0] <= now:
                    if ran == budget and not heap[0][2].cancelled:
                        break
                    handle = heappop(heap)[2]
                elif bucket:
                    if ran == budget and not bucket[0].cancelled:
                        break  # event budget spent with work still due
                    handle = bucket_popleft()
                elif not heap:
                    if until is not None and now < until:
                        self._now = until
                    break
                else:
                    # Nothing due: move the clock to the heap's head and
                    # run it.  A dead head is discarded without advancing
                    # the clock -- in a lazy-cancel heap, skipped events
                    # never move `now`.
                    when, _, handle = heap[0]
                    if handle.cancelled:
                        pass
                    elif until is not None and when > until:
                        # Nothing left at or before `until`: the clock
                        # lands exactly there.  (A budget stop leaves it
                        # at the last event run, never past events still
                        # queued.)
                        if now < until:
                            self._now = until
                        break
                    elif idle_grace is not None and when - now > idle_grace:
                        self._stopped_on_grace = True
                        break
                    elif ran == budget:
                        break
                    else:
                        self._now = now = when
                    heappop(heap)
                handle._queued = False
                if handle.cancelled:
                    self._cancelled_in_queue -= 1
                else:
                    handle._callback(*handle._args)
                    ran += 1
                if len(pool) < _POOL_CAP and getref(handle) == 2:
                    # Pooled as it is: the next schedule overwrites every
                    # field, so what the handle last ran is freed beside
                    # the allocation that replaces it and the collector's
                    # young-object count sees the two cancel (DESIGN 8.1).
                    pool.append(handle)
                else:
                    # Somebody kept the handle: let go of the closure now
                    # rather than when they drop it.
                    handle._callback = _noop
                    handle._args = ()
        finally:
            self._running = False
            self._events_run += ran
        return self._now

    def run_while_pending(
        self,
        idle_grace: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Drive the loop in one call while work remains pending.

        With ``idle_grace=None`` this drains the queue completely.  With
        a grace, the run stops as
        soon as the next live event lies more than ``idle_grace`` seconds
        past the clock -- "the simulation went quiet" -- leaving far-out
        events (chaos schedules, stale coalesced timers) unexecuted.
        Raises :class:`SchedulingError` when the ``max_events`` budget
        (default :data:`DEFAULT_IDLE_MAX_EVENTS`) runs out with live
        events still due, which distinguishes a runaway schedule from a
        clean drain.
        """
        budget = DEFAULT_IDLE_MAX_EVENTS if max_events is None else max_events
        end = self.run(max_events=budget, idle_grace=idle_grace)
        if self.pending_events and not self._stopped_on_grace:
            raise SchedulingError(
                f"event loop did not go idle within {budget} events"
            )
        return end

    def __repr__(self) -> str:
        return (
            f"<EventLoop now={self._now:.6f} pending={self.pending_events} "
            f"run={self._events_run}>"
        )


class GroupTimer:
    """One logical deadline inside a :class:`TimerGroup`.

    Mirrors the :class:`EventHandle` surface the protocol layers use
    (``time``, ``cancel()``, ``cancelled``) so call sites can hold either
    interchangeably.
    """

    __slots__ = ("time", "_seq", "_callback", "_args", "cancelled", "_group")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: Tuple[Any, ...],
        group: "TimerGroup",
    ) -> None:
        self.time = time
        self._seq = seq
        self._callback = callback
        self._args = args
        self.cancelled = False  # set by cancel() alone
        self._group = group

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        self._callback = _noop
        self._args = ()
        group = self._group
        if group is not None:
            self._group = None
            group._note_cancel()

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"<GroupTimer t={self.time:.6f} {state}>"


#: How a :class:`TimerGroup` exports; the owner of a group registers it.
TIMER_FAMILIES = {
    **families("timer", ("fires",)),
    **families("timers", ("live",), kind="gauge"),
}


class TimerGroup:
    """Many logical deadlines coalesced onto one rearming loop timer.

    Protocol layers that keep one deadline per pending message (an ST
    peer's piggyback flushes and control-request retries, RKOM call
    timeouts) would otherwise schedule and cancel a loop timer per
    message.  A group keeps those deadlines in its own
    ``(time, seq)`` heap and arms a *single* loop timer at the earliest
    live deadline, rearming only when the front changes -- so loop-timer
    churn is O(groups), not O(messages), while every callback still runs
    at exactly its scheduled simulated time, FIFO at equal times.

    Unlike the loop's lazy-cancel queue, cancelled entries are dropped
    eagerly: dead heads are popped on cancellation and the whole heap is
    compacted as soon as dead entries outnumber live ones.  When the
    last live deadline is cancelled the loop timer is left armed and
    simply no-ops (rearming at whatever is live by then), so pure
    schedule/cancel churn never touches the loop; ``cancel_all`` -- the
    teardown path -- disarms it for real, leaving zero live timers.
    """

    __slots__ = ("_loop", "_heap", "_seq", "_timer", "_live", "_dead",
                 "fires")

    def __init__(self, loop: EventLoop) -> None:
        self._loop = loop
        self._heap: List[Tuple[float, int, GroupTimer]] = []
        self._seq = itertools.count()
        self._timer: Optional[EventHandle] = None
        self._live = 0
        self._dead = 0
        #: Loop-timer firings so far (telemetry: timer events per message).
        self.fires = 0

    @property
    def live(self) -> int:
        """Live (not-yet-fired, not-cancelled) deadlines in the group."""
        return self._live

    @property
    def armed(self) -> bool:
        """Whether the group currently holds a loop timer."""
        return self._timer is not None and not self._timer.cancelled

    def call_at(
        self, when: float, callback: Callable[..., None], *args: Any
    ) -> GroupTimer:
        """Run ``callback(*args)`` at simulated time ``when`` (a past
        time is clamped to now)."""
        now = self._loop._now
        if when < now:
            when = now
        elif not when < _INF:
            raise SchedulingError(f"cannot schedule deadline at {when!r}")
        entry = GroupTimer(when, next(self._seq), callback, args, self)
        heapq.heappush(self._heap, (when, entry._seq, entry))
        self._live += 1
        # Keep the loop timer armed at the heap front (the new entry is
        # not necessarily the front when scheduling re-enters mid-fire).
        front = self._heap[0][0]
        timer = self._timer
        if timer is None or timer.cancelled:
            self._timer = self._loop.call_at(front, self._fire)
        elif front < timer.time:
            timer.cancel()
            self._timer = self._loop.call_at(front, self._fire)
        return entry

    def call_after(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> GroupTimer:
        """Run ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SchedulingError(f"negative delay {delay!r}")
        return self.call_at(self._loop._now + delay, callback, *args)

    def _note_cancel(self) -> None:
        self._live -= 1
        self._dead += 1
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._dead -= 1
        if not self._live:
            # Lazily disarmed: the loop timer stays armed and fires as a
            # no-op (or rearms at whatever is live by then).  Schedule/
            # cancel churn -- the dominant pattern for retransmit and
            # flush deadlines -- then never touches the loop at all.
            self._dead = 0
            del heap[:]
            return
        if self._dead > self._live:
            live_entries = [e for e in heap if not e[2].cancelled]
            heap[:] = live_entries
            heapq.heapify(heap)
            self._dead = 0

    def _fire(self) -> None:
        self._timer = None
        self.fires += 1
        heap = self._heap
        now = self._loop._now
        while heap and heap[0][0] <= now:
            entry = heapq.heappop(heap)[2]
            if entry.cancelled:
                self._dead -= 1
                continue
            self._live -= 1
            entry._group = None
            callback, args = entry._callback, entry._args
            entry._callback = _noop
            entry._args = ()
            callback(*args)
        if heap and (self._timer is None or self._timer.cancelled):
            self._timer = self._loop.call_at(heap[0][0], self._fire)

    def cancel_all(self) -> None:
        """Cancel every pending deadline and disarm the loop timer."""
        for _, _, entry in self._heap:
            if not entry.cancelled:
                entry.cancelled = True
                entry._callback = _noop
                entry._args = ()
                entry._group = None
        del self._heap[:]
        self._live = 0
        self._dead = 0
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def __repr__(self) -> str:
        return f"<TimerGroup live={self._live} armed={self.armed}>"


class Signal:
    """A broadcast event: listeners subscribe, ``fire`` notifies them all.

    Used for RMS failure notification (basic property 3 of section 2) and
    for decoupled delivery hooks.  Listeners added during a ``fire`` are
    not invoked until the next ``fire``.
    """

    __slots__ = ("_listeners",)

    def __init__(self) -> None:
        self._listeners: List[Callable[..., None]] = []

    def listen(self, callback: Callable[..., None]) -> Callable[[], None]:
        """Subscribe; returns an unsubscribe function."""
        self._listeners.append(callback)

        def unsubscribe() -> None:
            try:
                self._listeners.remove(callback)
            except ValueError:
                pass

        return unsubscribe

    def fire(self, *args: Any) -> None:
        """Invoke every current listener synchronously with ``args``."""
        for callback in list(self._listeners):
            callback(*args)

    def __len__(self) -> int:
        return len(self._listeners)
