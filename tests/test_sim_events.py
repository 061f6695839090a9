"""Unit tests for the discrete-event loop (repro.sim.events)."""

from __future__ import annotations

import heapq
import itertools
import weakref

import pytest
from hypothesis import given, strategies as st

from repro.errors import SchedulingError
from repro.sim.events import EventLoop, Signal, TimerGroup


class TestEventLoop:
    def test_starts_at_time_zero(self):
        loop = EventLoop()
        assert loop.now == 0.0

    def test_custom_start_time(self):
        loop = EventLoop(start_time=10.0)
        assert loop.now == 10.0

    def test_call_after_advances_clock(self):
        loop = EventLoop()
        times = []
        loop.call_after(1.5, lambda: times.append(loop.now))
        loop.run()
        assert times == [1.5]
        assert loop.now == 1.5

    def test_events_run_in_time_order(self):
        loop = EventLoop()
        order = []
        loop.call_after(3.0, lambda: order.append("c"))
        loop.call_after(1.0, lambda: order.append("a"))
        loop.call_after(2.0, lambda: order.append("b"))
        loop.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_run_fifo(self):
        loop = EventLoop()
        order = []
        for tag in range(10):
            loop.call_at(1.0, order.append, tag)
        loop.run()
        assert order == list(range(10))

    def test_call_soon_runs_at_current_time(self):
        loop = EventLoop()
        seen = []
        loop.call_soon(lambda: seen.append(loop.now))
        loop.run()
        assert seen == [0.0]

    def test_scheduling_in_the_past_raises(self):
        loop = EventLoop()
        loop.call_after(1.0, lambda: None)
        loop.run()
        with pytest.raises(SchedulingError):
            loop.call_at(0.5, lambda: None)

    def test_negative_delay_raises(self):
        loop = EventLoop()
        with pytest.raises(SchedulingError):
            loop.call_after(-1.0, lambda: None)

    def test_cancelled_event_does_not_run(self):
        loop = EventLoop()
        ran = []
        handle = loop.call_after(1.0, lambda: ran.append(1))
        handle.cancel()
        loop.run()
        assert ran == []
        assert handle.cancelled

    def test_cancel_is_idempotent(self):
        loop = EventLoop()
        handle = loop.call_after(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_run_until_stops_before_later_events(self):
        loop = EventLoop()
        ran = []
        loop.call_after(1.0, lambda: ran.append("early"))
        loop.call_after(5.0, lambda: ran.append("late"))
        end = loop.run(until=2.0)
        assert ran == ["early"]
        assert end == 2.0
        assert loop.now == 2.0
        loop.run()
        assert ran == ["early", "late"]

    def test_run_until_advances_clock_even_without_events(self):
        loop = EventLoop()
        loop.run(until=7.0)
        assert loop.now == 7.0

    def test_events_scheduled_during_run_execute(self):
        loop = EventLoop()
        seen = []

        def first():
            loop.call_after(1.0, lambda: seen.append("second"))

        loop.call_after(1.0, first)
        loop.run()
        assert seen == ["second"]
        assert loop.now == 2.0

    def test_max_events_limits_execution(self):
        loop = EventLoop()
        count = []

        def recurring():
            count.append(1)
            loop.call_after(1.0, recurring)

        loop.call_after(1.0, recurring)
        loop.run(max_events=5)
        assert len(count) == 5

    def test_run_until_idle_raises_on_runaway(self):
        loop = EventLoop()

        def forever():
            loop.call_after(1.0, forever)

        loop.call_after(1.0, forever)
        with pytest.raises(SchedulingError):
            loop.run_while_pending(max_events=100)

    def test_pending_events_counts_uncancelled(self):
        loop = EventLoop()
        loop.call_after(1.0, lambda: None)
        handle = loop.call_after(2.0, lambda: None)
        handle.cancel()
        assert loop.pending_events == 1

    def test_events_run_counter(self):
        loop = EventLoop()
        for _ in range(4):
            loop.call_after(1.0, lambda: None)
        loop.run()
        assert loop.events_run == 4

    def test_reentrant_run_rejected(self):
        loop = EventLoop()
        errors = []

        def reenter():
            try:
                loop.run()
            except SchedulingError as error:
                errors.append(error)

        loop.call_after(1.0, reenter)
        loop.run()
        assert len(errors) == 1

    def test_callback_args_passed_through(self):
        loop = EventLoop()
        seen = []
        loop.call_after(1.0, lambda a, b: seen.append((a, b)), 1, "x")
        loop.run()
        assert seen == [(1, "x")]


class TestRunUntil:
    def test_run_until_matches_run_with_until(self):
        loop = EventLoop()
        ran = []
        loop.call_after(1.0, lambda: ran.append("a"))
        loop.call_after(3.0, lambda: ran.append("b"))
        end = loop.run(until=2.0)
        assert ran == ["a"]
        assert end == 2.0 == loop.now

    def test_run_until_respects_max_events(self):
        loop = EventLoop()
        count = []
        for _ in range(10):
            loop.call_after(0.5, lambda: count.append(1))
        loop.run(until=1.0, max_events=4)
        assert len(count) == 4


class TestRaisingCallback:
    def test_raising_callback_loses_no_other_event(self):
        # A callback that raises must cost exactly itself: everything
        # queued beside it still runs, once, and the counters stay true.
        loop = EventLoop()
        ran = []

        def boom():
            raise RuntimeError("boom")

        loop.call_soon(ran.append, 1)
        loop.call_soon(boom)
        loop.call_soon(ran.append, 2)
        loop.call_soon(ran.append, 3)
        loop.call_at(0.25, ran.append, "t1")
        loop.call_at(0.25, boom)
        loop.call_at(0.25, ran.append, "t2")
        for handle in [loop.call_soon(ran.append, "dead") for _ in range(3)]:
            handle.cancel()
        raised = 0
        while True:
            try:
                loop.run()
                break
            except RuntimeError:
                raised += 1
        assert raised == 2
        assert ran == [1, 2, 3, "t1", "t2"]
        assert loop.pending_events == 0
        assert loop.queue_depth == 0
        assert loop.run_while_pending() == 0.25


class _Target:
    def hit(self):
        pass


class TestHandleRelease:
    def test_kept_handle_drops_its_callback_once_run(self):
        # Whoever keeps a handle must not keep the closure alive with it.
        loop = EventLoop()
        target = _Target()
        ref = weakref.ref(target)
        handle = loop.call_soon(target.hit)
        del target
        loop.run()
        assert ref() is None
        assert not handle.cancelled

    def test_recycled_handle_drops_its_callback_on_reuse(self):
        # An unreferenced handle returns to the pool as it is; the next
        # schedule overwrites, and so releases, what it last ran.
        loop = EventLoop()
        target = _Target()
        ref = weakref.ref(target)
        loop.call_soon(target.hit)
        del target
        loop.run()
        loop.call_soon(int)
        assert ref() is None


class _RefHandle:
    def __init__(self, callback, args):
        self.callback, self.args, self.cancelled = callback, args, False

    def cancel(self):
        self.cancelled = True


class _HeapReference:
    """The oracle: one heapq of (time, seq, handle), nothing else.  It
    has the part of the EventLoop surface that ``_Driver`` uses."""

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._seq = itertools.count()

    def call_at(self, when, callback, *args):
        handle = _RefHandle(callback, args)
        heapq.heappush(self._heap, (when, next(self._seq), handle))
        return handle

    def call_soon(self, callback, *args):
        return self.call_at(self.now, callback, *args)

    @property
    def pending_events(self):
        return sum(1 for entry in self._heap if not entry[2].cancelled)

    def run(self, until=None, max_events=None):
        ran = 0
        heap = self._heap
        while True:
            while heap and heap[0][2].cancelled:
                heapq.heappop(heap)
            if not heap or (until is not None and heap[0][0] > until):
                if until is not None and self.now < until:
                    self.now = until
                return
            if ran == max_events:
                return
            self.now, _, handle = heapq.heappop(heap)
            ran += 1
            handle.callback(*handle.args)


class _Driver:
    """Applies one program to a loop; tags number the scheduled events in
    scheduling order, so equal logs mean equal dispatch order."""

    def __init__(self, loop):
        self.loop = loop
        self.log = []
        self.plans = {}    # tag -> actions to perform when it fires
        self.handles = {}  # tag -> handle, for the tags that can be cancelled

    def apply(self, action):
        kind = action[0]
        if kind == "schedule":
            _, delay, children = action
            tag = len(self.plans)
            self.plans[tag] = children
            if delay is None:
                handle = self.loop.call_soon(self._fire, tag)
            else:
                handle = self.loop.call_at(self.loop.now + delay, self._fire, tag)
            # Every third handle is dropped, so the free pool recycles.
            if tag % 3:
                self.handles[tag] = handle
        elif kind == "cancel":
            handle = self.handles.get(action[1] % max(len(self.plans), 1))
            if handle is not None:
                handle.cancel()
        elif kind == "churn":
            # Enough schedule-and-cancel to push the loop into compaction.
            first = len(self.plans)
            for i in range(90):
                self.apply(("schedule", action[1] + i * 0.0004, ()))
            for tag in range(first, first + 90):
                if tag % 9:
                    self.apply(("cancel", tag))
        else:
            _, delta, max_events = action
            until = None if delta is None else self.loop.now + delta
            self.loop.run(until=until, max_events=max_events)

    def _fire(self, tag):
        self.log.append((tag, self.loop.now))
        for action in self.plans[tag]:
            self.apply(action)

    def state(self):
        return self.log, self.loop.now, self.loop.pending_events


_DELAYS = st.one_of(
    st.none(),  # call_soon
    st.sampled_from([0.0, 0.0003, 0.0007, 0.001, 0.0042, 0.25, 0.6, 1.5]),
    st.floats(min_value=0.0, max_value=1.2, allow_nan=False),
)
_CANCELS = st.tuples(st.just("cancel"), st.integers(0, 1000))
_CHURNS = st.tuples(st.just("churn"), st.sampled_from([0.0005, 0.3, 0.7]))
_SCHEDULES = st.recursive(
    st.tuples(st.just("schedule"), _DELAYS, st.just(())),
    lambda inner: st.tuples(
        st.just("schedule"), _DELAYS,
        st.lists(st.one_of(inner, _CANCELS, _CHURNS), max_size=3).map(tuple),
    ),
    max_leaves=8,
)
_RUNS = st.tuples(
    st.just("run"),
    st.one_of(st.none(), st.sampled_from([0.0, 0.0005, 0.01, 0.7]),
              st.floats(min_value=0.0, max_value=2.0, allow_nan=False)),
    st.one_of(st.none(), st.integers(0, 6)),
)


class TestAgainstHeapReference:
    @given(st.lists(st.one_of(_SCHEDULES, _SCHEDULES, _CANCELS, _CHURNS, _RUNS),
                    max_size=30))
    def test_order_clock_and_pending_match_reference(self, program):
        real, reference = _Driver(EventLoop()), _Driver(_HeapReference())
        for action in program + [("run", None, None)]:
            real.apply(action)
            reference.apply(action)
            assert real.state() == reference.state()
        assert real.loop.pending_events == 0


class TestCancellationCompaction:
    def test_cancelled_handles_are_compacted_out(self):
        # Cancelled events must not sit in the queue indefinitely: once
        # the dead fraction passes 25% (with a floor of 64), the queue
        # compacts and queue_depth drops back to the live population.
        loop = EventLoop()
        handles = [loop.call_after(1.0 + i * 0.001, lambda: None)
                   for i in range(300)]
        assert loop.queue_depth == 300
        for handle in handles[:100]:
            handle.cancel()
        assert loop.pending_events == 200
        # Compaction ran at least once: dead entries no longer dominate.
        dead = loop.queue_depth - loop.pending_events
        assert loop.queue_depth < 300
        assert dead * 4 <= loop.queue_depth

    def test_small_cancel_counts_stay_lazy(self):
        loop = EventLoop()
        handles = [loop.call_after(1.0, lambda: None) for _ in range(10)]
        handles[0].cancel()
        # Below the compaction floor the dead entry stays queued...
        assert loop.queue_depth == 10
        # ...but is never counted as pending nor executed.
        assert loop.pending_events == 9
        loop.run()
        assert loop.events_run == 9

    def test_order_preserved_across_compaction(self):
        loop = EventLoop()
        order = []
        keep = []
        cancel = []
        for i in range(200):
            when = 1.0 + (i % 50) * 0.01
            handle = loop.call_at(when, order.append, (when, i))
            (cancel if i % 2 else keep).append(handle)
        for handle in cancel:
            handle.cancel()
        loop.run()
        assert order == sorted(order, key=lambda pair: pair[0])
        assert len(order) == len(keep)

    def test_cancel_after_run_does_not_corrupt_queue(self):
        loop = EventLoop()
        handle = loop.call_after(1.0, lambda: None)
        loop.run()
        handle.cancel()  # stale cancel on an executed event
        ran = []
        loop.call_after(1.0, lambda: ran.append(1))
        loop.run()
        assert ran == [1]
        assert loop.pending_events == 0


class TestSignal:
    def test_fire_notifies_all_listeners(self):
        loop = EventLoop()
        signal = Signal(loop)
        seen = []
        signal.listen(lambda value: seen.append(("first", value)))
        signal.listen(lambda value: seen.append(("second", value)))
        signal.fire(42)
        assert seen == [("first", 42), ("second", 42)]

    def test_unsubscribe(self):
        loop = EventLoop()
        signal = Signal(loop)
        seen = []
        unsubscribe = signal.listen(seen.append)
        unsubscribe()
        signal.fire(1)
        assert seen == []

    def test_unsubscribe_twice_is_harmless(self):
        loop = EventLoop()
        signal = Signal(loop)
        unsubscribe = signal.listen(lambda: None)
        unsubscribe()
        unsubscribe()

    def test_fire_count(self):
        loop = EventLoop()
        signal = Signal(loop)
        signal.fire()
        signal.fire()
        assert signal.fire_count == 2

    def test_fire_soon_defers_to_loop(self):
        loop = EventLoop()
        signal = Signal(loop)
        seen = []
        signal.listen(seen.append)
        signal.fire_soon(9)
        assert seen == []
        loop.run()
        assert seen == [9]

    def test_listener_count(self):
        loop = EventLoop()
        signal = Signal(loop)
        signal.listen(lambda: None)
        signal.listen(lambda: None)
        assert len(signal) == 2


class TestTimerGroup:
    """Coalesced deadlines: one loop timer per group, exact fire times."""

    def test_callbacks_fire_at_exact_times_fifo(self):
        loop = EventLoop()
        group = TimerGroup(loop)
        order = []
        group.call_after(2.0, lambda: order.append(("b", loop.now)))
        group.call_after(1.0, lambda: order.append(("a", loop.now)))
        group.call_at(2.0, lambda: order.append(("c", loop.now)))
        loop.run()
        assert order == [("a", 1.0), ("b", 2.0), ("c", 2.0)]

    def test_single_loop_timer_for_many_deadlines(self):
        loop = EventLoop()
        group = TimerGroup(loop)
        sink = []
        for index in range(100):
            group.call_after(0.5, sink.append, index)
        loop.run()
        assert sink == list(range(100))
        # 100 deadlines at one instant cost one loop-timer firing.
        assert group.fires == 1

    def test_earlier_deadline_rearms_loop_timer(self):
        loop = EventLoop()
        group = TimerGroup(loop)
        order = []
        group.call_after(5.0, order.append, "late")
        group.call_after(1.0, order.append, "early")
        loop.run()
        assert order == ["early", "late"]

    def test_cancel_drops_live_count_eagerly(self):
        loop = EventLoop()
        group = TimerGroup(loop)
        handles = [group.call_after(1.0, lambda: None) for _ in range(10)]
        assert group.live == 10
        for handle in handles[:4]:
            handle.cancel()
        assert group.live == 6
        assert handles[0].cancelled
        handles[0].cancel()  # idempotent
        assert group.live == 6

    def test_cancelling_last_deadline_is_a_noop_fire(self):
        loop = EventLoop()
        group = TimerGroup(loop)
        fired = []
        group.call_after(1.0, fired.append, "x").cancel()
        # Lazy disarm: the loop timer stays armed and no-ops.
        assert group.live == 0
        assert group.armed
        loop.run()
        assert fired == []
        assert not group.armed

    def test_schedule_cancel_churn_never_rearms(self):
        loop = EventLoop()
        group = TimerGroup(loop)
        group.call_after(1.0, lambda: None).cancel()
        timer_after_first = group._timer
        for _ in range(50):
            group.call_after(1.0, lambda: None).cancel()
        # Pure churn at or past the armed deadline reuses the one timer.
        assert group._timer is timer_after_first

    def test_noop_fire_rearms_for_later_deadline(self):
        loop = EventLoop()
        group = TimerGroup(loop)
        fired = []
        group.call_after(1.0, lambda: None).cancel()
        group.call_after(3.0, fired.append, "late")
        loop.run()
        assert fired == ["late"]
        assert loop.now == 3.0

    def test_cancel_all_disarms_for_real(self):
        loop = EventLoop()
        group = TimerGroup(loop)
        sink = []
        for _ in range(5):
            group.call_after(1.0, sink.append, "never")
        group.cancel_all()
        assert group.live == 0
        assert not group.armed
        loop.run()
        assert sink == []

    def test_rescheduling_inside_callback(self):
        loop = EventLoop()
        group = TimerGroup(loop)
        times = []

        def step():
            times.append(loop.now)
            if len(times) < 3:
                group.call_after(1.0, step)

        group.call_after(1.0, step)
        loop.run()
        assert times == [1.0, 2.0, 3.0]

    def test_negative_delay_rejected(self):
        loop = EventLoop()
        group = TimerGroup(loop)
        with pytest.raises(SchedulingError):
            group.call_after(-0.1, lambda: None)

    def test_past_deadline_clamped_to_now(self):
        loop = EventLoop()
        loop.call_after(2.0, lambda: None)
        loop.run()
        group = TimerGroup(loop)
        seen = []
        group.call_at(0.5, lambda: seen.append(loop.now))
        loop.run()
        assert seen == [2.0]

    def test_empty_group_is_truthy(self):
        loop = EventLoop()
        group = TimerGroup(loop)
        assert len(group) == 0
        # ``group or loop`` fallbacks must pick the (empty) group.
        assert (group or loop) is group
