"""Unit tests for the discrete-event loop (repro.sim.events)."""

from __future__ import annotations

import heapq
import itertools
import random
import time
import weakref

import pytest
from hypothesis import example, given, strategies as st

from repro.errors import SchedulingError
from repro.sim.events import EventLoop, Signal, TimerGroup


class TestEventLoop:
    def test_starts_at_time_zero(self):
        loop = EventLoop()
        assert loop.now == 0.0

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


class TestBudgetStopInsideOneInstant:
    def test_heap_and_deque_entries_of_one_instant_keep_their_order(self):
        # Three timers fall due at t=1 (queued before the clock got
        # there); what they and the caller add at t=1 goes behind them.
        # Stepping one event at a time must not reorder the two sources
        # nor let the clock leave t=1 while anything due there is queued.
        loop = EventLoop()
        order = []

        def first():
            order.append("h0")
            loop.call_soon(order.append, "d0")
            loop.call_at(loop.now, order.append, "d1")
            loop.call_after(0.0, order.append, "d2")

        loop.call_at(1.0, first)
        loop.call_at(1.0, order.append, "h1")
        dead = loop.call_at(1.0, order.append, "dead")
        loop.call_at(1.0, order.append, "h2")
        loop.call_at(2.0, order.append, "later")
        loop.run(max_events=1)
        assert order == ["h0"] and loop.now == 1.0
        # Between two runs, still at t=1: behind everything queued.
        loop.call_soon(order.append, "d3")
        dead.cancel()
        expected = ["h0", "h1", "h2", "d0", "d1", "d2", "d3"]
        while len(order) < len(expected):
            assert loop.pending_events == len(expected) - len(order) + 1
            loop.run(max_events=1)
            assert loop.now == 1.0
        assert order == expected
        loop.run(until=1.5, max_events=0)
        assert loop.now == 1.5  # nothing queued at or before 1.5
        loop.run(max_events=1)
        assert order == expected + ["later"] and loop.now == 2.0
        assert loop.queue_depth == 0


class TestNonFiniteTimes:
    """A time that is not ``now <= when < inf`` is refused before any
    state is touched: a counted-but-unqueued handle would keep the loop
    from ever reading idle, and a NaN would break heap order silently."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_loop_rejects_and_keeps_its_accounting(self, bad):
        loop = EventLoop()
        loop.call_after(1.0, lambda: None)
        for schedule in (loop.call_at, loop.call_after):
            with pytest.raises(SchedulingError):
                schedule(bad, lambda: None)
            assert loop.pending_events == 1
            assert loop.queue_depth == 1
        assert loop.run_while_pending() == 1.0
        assert loop.pending_events == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_timer_group_rejects_and_stays_empty(self, bad):
        loop = EventLoop()
        group = TimerGroup(loop)
        for schedule in (group.call_at, group.call_after):
            with pytest.raises(SchedulingError):
                schedule(bad, lambda: None)
            assert group.live == 0
            assert not group.armed
            assert loop.pending_events == 0
            assert loop.queue_depth == 0


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

    def call_after(self, delay, callback, *args):
        return self.call_at(self.now + delay, callback, *args)

    def call_soon(self, callback, *args):
        return self.call_at(self.now, callback, *args)

    @property
    def pending_events(self):
        return sum(1 for entry in self._heap if not entry[2].cancelled)

    def run(self, until=None, max_events=None, idle_grace=None):
        ran = 0
        heap = self._heap
        while True:
            while heap and heap[0][2].cancelled:
                heapq.heappop(heap)
            if not heap or (until is not None and heap[0][0] > until):
                if until is not None and self.now < until:
                    self.now = until
                return
            if idle_grace is not None and heap[0][0] - self.now > idle_grace:
                return  # gone quiet: the clock stays at the last event run
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
            elif tag % 2:
                handle = self.loop.call_after(delay, self._fire, tag)
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
            _, delta, max_events, grace = action
            until = None if delta is None else self.loop.now + delta
            self.loop.run(until=until, max_events=max_events, idle_grace=grace)

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
_BUDGETS = st.one_of(st.none(), st.integers(0, 6))
_RUNS = st.one_of(
    # run(until=now + delta, max_events=...)
    st.tuples(
        st.just("run"),
        st.one_of(st.none(), st.sampled_from([0.0, 0.0005, 0.01, 0.7]),
                  st.floats(min_value=0.0, max_value=2.0, allow_nan=False)),
        _BUDGETS,
        st.none(),
    ),
    # run(idle_grace=..., max_events=...): until and grace are exclusive
    st.tuples(
        st.just("run"),
        st.none(),
        _BUDGETS,
        st.one_of(st.sampled_from([0.0, 0.0004, 0.001, 0.25, 0.6]),
                  st.floats(min_value=0.0, max_value=1.5, allow_nan=False)),
    ),
)


class TestAgainstHeapReference:
    @given(st.lists(st.one_of(_SCHEDULES, _SCHEDULES, _CANCELS, _CHURNS, _RUNS),
                    max_size=30))
    # A spent budget with only a cancelled event due: the dead event is
    # discarded and the clock still lands on ``until``.
    @example([("schedule", 0.0007, ()), ("schedule", None, ()),
              ("cancel", 1), ("run", 0.0005, 0, None)])
    def test_order_clock_and_pending_match_reference(self, program):
        real, reference = _Driver(EventLoop()), _Driver(_HeapReference())
        for action in program + [("run", None, None, None)]:
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

    def test_hundred_thousand_timers_half_cancelled(self):
        # A depth no workload reaches (the ledger's queue_depth_max is
        # 1-78): timers spread over 600 s, half cancelled in random order.
        rng = random.Random(17)
        loop = EventLoop()
        order = []
        started = time.perf_counter()
        entries = []
        for seq in range(100_000):
            when = rng.uniform(0.0, 600.0)
            entries.append((when, seq, loop.call_at(when, order.append, seq)))
        assert loop.queue_depth == 100_000
        doomed = rng.sample(range(100_000), 50_000)
        for seq in doomed:
            entries[seq][2].cancel()
            # The compaction rule: dead entries stay below a quarter of
            # the queue (or below the floor of 64).
            assert loop.queue_depth <= loop.pending_events * 4 / 3 + 64
        assert loop.pending_events == 50_000
        dead = set(doomed)
        survivors = sorted(entry[:2] for entry in entries if entry[1] not in dead)
        del entries
        end = loop.run()
        assert order == [seq for _, seq in survivors]
        assert end == survivors[-1][0]
        assert loop.queue_depth == 0
        # An O(queue) step per event would take minutes here.
        assert time.perf_counter() - started < 60.0

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
        assert group.live == 0
        # ``group or loop`` fallbacks must pick the (empty) group.
        assert (group or loop) is group
