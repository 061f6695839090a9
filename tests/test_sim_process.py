"""Unit tests for generator processes, futures, and ports."""

from __future__ import annotations

from collections import deque

import pytest

from repro.errors import ProcessError, SimulationError
from repro.sim.context import SimContext
from repro.sim.events import EventLoop
from repro.sim.ports import FlowControlledPort, Port
from repro.sim.process import Future, Process


class TestFuture:
    def test_resolve_and_result(self):
        loop = EventLoop()
        future = Future(loop)
        assert not future.done
        future.set_result(7)
        assert future.done
        assert future.result() == 7

    def test_result_before_resolution_raises(self):
        future = Future(EventLoop())
        with pytest.raises(ProcessError):
            future.result()

    def test_exception_propagates(self):
        future = Future(EventLoop())
        future.set_exception(ValueError("boom"))
        assert future.failed
        with pytest.raises(ValueError):
            future.result()

    def test_double_resolution_raises(self):
        future = Future(EventLoop())
        future.set_result(1)
        with pytest.raises(ProcessError):
            future.set_result(2)

    def test_callbacks_run_via_loop(self):
        loop = EventLoop()
        future = Future(loop)
        seen = []
        future.add_done_callback(lambda f: seen.append(f.result()))
        future.set_result("x")
        assert seen == []  # deferred to the loop
        loop.run()
        assert seen == ["x"]

    def test_callback_after_resolution_still_runs(self):
        loop = EventLoop()
        future = Future(loop)
        future.set_result(3)
        seen = []
        future.add_done_callback(lambda f: seen.append(f.result()))
        loop.run()
        assert seen == [3]


class TestProcess:
    def test_sleep_advances_time(self):
        context = SimContext()

        def worker():
            yield 2.5
            return context.now

        process = context.spawn(worker())
        context.run()
        assert process.finished.result() == 2.5

    def test_yield_none_is_same_time_slot(self):
        context = SimContext()
        trace = []

        def worker():
            trace.append(context.now)
            yield None
            trace.append(context.now)

        context.spawn(worker())
        context.run()
        assert trace == [0.0, 0.0]

    def test_await_future_returns_value(self):
        context = SimContext()
        future = Future(context.loop)

        def worker():
            value = yield future
            return value * 2

        process = context.spawn(worker())
        context.loop.call_after(1.0, future.set_result, 21)
        context.run()
        assert process.finished.result() == 42

    def test_future_exception_raises_inside_process(self):
        context = SimContext()
        future = Future(context.loop)
        caught = []

        def worker():
            try:
                yield future
            except ValueError as error:
                caught.append(error)

        context.spawn(worker())
        context.loop.call_after(1.0, future.set_exception, ValueError("x"))
        context.run()
        assert len(caught) == 1

    def test_uncaught_exception_fails_finished_future(self):
        context = SimContext()

        def worker():
            yield 1.0
            raise RuntimeError("crash")

        process = context.spawn(worker())
        context.run()
        assert process.finished.failed

    def test_negative_sleep_fails_process(self):
        context = SimContext()

        def worker():
            yield -1.0

        process = context.spawn(worker())
        context.run()
        assert process.finished.failed

    def test_unsupported_yield_fails_process(self):
        context = SimContext()

        def worker():
            yield "nonsense"

        process = context.spawn(worker())
        context.run()
        assert process.finished.failed

    def test_stop_without_exception(self):
        context = SimContext()

        def worker():
            while True:
                yield 1.0

        process = context.spawn(worker())
        context.run(until=3.0)
        process.stop()
        assert process.finished.result() is None

    def test_non_generator_rejected(self):
        context = SimContext()
        with pytest.raises(ProcessError):
            Process(context.loop, lambda: None)  # type: ignore[arg-type]

    def test_nested_generators_via_yield_from(self):
        context = SimContext()

        def inner():
            yield 1.0
            return "inner-done"

        def outer():
            result = yield from inner()
            yield 1.0
            return result

        process = context.spawn(outer())
        context.run()
        assert process.finished.result() == "inner-done"
        assert context.now == 2.0


class TestPort:
    def test_deliver_then_get(self):
        context = SimContext()
        port = Port(context.loop)
        port.deliver("m1")
        future = port.get()
        assert future.result() == "m1"

    def test_get_then_deliver(self):
        context = SimContext()
        port = Port(context.loop)
        future = port.get()
        port.deliver("m2")
        assert future.result() == "m2"

    def test_fifo_order(self):
        context = SimContext()
        port = Port(context.loop)
        for index in range(5):
            port.deliver(index)
        values = [port.get().result() for _ in range(5)]
        assert values == list(range(5))

    def test_callback_mode(self):
        context = SimContext()
        seen = []
        port = Port(context.loop, on_deliver=seen.append)
        port.deliver("x")
        assert seen == ["x"]
        with pytest.raises(SimulationError):
            port.get()

    def test_set_handler_replays_queued(self):
        context = SimContext()
        port = Port(context.loop)
        port.deliver(1)
        port.deliver(2)
        seen = []
        port.set_handler(seen.append)
        assert seen == [1, 2]
        port.deliver(3)
        assert seen == [1, 2, 3]

    def test_delivered_count(self):
        context = SimContext()
        port = Port(context.loop)
        port.deliver("a")
        port.deliver("b")
        assert port.delivered_count == 2

    def test_callback_driven_port_holds_no_deque(self):
        context = SimContext()
        seen = []
        ports = [Port(context.loop, on_deliver=seen.append),
                 Port(context.loop)]
        ports[1].set_handler(seen.append)
        for port in ports:
            for item in range(3):
                port.deliver(item)
            assert len(port) == 0
            assert not any(isinstance(getattr(port, name), deque)
                           for name in Port.__slots__)
        assert seen == [0, 1, 2] * 2

    def test_mailbox_serves_getters_then_items_in_order(self):
        context = SimContext()
        port = Port(context.loop)
        early = [port.get(), port.get()]
        for item in range(4):
            port.deliver(item)
        assert [future.result() for future in early] == [0, 1]
        assert len(port) == 2 and "queued=2" in repr(port)
        assert [port.get().result() for _ in range(2)] == [2, 3]
        late = port.get()
        port.deliver(4)
        assert late.result() == 4 and len(port) == 0


class TestFlowControlledPort:
    def test_put_below_limit_is_immediate(self):
        context = SimContext()
        port = FlowControlledPort(context.loop, limit=2)
        assert port.put("a").done
        assert port.put("b").done

    def test_put_beyond_limit_blocks_until_take(self):
        context = SimContext()
        port = FlowControlledPort(context.loop, limit=1)
        port.put("a")
        blocked = port.put("b")
        assert not blocked.done
        taken = port.take()
        assert taken.result() == "a"
        assert blocked.done
        assert port.blocked_puts == 1

    def test_take_before_put_hands_item_directly(self):
        context = SimContext()
        port = FlowControlledPort(context.loop, limit=1)
        taken = port.take()
        port.put("x")
        assert taken.result() == "x"

    def test_sender_process_blocks_at_limit(self):
        """The paper's sender flow control: producer suspends when full."""
        context = SimContext()
        port = FlowControlledPort(context.loop, limit=2)
        progress = []

        def producer():
            for index in range(5):
                yield port.put(index)
                progress.append(index)

        def consumer():
            yield 1.0
            while True:
                yield port.take()
                yield 1.0

        context.spawn(producer())
        context.spawn(consumer())
        context.run(until=0.5)
        # Producer filled the port (limit 2) plus one pending put accepted
        # only after a take; it cannot have finished yet.
        assert len(progress) < 5
        context.run(until=10.0)
        assert progress == [0, 1, 2, 3, 4]

    def test_zero_limit_rejected(self):
        context = SimContext()
        with pytest.raises(SimulationError):
            FlowControlledPort(context.loop, limit=0)
