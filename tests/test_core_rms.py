"""Tests for messages and the RMS base class."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.message import Label, Message
from repro.core.params import DelayBound, DelayBoundType, RmsParams
from repro.core.rms import Rms, RmsLevel, RmsState
from repro.errors import MessageTooLargeError, ParameterError, RmsFailedError
from repro.sim.context import SimContext


class LoopbackRms(Rms):
    """A test provider delivering after a fixed latency."""

    def __init__(self, context, params, latency=0.01, **kwargs):
        super().__init__(
            context, params, Label("a", "p"), Label("b", "p"), **kwargs
        )
        self.latency = latency

    def _transmit(self, message):
        self.context.loop.call_after(
            self.latency, self._deliver, message, message.message_id)


@pytest.fixture
def context():
    return SimContext(seed=9)


@pytest.fixture
def params():
    return RmsParams(
        capacity=10_000,
        max_message_size=1_000,
        delay_bound=DelayBound(0.1, 1e-6),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
    )


class TestMessage:
    def test_payload_must_be_bytes(self):
        with pytest.raises(ParameterError):
            Message("not bytes")  # type: ignore[arg-type]

    def test_bytearray_accepted_and_frozen(self):
        message = Message(bytearray(b"abc"))
        assert message.payload == b"abc"
        assert isinstance(message.payload, bytes)

    def test_size_is_payload_length(self):
        assert Message(b"12345").size == 5

    def test_wire_size_accounts_labels(self):
        bare = Message(b"1234")
        labeled = Message(b"1234", source=Label("a"), target=Label("b"))
        assert bare.wire_size == 4
        assert labeled.wire_size == 4 + 8 + 8

    def test_delay_requires_both_stamps(self):
        message = Message(b"x")
        assert message.delay is None
        message.send_time = 1.0
        message.deliver_time = 1.5
        assert message.delay == pytest.approx(0.5)

    def test_message_ids_increase(self):
        first = Message(b"")
        second = Message(b"")
        assert second.message_id > first.message_id

    def test_label_string(self):
        assert str(Label("host1", "port9")) == "host1:port9"


class TestRmsBasicProperties:
    def test_message_boundaries_preserved(self, context, params):
        """Basic property 1: each send is one delivery."""
        rms = LoopbackRms(context, params)
        got = []
        rms.port.set_handler(lambda m: got.append(m))
        rms.send(b"a" * 100)
        rms.send(b"b" * 200)
        context.run()
        assert [m.size for m in got] == [100, 200]

    def test_in_sequence_delivery(self, context, params):
        """Basic property 2: delivery order matches send order."""
        rms = LoopbackRms(context, params)
        got = []
        rms.port.set_handler(lambda m: got.append(m.payload[0]))
        for index in range(20):
            rms.send(bytes([index]))
        context.run()
        assert got == list(range(20))

    @pytest.mark.parametrize("observe", [False, True])
    def test_out_of_order_delivery_is_counted(self, params, observe):
        """A provider that breaks property 2 is counted, never silent:
        both messages still reach the client, and the counter, span and
        registry series name the violation."""

        class SwappingRms(Rms):
            """Holds each odd message and delivers it after the next."""

            held = None

            def _transmit(self, message):
                if self.held is None:
                    self.held = message
                else:
                    self._deliver(message, message.message_id)
                    self._deliver(self.held, self.held.message_id)
                    self.held = None

        context = SimContext(seed=9, observe=observe)
        rms = SwappingRms(context, params, Label("a", "p"), Label("b", "p"))
        got = []
        rms.port.set_handler(lambda m: got.append(m.payload))
        first = rms.send(b"one")
        rms.send(b"two")
        context.run()
        assert got == [b"two", b"one"]
        assert rms.stats.out_of_order == 1
        assert rms.stats.messages_delivered == 2
        if observe:
            events = [e.event for e in context.obs.spans.events_for(first.trace_id)]
            assert events == ["send", "deliver", "out_of_order"]
            labels = dict(layer=rms.layer, rms=rms.name)
            assert context.obs.metrics.get("rms_messages_out_of_order", **labels) == 1
            assert context.obs.metrics.get("rms_messages_late", **labels) == 0

    def test_failure_notifies_clients(self, context, params):
        """Basic property 3: clients are notified of RMS failure."""
        rms = LoopbackRms(context, params)
        notified = []
        rms.on_failure.listen(lambda r, reason: notified.append(reason))
        rms.fail("link died")
        assert notified == ["link died"]
        assert rms.state is RmsState.FAILED

    def test_send_after_failure_raises(self, context, params):
        rms = LoopbackRms(context, params)
        rms.fail()
        with pytest.raises(RmsFailedError):
            rms.send(b"x")

    def test_send_after_delete_raises(self, context, params):
        rms = LoopbackRms(context, params)
        rms.delete()
        with pytest.raises(RmsFailedError):
            rms.send(b"x")

    def test_fail_is_idempotent(self, context, params):
        rms = LoopbackRms(context, params)
        count = []
        rms.on_failure.listen(lambda r, reason: count.append(1))
        rms.fail()
        rms.fail()
        assert len(count) == 1


class TestRmsEnforcement:
    def test_max_message_size_enforced(self, context, params):
        """Section 2.2: the MMS limit is enforced by the sender."""
        rms = LoopbackRms(context, params)
        with pytest.raises(MessageTooLargeError):
            rms.send(b"x" * 1001)

    def test_capacity_violations_counted_not_blocked(self, context, params):
        """Section 4.4: the provider counts but does not block."""
        rms = LoopbackRms(context, params, latency=1.0)
        for _ in range(15):  # 15 kB outstanding > 10 kB capacity
            rms.send(b"x" * 1000)
        assert rms.stats.capacity_violations > 0
        assert rms.stats.messages_sent == 15

    def test_outstanding_bytes_tracked(self, context, params):
        rms = LoopbackRms(context, params, latency=0.5)
        rms.send(b"x" * 400)
        assert rms.outstanding_bytes == 400
        context.run()
        assert rms.outstanding_bytes == 0

    def test_late_delivery_counted(self, context, params):
        slow = LoopbackRms(context, params, latency=0.5)  # bound is 0.1 s
        slow.send(b"x" * 100)
        context.run()
        assert slow.stats.messages_late == 1

    def test_on_time_delivery_not_late(self, context, params):
        fast = LoopbackRms(context, params, latency=0.01)
        got = []
        fast.port.set_handler(got.append)
        fast.send(b"x" * 100)
        context.run()
        assert fast.stats.messages_late == 0
        assert [message.delay for message in got] == [pytest.approx(0.01)]

    def test_explicit_deadline_overrides_bound(self, context, params):
        rms = LoopbackRms(context, params)
        message = rms.send(b"x", deadline=context.now + 0.042)
        assert message.deadline == pytest.approx(0.042)

    def test_drop_accounting(self, context, params):
        rms = LoopbackRms(context, params)
        message = rms.send(b"x" * 100)
        rms._drop(message, "test")
        assert rms.stats.messages_dropped == 1
        assert rms.outstanding_bytes == 0

    def test_levels_enumeration(self):
        assert RmsLevel.NETWORK < RmsLevel.SUBTRANSPORT


class TestRmsSend:
    """``Rms.send``'s deadline, computed per message from the bound's
    terms, and its two arms."""

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=8))
    def test_deadline_is_now_plus_bound_exactly(self, sizes):
        context = SimContext(seed=9)
        bound = DelayBound(0.1, 1e-6)
        rms = LoopbackRms(context, RmsParams(
            capacity=10**6, max_message_size=1000, delay_bound=bound,
            delay_bound_type=DelayBoundType.BEST_EFFORT))
        for size in sizes + sizes:
            now = context.run(until=context.now + 0.013)
            message = rms.send(b"x" * size)
            assert message.send_time == now
            assert message.deadline == now + bound.bound_for(size)

    def test_unbounded_stream_leaves_deadline_unset(self, context):
        rms = LoopbackRms(context, RmsParams(
            capacity=10_000, max_message_size=1_000))
        assert rms.params.delay_bound.is_unbounded
        assert rms.send(b"x" * 10).deadline is None
        assert rms.send(b"x" * 10).deadline is None

    def test_explicit_deadline_wins(self, context, params):
        rms = LoopbackRms(context, params)
        assert rms.send(b"x" * 10, deadline=0.042).deadline == 0.042

    def test_payload_types_keep_their_validation(self, context, params):
        rms = LoopbackRms(context, params)
        buffer = bytearray(b"abc")
        snapshot = rms.send(buffer)
        buffer[0] = 0
        assert snapshot.payload == b"abc" and type(snapshot.payload) is bytes
        view = memoryview(b"defg")
        assert rms.send(view).payload is view
        with pytest.raises(ParameterError):
            rms.send("text")  # type: ignore[arg-type]
        prepared = Message(b"hi")
        assert rms.send(prepared) is prepared
        sent = rms.send(b"raw")
        assert (sent.source, sent.target) == (rms.sender, rms.receiver)
        assert (sent.deliver_time, sent.trace_id) == (None, None)

    def test_too_large_raises_before_any_counter_moves(self, context, params):
        rms = LoopbackRms(context, params)
        for payload in (b"x" * 1001, bytearray(1001)):
            with pytest.raises(MessageTooLargeError):
                rms.send(payload)
        stats = rms.stats
        assert (stats.messages_sent, stats.bytes_sent,
                rms.outstanding_bytes) == (0, 0, 0)

    def test_consecutive_sends_draw_consecutive_ids(self, context, params):
        rms = LoopbackRms(context, params)
        payloads = [b"a", bytearray(b"b"), b"c", memoryview(b"d"), b"e"]
        ids = [rms.send(payload).message_id for payload in payloads]
        assert ids == list(range(ids[0], ids[0] + len(payloads)))
