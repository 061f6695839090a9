"""Integration tests for the stream protocol (sections 2.5, 3.3, 4.4)."""

from __future__ import annotations

import pytest

from repro.netsim.ethernet import EthernetNetwork
from repro.netsim.topology import Host
from repro.security.keys import KeyRegistry
from repro.sim.context import SimContext
from repro.subtransport.st import SubtransportLayer
from repro.transport.flowcontrol import FlowControlMode
from repro.transport import stream
from repro.transport.stream import StreamConfig, open_stream
from repro.errors import ParameterError


def build(seed=42, **net_kwargs):
    context = SimContext(seed=seed)
    defaults = dict(trusted=True)
    defaults.update(net_kwargs)
    network = EthernetNetwork(context, **defaults)
    host_a, host_b = Host(context, "a"), Host(context, "b")
    network.attach(host_a)
    network.attach(host_b)
    keys = KeyRegistry()
    st_a = SubtransportLayer(context, host_a, [network], key_registry=keys)
    st_b = SubtransportLayer(context, host_b, [network], key_registry=keys)
    return context, network, st_a, st_b


def open_session(context, st_a, st_b, config=None, until=3.0):
    future = open_stream(context, st_a, st_b, config)
    context.run(until=context.now + until)
    return future.result()


def drain(context, session, count, rate=None):
    received = []

    def consumer():
        for _ in range(count):
            message = yield session.receive()
            received.append(message)
            if rate is not None:
                yield 1.0 / rate

    context.spawn(consumer())
    return received


class TestStreamBasics:
    def test_in_order_reliable_delivery(self):
        context, _net, st_a, st_b = build()
        session = open_session(context, st_a, st_b)
        received = drain(context, session, 30)
        for index in range(30):
            session.send(bytes([index]) * 600)
        context.run(until=context.now + 10.0)
        assert len(received) == 30
        assert [m[0] for m in received] == list(range(30))

    def test_uses_data_and_ack_rms(self):
        context, _net, st_a, st_b = build()
        session = open_session(context, st_a, st_b)
        assert session.data_rms is not None
        assert session.ack_rms is not None
        # Ack RMS per section 2.5: low capacity relative to data.
        assert session.ack_rms.params.capacity < session.data_rms.params.capacity

    def test_reliability_over_lossy_network(self, monkeypatch):
        monkeypatch.setattr(stream, "RETRANSMIT_TIMEOUT", 0.2)
        context, _net, st_a, st_b = build(seed=5, frame_loss_rate=0.2)
        session = open_session(context, st_a, st_b, until=10.0)
        received = drain(context, session, 25)

        def producer():
            # Spaced sends so messages ride separate frames and loss
            # actually bites.
            for index in range(25):
                session.send(bytes([index]) * 400)
                yield 0.02

        context.spawn(producer())
        context.run(until=context.now + 120.0)
        assert len(received) == 25
        assert [m[0] for m in received] == list(range(25))
        assert session.stats.retransmissions > 0

    def test_unreliable_stream_drops_stay_dropped(self):
        context, _net, st_a, st_b = build(seed=6, frame_loss_rate=0.15)
        config = StreamConfig(
            reliable=False,
            capacity_mode=None,
            flow_control=FlowControlMode.NONE,
        )
        session = open_session(context, st_a, st_b, config, until=10.0)
        for index in range(40):
            session.send(bytes([index]) * 400)
        context.run(until=context.now + 10.0)
        assert session.stats.retransmissions == 0
        assert session.stats.messages_delivered < 40

    def test_window_never_exceeds_rms_capacity(self):
        """Section 5: the fixed window size is the RMS capacity."""
        context, _net, st_a, st_b = build()
        config = StreamConfig(capacity_mode="ack", data_capacity=8192)
        session = open_session(context, st_a, st_b, config)
        drain(context, session, 50)
        for index in range(50):
            session.send(bytes([index]) * 1000)
        max_outstanding = 0

        def watch():
            nonlocal max_outstanding
            for _ in range(200):
                max_outstanding = max(
                    max_outstanding, session.data_rms.outstanding_bytes
                )
                yield 0.005

        context.spawn(watch())
        context.run(until=context.now + 10.0)
        assert max_outstanding <= 8192
        assert session.data_rms.stats.capacity_violations == 0

    def test_rate_based_capacity_mode(self):
        context, _net, st_a, st_b = build()
        config = StreamConfig(
            capacity_mode="rate",
            data_capacity=8192,
            data_delay_bound=0.05,
        )
        session = open_session(context, st_a, st_b, config)
        drain(context, session, 30)
        for index in range(30):
            session.send(bytes([index]) * 1000)
        context.run(until=context.now + 10.0)
        assert session.stats.messages_delivered == 30
        assert session.data_rms.stats.capacity_violations == 0


class TestReceiverFlowControl:
    def test_slow_receiver_stalls_sender(self):
        context, _net, st_a, st_b = build()
        config = StreamConfig(
            flow_control=FlowControlMode.CAPACITY_AND_RECEIVER,
            receive_buffer=4096,
        )
        session = open_session(context, st_a, st_b, config)
        received = drain(context, session, 40, rate=20.0)  # 20 msg/s consumer
        for index in range(40):
            session.send(bytes([index]) * 1000)
        context.run(until=context.now + 30.0)
        assert len(received) == 40
        assert session._credit is not None and session._credit.sends_delayed > 0
        assert session.stats.receiver_overflow_drops == 0

    def test_no_receiver_fc_slow_consumer_overflows(self):
        """Without receiver flow control a slow receiver drops messages."""
        context, _net, st_a, st_b = build()
        config = StreamConfig(
            reliable=False,
            capacity_mode=None,
            flow_control=FlowControlMode.NONE,
            receive_buffer=3000,
        )
        session = open_session(context, st_a, st_b, config)
        drain(context, session, 40, rate=5.0)  # very slow consumer
        for index in range(40):
            session.send(bytes([index]) * 1000)
        context.run(until=context.now + 10.0)
        assert session.stats.receiver_overflow_drops > 0


class TestSenderFlowControl:
    def test_sender_port_blocks_producer(self):
        """Section 4.4: 'A sender blocks when a port queue size limit is
        reached.'"""
        context, _net, st_a, st_b = build()
        config = StreamConfig(
            flow_control=FlowControlMode.END_TO_END,
            sender_port_limit=4,
            receive_buffer=4096,
        )
        session = open_session(context, st_a, st_b, config)
        drain(context, session, 30, rate=30.0)
        progress = []

        def producer():
            for index in range(30):
                yield session.send(bytes([index]) * 1000)
                progress.append(context.now)

        context.spawn(producer())
        context.run(until=context.now + 30.0)
        assert len(progress) == 30
        # The producer was paced: sends span a nontrivial interval.
        assert progress[-1] - progress[0] > 0.1
        assert session.tx_port.blocked_puts > 0


class TestFastAckStream:
    def test_fast_ack_replaces_ack_rms(self):
        context, _net, st_a, st_b = build()
        config = StreamConfig(
            reliable=True,
            capacity_mode="ack",
            flow_control=FlowControlMode.CAPACITY_ONLY,
            use_fast_ack=True,
            record_size=512,
        )
        session = open_session(context, st_a, st_b, config)
        assert session.ack_rms is None
        received = drain(context, session, 20)
        for index in range(20):
            session.send(bytes([index]) * 512)
        context.run(until=context.now + 10.0)
        assert len(received) == 20
        assert session.all_acked

    def test_record_size_enforced(self):
        context, _net, st_a, st_b = build()
        config = StreamConfig(use_fast_ack=True, record_size=512)
        session = open_session(context, st_a, st_b, config)
        with pytest.raises(ParameterError):
            session.send(b"wrong size")

    def test_fast_ack_without_record_size_rejected(self):
        with pytest.raises(ParameterError):
            StreamConfig(use_fast_ack=True)


class TestStreamFailure:
    def test_stream_fails_when_rms_fails(self):
        context, network, st_a, st_b = build()
        session = open_session(context, st_a, st_b)
        session.send(b"x" * 100)
        network.segment.set_down()
        context.run(until=context.now + 1.0)
        assert session.failed is not None

    def test_goodput_calculation(self):
        context, _net, st_a, st_b = build()
        session = open_session(context, st_a, st_b)
        drain(context, session, 10)
        for index in range(10):
            session.send(bytes([index]) * 1000)
        context.run(until=context.now + 5.0)
        assert session.goodput(1.0) == pytest.approx(10_000)
        assert session.goodput(0.0) == 0.0
