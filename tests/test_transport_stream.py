"""Integration tests for the stream protocol (sections 2.5, 3.3, 4.4)."""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro.dash.system import DashSystem
from repro.netsim.ethernet import EthernetNetwork
from repro.netsim.topology import Host
from repro.resilience.session import SessionState
from repro.security.keys import KeyRegistry
from repro.sim.context import SimContext
from repro.sim.events import Signal
from repro.sim.process import Future
from repro.subtransport.st import SubtransportLayer
from repro.transport.flowcontrol import FlowControlMode
from repro.transport import stream
from repro.core.params import RmsParams
from repro.transport.stream import StreamConfig, open_stream
from repro.errors import ParameterError, RmsFailedError, TransportError
from tests import stream_reference


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


def open_session(context, st_a, st_b, config=None, until=3.0, desired=None):
    future = open_stream(context, st_a, st_b, desired, config)
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
        session = open_session(context, st_a, st_b, desired=RmsParams(
            capacity=8192, max_message_size=8192))
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
            flow_control=FlowControlMode.CAPACITY_ONLY,
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
        config = StreamConfig(record_size=512)
        session = open_session(context, st_a, st_b, config)
        with pytest.raises(ParameterError):
            session.send(b"wrong size")


class TestSenderState:
    @pytest.mark.parametrize("config", [
        StreamConfig(),
        StreamConfig(flow_control=FlowControlMode.CAPACITY_ONLY,
                     record_size=512),
        StreamConfig(reliable=False, flow_control=FlowControlMode.NONE),
    ], ids=["ack-rms", "fast-ack", "no-ack"])
    def test_delivered_messages_leave_no_sizes_behind(self, config):
        """Only a cumulative ack on the ack RMS forgets a message's size,
        so a stream without one must not record it."""
        context, _net, st_a, st_b = build()
        session = open_session(context, st_a, st_b, config)
        received = drain(context, session, 200)
        for index in range(200):
            session.send(bytes([index % 256]) * 512)
        context.run(until=context.now + 20.0)
        assert len(received) == 200 and not session.tx_unacked
        assert not session.tx_sizes


class TestStreamFailure:
    def test_stream_fails_when_rms_fails(self):
        context, network, st_a, st_b = build()
        session = open_session(context, st_a, st_b)
        session.send(b"x" * 100)
        network.segment.set_down()
        context.run(until=context.now + 1.0)
        assert session.failed is not None


class TestStreamClose:
    def test_a_refused_ack_rms_gives_back_the_data_rms_and_ports(
            self, monkeypatch):
        # A stream that cannot open its ack RMS fails, and leaves no open
        # data RMS and no bound stream port behind.
        system = DashSystem(seed=3)
        system.add_ethernet(trusted=True)
        hosts = [system.add_node(name).host for name in ("a", "b")]
        st_a, st_b = system.nodes["a"].st, system.nodes["b"].st
        create_a, create_b, opened = st_a.create_st_rms, st_b.create_st_rms, []

        def record_data(peer, port, **kwargs):
            future = create_a(peer, port=port, **kwargs)
            future.add_done_callback(lambda f: opened.append(f.result()))
            return future

        def refuse_ack(peer, port, **kwargs):
            if port.startswith("stream-ack-"):
                refused = Future(system.context.loop)
                refused.set_exception(RmsFailedError("refused"))
                return refused
            return create_b(peer, port=port, **kwargs)

        monkeypatch.setattr(st_a, "create_st_rms", record_data)
        monkeypatch.setattr(st_b, "create_st_rms", refuse_ack)
        sessions = [system.connect("a", "b", kind="stream") for _ in range(3)]
        system.run(until=system.now + 1.0)
        assert all(session.state is SessionState.FAILED
                   for session in sessions)
        assert len(opened) == 3
        assert [rms for rms in opened if rms.is_open] == []
        for host in hosts:
            assert not [port for port in host.ports
                        if port.startswith("stream-")], host.ports

    def test_closed_sessions_leave_no_stream_ports(self):
        # open_stream names a data port on the receiver and an ack port
        # on the sender for each session; closing releases both.
        system = DashSystem(seed=3)
        system.add_ethernet(trusted=True)
        hosts = [system.add_node(name).host for name in ("a", "b")]
        for cycle in range(3):
            session = system.connect("a", "b", kind="stream")
            system.run(until=system.now + 1.0)
            channel = session.established.result()
            assert channel.ack_rms is not None
            received = []
            channel.drain_to(received.append)
            session.send(b"cycle %d" % cycle)
            system.run(until=system.now + 1.0)
            assert received == [b"cycle %d" % cycle]
            assert [[port.rsplit("-", 1)[0] for port in host.ports
                     if port.startswith("stream-")] for host in hosts] \
                == [["stream-ack"], ["stream-data"]]
            session.close()
            system.run(until=system.now + 1.0)
        for host in hosts:
            assert not [port for port in host.ports
                        if port.startswith("stream-")], host.ports

    def test_a_recovered_session_holds_one_pair_of_stream_ports(self):
        # Each re-establishment opens a fresh stream; the failed one's
        # ports go with it.
        system = DashSystem(seed=2)
        system.add_ethernet(trusted=True)
        hosts = [system.add_node(name).host for name in ("a", "b")]
        session = system.connect("a", "b", kind="stream", resilience=True)
        system.run(until=1.0)
        session.established.result()
        segment = system.networks["ether0"].segment
        for recoveries in range(1, 4):
            session.send(b"x" * 100)
            system.run(until=system.now + 0.2)
            segment.set_down()
            system.run(until=system.now + 0.5)
            segment.set_up()
            system.run(until=system.now + 3.0)
            assert session.is_up and session.stats.recoveries == recoveries
            assert [[port.rsplit("-", 1)[0] for port in host.ports
                     if port.startswith("stream-")] for host in hosts] \
                == [["stream-ack"], ["stream-data"]]


# -- the retransmit and ack discipline against tests/stream_reference.py ----

LATENCY, TIMEOUT, MAX_RETRANSMITS, ACK_EVERY = 0.00131, 0.0107, 3, 2
GRID = 0.00293
RECORD = 8


class _RigPort:
    handler = None

    def set_handler(self, handler):
        self.handler = handler


class _RigRms:
    """One direction of the stream: ``send`` takes a ``Message`` (a
    first transmission) or bytes (a retransmission, an ack)."""

    def __init__(self, rig, kind):
        self.rig, self.kind = rig, kind
        self.port = _RigPort()
        self.on_failure = Signal()
        self.on_fast_ack = Signal()
        self.sender = self.receiver = None

    def send(self, message):
        self.rig.transmit(self.kind, getattr(message, "payload", message))

    def close(self):
        pass


class StreamRig:
    """A real :class:`StreamSession` between two scripted channels."""

    def __init__(self, steps, drops, fast_ack):
        self.context = SimContext(seed=1)
        self.drops = drops
        self.transmissions = []
        self.deliveries = []
        self.sent = {}
        self.acks = {"ack": 0, "fast": 0}
        self.data = _RigRms(self, "data")
        self.ack = None if fast_ack else _RigRms(self, "ack")
        config = StreamConfig(
            reliable=True, flow_control=FlowControlMode.NONE,
            ack_every=ACK_EVERY, record_size=RECORD if fast_ack else None,
        )
        self.session = stream.StreamSession(
            self.context, config, self.data, self.ack)
        self.session.drain_to(
            lambda payload: self.deliveries.append(
                (self.context.now, int(payload))))
        for time, count in steps:
            self.context.loop.call_at(time, self.offer, count)

    def offer(self, count):
        for _ in range(count):
            seq = self.session.tx_next_seq
            try:
                self.session.send(b"%08d" % seq)
            except TransportError:
                return

    def transmit(self, kind, frame):
        if kind == "data":
            seq = int(frame[5:])
            n = self.sent.get(seq, 0)
            self.sent[seq] = n + 1
            key, dropped = seq, ("data", seq, n) in self.drops
        else:
            key = n = self.acks["ack"]
            self.acks["ack"] += 1
            dropped, n = ("ack", key) in self.drops, 0
        self.transmissions.append((self.context.now, kind, key, n, dropped))
        if not dropped:
            self.context.loop.call_after(LATENCY, self.arrive, kind, frame)

    def arrive(self, kind, frame):
        message = SimpleNamespace(payload=frame)
        if kind == "ack":
            self.ack.port.handler(message)
            return
        if self.ack is None:  # the layer below answers every arrival
            index = self.acks["fast"]
            self.acks["fast"] += 1
            dropped = ("fast", index) in self.drops
            self.transmissions.append(
                (self.context.now, "fast", index, 0, dropped))
            if not dropped:
                self.context.loop.call_after(
                    LATENCY, self.data.on_fast_ack.fire, 1)
        self.data.port.handler(message)

    def run(self):
        self.context.run()
        return self.session


def draw_stream_script(rng, fast_ack):
    """A few bursts of records; drops of first sends, retransmissions
    and acks; sometimes every transmission of one record (a black hole
    that fails the stream)."""
    steps = sorted((rng.randrange(30) * GRID, rng.randint(1, 4))
                   for _ in range(rng.randint(1, 4)))
    offered = sum(count for _time, count in steps)
    drops = {("data", seq, n) for seq in range(offered) for n in range(4)
             if rng.random() < (0.3 if n == 0 else 0.15)}
    if rng.random() < 0.2:
        doomed = rng.randrange(offered)
        drops |= {("data", doomed, n) for n in range(MAX_RETRANSMITS + 2)}
    drops |= {("fast" if fast_ack else "ack", index) for index in range(40)
              if rng.random() < 0.25}
    return steps, drops


def rounded(rows):
    return [(round(row[0], 9),) + tuple(row[1:]) for row in rows]


class TestAgainstReference:
    """Seeded scripts through a real stream session and the list-and-dict
    model of ``tests/stream_reference.py``: the oldest unacknowledged
    record is what is sent again, progress (a cumulative ack moving up,
    any fast ack) resets the count of timeouts, and the stream fails
    after ``MAX_RETRANSMITS`` timeouts without progress."""

    @pytest.fixture(autouse=True)
    def schedule(self, monkeypatch):
        monkeypatch.setattr(stream, "RETRANSMIT_TIMEOUT", TIMEOUT)
        monkeypatch.setattr(stream, "MAX_RETRANSMITS", MAX_RETRANSMITS)

    def _agree(self, steps, drops, fast_ack):
        model = stream_reference.run_script(
            steps, drops, latency=LATENCY, timeout=TIMEOUT,
            max_retransmits=MAX_RETRANSMITS, ack_every=ACK_EVERY,
            fast_ack=fast_ack)
        rig = StreamRig(steps, drops, fast_ack)
        session = rig.run()
        assert rounded(rig.transmissions) == rounded(model.transmissions)
        assert rounded(rig.deliveries) == rounded(model.deliveries)
        failed_at = None if model.failed_at is None else "retransmission limit exceeded"
        assert session.failed == failed_at
        assert {name: getattr(session.stats, name)
                for name in stream_reference.STATS} == model.stats
        assert sorted(session.tx_unacked) == model.unacked
        return model

    @pytest.mark.parametrize("fast_ack", [False, True], ids=["acks", "fast-acks"])
    @pytest.mark.parametrize("seed", range(12))
    def test_same_transmissions_deliveries_and_failure(self, seed, fast_ack):
        rng = random.Random(seed * 2 + fast_ack)
        self._agree(*draw_stream_script(rng, fast_ack), fast_ack)

    def test_the_oldest_unacked_record_is_sent_again(self):
        model = self._agree([(0.0, 3)], {("data", 0, 0)}, False)
        resent = [row for row in model.transmissions
                  if row[1] == "data" and row[3] > 0]
        assert [row[2] for row in resent] == [0]
        assert model.stats["retransmissions"] == 1

    def test_cumulative_progress_resets_the_count(self):
        # Record 0 costs two timeouts and record 1 four more: six in all,
        # more than MAX_RETRANSMITS, but the cumulative ack for record 0
        # comes between them, so the stream does not fail.
        drops = {("data", 0, n) for n in range(2)} | {
            ("data", 1, n) for n in range(3)}
        model = self._agree([(0.0, 3)], drops, False)
        assert model.stats["retransmissions"] == 6 > MAX_RETRANSMITS
        assert model.failed_at is None
        assert model.stats["messages_delivered"] == 3

    def test_fast_acks_reset_the_count(self):
        drops = {("data", 0, n) for n in range(2)} | {
            ("data", 1, n) for n in range(3)}
        model = self._agree([(0.0, 2)], drops, True)
        assert model.stats["retransmissions"] == 5 > MAX_RETRANSMITS
        assert model.failed_at is None
        assert model.stats["messages_delivered"] == 2

    def test_gives_up_after_max_retransmits_without_progress(self):
        drops = {("data", 0, n) for n in range(MAX_RETRANSMITS + 1)}
        model = self._agree([(0.0, 1)], drops, False)
        assert model.stats["retransmissions"] == MAX_RETRANSMITS
        assert model.failed_at == pytest.approx(
            (MAX_RETRANSMITS + 1) * TIMEOUT)

    def test_the_reference_covers_both_outcomes(self):
        failed = delivered = 0
        for seed in range(12):
            for fast_ack in (False, True):
                rng = random.Random(seed * 2 + fast_ack)
                steps, drops = draw_stream_script(rng, fast_ack)
                model = stream_reference.run_script(
                    steps, drops, latency=LATENCY, timeout=TIMEOUT,
                    max_retransmits=MAX_RETRANSMITS, ack_every=ACK_EVERY,
                    fast_ack=fast_ack)
                failed += model.failed_at is not None
                delivered += model.failed_at is None
        assert failed and delivered
