"""Tests for the comparison baselines: datagrams, TCP-like, datagram RPC."""

from __future__ import annotations

import pytest

from repro.baselines import rpc
from repro.baselines.datagram import DatagramService
from repro.baselines.rpc import DatagramRpc
from repro.baselines.tcp import TcpConfig, TcpLikeConnection
from repro.errors import RkomTimeoutError, TransportError
from repro.netsim.ethernet import EthernetNetwork
from repro.netsim.internet import InternetNetwork
from repro.netsim.topology import Host
from repro.sim.context import SimContext


def build_lan(seed=42, **net_kwargs):
    context = SimContext(seed=seed)
    defaults = dict(trusted=True)
    defaults.update(net_kwargs)
    network = EthernetNetwork(context, **defaults)
    host_a, host_b = Host(context, "a"), Host(context, "b")
    network.attach(host_a)
    network.attach(host_b)
    dgram_a = DatagramService(context, host_a, network)
    dgram_b = DatagramService(context, host_b, network)
    return context, network, dgram_a, dgram_b


class TestDatagramService:
    def test_send_and_receive(self):
        context, _net, dgram_a, dgram_b = build_lan()
        got = []
        dgram_b.bind("app", lambda payload, src: got.append((payload, src)))
        dgram_a.send("b", "app", b"hello datagram")
        context.run(until=1.0)
        assert got == [(b"hello datagram", "a")]

    def test_queued_until_path_opens(self):
        context, _net, dgram_a, dgram_b = build_lan()
        got = []
        dgram_b.bind("app", lambda payload, src: got.append(payload))
        for index in range(5):
            dgram_a.send("b", "app", bytes([index]))
        context.run(until=1.0)
        assert len(got) == 5

    def test_no_delivery_guarantee_on_lossy_net(self):
        context, _net, dgram_a, dgram_b = build_lan(seed=9, frame_loss_rate=0.4)
        got = []
        dgram_b.bind("app", lambda payload, src: got.append(payload))

        def sender():
            for index in range(30):
                dgram_a.send("b", "app", bytes([index]) * 100)
                yield 0.01

        context.spawn(sender())
        context.run(until=5.0)
        assert 0 < len(got) < 30  # datagrams are fire-and-forget

    def test_oversized_datagram_dropped_silently(self):
        context, _net, dgram_a, dgram_b = build_lan()
        got = []
        dgram_b.bind("app", lambda payload, src: got.append(payload))
        dgram_a.send("b", "app", b"x" * 5000)  # over the 1500 MTU
        context.run(until=1.0)
        assert got == []

    def test_unbound_port_ignored(self):
        context, _net, dgram_a, dgram_b = build_lan()
        dgram_a.send("b", "nowhere", b"data")
        context.run(until=1.0)
        assert dgram_b.received >= 1  # arrived, silently ignored


class TestTcpLikeConnection:
    def test_reliable_in_order_delivery(self):
        context, _net, dgram_a, dgram_b = build_lan()
        connection = TcpLikeConnection(context, dgram_a, dgram_b)
        got = []
        connection.rx_port.set_handler(lambda payload: got.append(payload[0]))
        for index in range(30):
            connection.send(bytes([index]) * 200)
        context.run(until=10.0)
        assert got == list(range(30))
        assert connection.all_acked

    def test_recovers_from_loss(self):
        context, network, dgram_a, dgram_b = build_lan()
        connection = TcpLikeConnection(
            context, dgram_a, dgram_b, TcpConfig(retransmit_timeout=0.3)
        )
        got = []
        connection.rx_port.set_handler(lambda payload: got.append(payload[0]))
        # Prime the datagram paths cleanly, then inject loss.
        connection.send(bytes([0]) * 200)
        context.run(until=1.0)
        network.segment.impairment.frame_loss_rate = 0.15

        def sender():
            for index in range(1, 25):
                connection.send(bytes([index]) * 200)
                yield 0.01

        context.spawn(sender())
        context.run(until=60.0)
        assert got == list(range(25))
        assert connection.stats.retransmissions + connection.stats.timeouts > 0

    def test_slow_start_grows_window(self):
        context, _net, dgram_a, dgram_b = build_lan()
        connection = TcpLikeConnection(context, dgram_a, dgram_b)
        initial = connection.congestion_window
        for index in range(20):
            connection.send(bytes([index]) * 200)
        context.run(until=5.0)
        assert connection.congestion_window > initial

    def test_source_quench_halves_window(self):
        """Section 4.4's ICMP source-quench reaction."""
        context, _net, dgram_a, dgram_b = build_lan()
        connection = TcpLikeConnection(context, dgram_a, dgram_b)
        for index in range(20):
            connection.send(bytes([index]) * 200)
        context.run(until=5.0)
        before = connection.congestion_window
        connection._quench_arrived(0)
        assert connection.congestion_window == pytest.approx(
            max(1.0, before / 2)
        )
        assert connection.stats.quenches_received == 1

    def test_oversized_segment_rejected(self):
        context, _net, dgram_a, dgram_b = build_lan()
        connection = TcpLikeConnection(context, dgram_a, dgram_b)
        with pytest.raises(TransportError):
            connection.send(b"x" * 600)

    def test_timeout_collapses_to_slow_start(self):
        context, network, dgram_a, dgram_b = build_lan()
        connection = TcpLikeConnection(
            context, dgram_a, dgram_b, TcpConfig(retransmit_timeout=0.2)
        )
        for index in range(20):
            connection.send(bytes([index]) * 200)
        context.run(until=5.0)
        grown = connection.congestion_window
        network.segment.impairment.frame_loss_rate = 1.0
        connection.send(bytes([99]) * 200)
        context.run(until=10.0)
        assert connection.stats.timeouts > 0
        assert connection.congestion_window < grown


class TestDatagramRpc:
    def test_call_and_reply(self):
        context, _net, dgram_a, dgram_b = build_lan()
        rpc_a = DatagramRpc(context, dgram_a)
        rpc_b = DatagramRpc(context, dgram_b)
        rpc_b.register_handler("echo", lambda payload, src: b"re:" + payload)
        future = rpc_a.call("b", "echo", b"data")
        context.run(until=2.0)
        assert future.result() == b"re:data"

    def test_retransmission_under_loss(self):
        context, network, dgram_a, dgram_b = build_lan(seed=13)
        rpc_a = DatagramRpc(context, dgram_a)
        rpc_b = DatagramRpc(context, dgram_b)
        rpc_b.register_handler("echo", lambda payload, src: payload)
        warm = rpc_a.call("b", "echo", b"warm")
        context.run(until=1.0)
        assert warm.result() == b"warm"
        network.segment.impairment.frame_loss_rate = 0.3
        futures = [rpc_a.call("b", "echo", bytes([i])) for i in range(8)]
        context.run(until=60.0)
        completed = [f for f in futures if f.done and not f.failed]
        assert len(completed) == 8
        assert rpc_a.retransmissions > 0

    def test_timeout_raises(self, monkeypatch):
        monkeypatch.setattr(rpc, "REQUEST_TIMEOUT", 0.05)
        context, network, dgram_a, dgram_b = build_lan()
        rpc_a = DatagramRpc(context, dgram_a)
        DatagramRpc(context, dgram_b)  # no handler registered is fine; kill net
        warm = rpc_a.call("b", "missing")
        context.run(until=2.0)
        network.segment.impairment.frame_loss_rate = 1.0
        future = rpc_a.call("b", "missing")
        context.run(until=30.0)
        assert future.failed
        with pytest.raises(RkomTimeoutError):
            future.result()

    def test_duplicate_suppression(self):
        context, network, dgram_a, dgram_b = build_lan(seed=17)
        rpc_a = DatagramRpc(context, dgram_a)
        rpc_b = DatagramRpc(context, dgram_b)
        executions = []
        rpc_b.register_handler(
            "once", lambda payload, src: (executions.append(1), b"ok")[1]
        )
        warm = rpc_a.call("b", "once")
        context.run(until=1.0)
        network.segment.impairment.frame_loss_rate = 0.3
        futures = [rpc_a.call("b", "once", bytes([i])) for i in range(6)]
        context.run(until=60.0)
        done = [f for f in futures if f.done and not f.failed]
        assert len(done) == 6
        assert len(executions) == 7  # warm + 6, no duplicate executions
