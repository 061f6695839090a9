"""Tests for the downward-multiplexing extension (section 4.2, excluded
from the DASH design; implemented here to measure the trade-off)."""

from __future__ import annotations

import pytest

from repro.core.message import Label
from repro.core.params import DelayBound, DelayBoundType, RmsParams
from repro.errors import MessageTooLargeError, ParameterError, TransportError
from repro.netsim.internet import InternetNetwork
from repro.netsim.topology import Host
from repro.sim.context import SimContext
from repro.subtransport.downmux import DownwardMux


def dual_path_network(seed=31, slow_factor=1.0):
    """Two disjoint gateway paths between hosts a and z."""
    context = SimContext(seed=seed)
    network = InternetNetwork(context, trusted=True)
    network.attach(Host(context, "a"))
    network.attach(Host(context, "z"))
    network.add_router("g1")
    network.add_router("g2")
    network.add_link("a", "g1", bandwidth=5e4, propagation_delay=0.002)
    network.add_link("g1", "z", bandwidth=5e4, propagation_delay=0.002)
    network.add_link("a", "g2", bandwidth=5e4 / slow_factor,
                     propagation_delay=0.002 * slow_factor)
    network.add_link("g2", "z", bandwidth=5e4 / slow_factor,
                     propagation_delay=0.002 * slow_factor)
    return context, network


def make_path(context, network, via, capacity=8192):
    """A network RMS pinned through a specific gateway."""
    params = RmsParams(
        capacity=capacity,
        max_message_size=512,
        delay_bound=DelayBound(0.5, 1e-3),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
    )
    future = network.create_rms(Label("a"), Label("z"), params, params)
    context.run(until=context.now + 2.0)
    rms = future.result()
    # Pin the route through the requested gateway for path diversity.
    rms.route = ["a", via, "z"]
    return rms


class TestDownwardMux:
    def test_requires_two_paths(self):
        context, network = dual_path_network()
        path = make_path(context, network, "g1")
        with pytest.raises(ParameterError):
            DownwardMux(context, [path])

    def test_paths_must_share_endpoints(self):
        context, network = dual_path_network()
        network.attach(Host(context, "w"))
        network.add_link("w", "g1", bandwidth=5e4, propagation_delay=0.002)
        good = make_path(context, network, "g1")
        params = good.params
        future = network.create_rms(Label("w"), Label("z"), params, params)
        context.run(until=context.now + 2.0)
        other = future.result()
        with pytest.raises(ParameterError):
            DownwardMux(context, [good, other])

    def test_aggregate_capacity_and_min_mms(self):
        context, network = dual_path_network()
        one = make_path(context, network, "g1", capacity=8192)
        two = make_path(context, network, "g2", capacity=4096)
        mux = DownwardMux(context, [one, two])
        assert mux.capacity == 8192 + 4096
        assert mux.max_message_size == 512 - 4

    def test_in_order_delivery_over_equal_paths(self):
        context, network = dual_path_network()
        mux = DownwardMux(context, [
            make_path(context, network, "g1"),
            make_path(context, network, "g2"),
        ])
        got = []
        mux.port.set_handler(lambda payload: got.append(payload[0]))
        for index in range(40):
            mux.send(bytes([index]) * 100)
        context.run(until=context.now + 5.0)
        assert got == list(range(40))

    def test_resequencing_over_unequal_paths(self):
        """A 4x slower second path forces overtaking; order still holds."""
        context, network = dual_path_network(slow_factor=4.0)
        mux = DownwardMux(context, [
            make_path(context, network, "g1"),
            make_path(context, network, "g2"),
        ])
        got = []
        mux.port.set_handler(lambda payload: got.append(payload[0]))
        for index in range(40):
            mux.send(bytes([index]) * 100)
        context.run(until=context.now + 10.0)
        assert got == list(range(40))
        assert mux.stats.resequenced > 0  # the complexity the paper feared

    def test_striping_uses_both_paths(self):
        context, network = dual_path_network()
        one = make_path(context, network, "g1")
        two = make_path(context, network, "g2")
        mux = DownwardMux(context, [one, two])
        for index in range(30):
            mux.send(bytes([index]) * 100)
        context.run(until=context.now + 5.0)
        assert len(mux.stats.per_path_sent) == 2
        assert all(count > 5 for count in mux.stats.per_path_sent.values())

    def test_throughput_exceeds_single_path(self):
        """The motivation: capacity beyond a single network RMS."""

        def run(paths_count):
            context, network = dual_path_network()
            paths = [make_path(context, network, "g1")]
            if paths_count == 2:
                paths.append(make_path(context, network, "g2"))
                stream = DownwardMux(context, paths)
                send = stream.send
                port = stream.port
            else:
                rms = paths[0]
                send = lambda payload: rms.send(payload)  # noqa: E731
                port = rms.port
            done = {"bytes": 0, "last": None}

            def on_message(message_or_payload):
                size = (message_or_payload.size
                        if hasattr(message_or_payload, "size")
                        else len(message_or_payload))
                done["bytes"] += size
                done["last"] = context.now

            port.set_handler(on_message)
            start = context.now

            def producer():
                for index in range(100):
                    send(bytes([index % 256]) * 400)
                    yield 0.004

            context.spawn(producer())
            context.run(until=context.now + 20.0)
            span = (done["last"] or context.now) - start
            return done["bytes"] / max(span, 1e-9)

        single = run(1)
        double = run(2)
        assert double > 1.5 * single

    def test_oversized_message_rejected(self):
        context, network = dual_path_network()
        mux = DownwardMux(context, [
            make_path(context, network, "g1"),
            make_path(context, network, "g2"),
        ])
        with pytest.raises(MessageTooLargeError):
            mux.send(b"x" * 600)

    def test_path_failure_fails_stream(self):
        context, network = dual_path_network()
        one = make_path(context, network, "g1")
        two = make_path(context, network, "g2")
        mux = DownwardMux(context, [one, two])
        reasons = []
        mux.on_failure.listen(lambda m, reason: reasons.append(reason))
        one.fail("induced")
        assert reasons
        with pytest.raises(TransportError):
            mux.send(b"x")


class TestRepinnedReservations:
    def test_closing_a_repinned_rms_frees_the_pools_it_was_admitted_on(self):
        """The reservation lives on the links the RMS was admitted on; a
        re-pin moves its frames, not its reservation, and closing it
        frees exactly those pools."""
        context, network = dual_path_network()
        params = RmsParams(
            capacity=2048,
            max_message_size=512,
            delay_bound=DelayBound(0.5, 1e-3),
            delay_bound_type=DelayBoundType.DETERMINISTIC,
        )
        future = network.create_rms(Label("a"), Label("z"), params, params)
        context.run(until=context.now + 2.0)
        rms = future.result()
        assert rms.route == ["a", "g1", "z"]
        admitted = [("a", "g1"), ("g1", "z")]
        assert all(rms.rms_id in network._pools[edge]._reservations
                   for edge in admitted)
        rms.route = ["a", "g2", "z"]
        rms.close()
        held = [edge for edge, pool in network._pools.items()
                if rms.rms_id in pool._reservations]
        assert held == []
        assert network._pools[("a", "g1")].reserved_bandwidth == 0.0
