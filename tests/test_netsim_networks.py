"""Integration tests for network objects and network-level RMS (3.1)."""

from __future__ import annotations

import pytest

from repro.core.message import Label
from repro.core.params import DelayBound, DelayBoundType, RmsParams
from repro.errors import AdmissionError, NegotiationError, NetworkError, RoutingError
from repro.netsim.ethernet import EthernetNetwork
from repro.netsim.internet import InternetNetwork
from repro.netsim.topology import Host
from repro.sim.context import SimContext


def best_effort(capacity=16384, mms=1400):
    return RmsParams(
        capacity=capacity,
        max_message_size=mms,
        delay_bound=DelayBound(0.5, 1e-5),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
    )


def create(context, network, src="a", dst="b", desired=None, acceptable=None,
           extra_time=5.0):
    future = network.create_rms(
        Label(src), Label(dst), desired or best_effort(),
        acceptable or desired or best_effort(),
    )
    context.run(until=context.now + extra_time)
    return future.result()


@pytest.fixture
def context():
    return SimContext(seed=21)


@pytest.fixture
def ether(context):
    network = EthernetNetwork(context, trusted=True)
    for name in ("a", "b", "c"):
        network.attach(Host(context, name))
    return network


class TestEthernetRms:
    def test_setup_handshake_takes_a_round_trip(self, context, ether):
        future = ether.create_rms(Label("a"), Label("b"), best_effort(), best_effort())
        assert not future.done  # setup is not instantaneous
        context.run(until=1.0)
        rms = future.result()
        assert rms.established
        assert context.now > 0.0

    def test_data_flows_after_setup(self, context, ether):
        rms = create(context, ether)
        got = []
        rms.port.set_handler(got.append)
        rms.send(b"payload" * 10)
        context.run(until=context.now + 2.0)
        assert len(got) == 1
        assert got[0].payload == b"payload" * 10

    def test_unattached_host_rejected(self, context, ether):
        with pytest.raises(NetworkError):
            ether.create_rms(Label("a"), Label("zz"), best_effort(), best_effort())

    def test_mms_above_mtu_rejected(self, context, ether):
        params = best_effort(mms=5000)
        with pytest.raises(NegotiationError):
            ether.create_rms(Label("a"), Label("b"), params, params)

    def test_deterministic_admission_enforced(self, context, ether):
        params = RmsParams(
            capacity=64_000,
            max_message_size=1000,
            delay_bound=DelayBound(0.1, 1e-6),
            delay_bound_type=DelayBoundType.DETERMINISTIC,
        )
        # implied bandwidth = 64k/~0.1 = 640 kB/s; segment = 1.25 MB/s.
        create(context, ether, desired=params)
        with pytest.raises(AdmissionError):
            ether.create_rms(Label("a"), Label("c"), params, params)

    def test_delete_releases_admission(self, context, ether):
        params = RmsParams(
            capacity=64_000,
            max_message_size=1000,
            delay_bound=DelayBound(0.1, 1e-6),
            delay_bound_type=DelayBoundType.DETERMINISTIC,
        )
        rms = create(context, ether, desired=params)
        ether.delete_rms(rms)
        create(context, ether, src="a", dst="c", desired=params)

    def test_untrusted_network_lacks_privacy_combo(self, context):
        network = EthernetNetwork(context, trusted=False)
        network.attach(Host(context, "a"))
        network.attach(Host(context, "b"))
        params = best_effort().with_(privacy=True)
        with pytest.raises(NegotiationError):
            network.create_rms(Label("a"), Label("b"), params, params)

    def test_link_encryption_provides_privacy_combo(self, context):
        network = EthernetNetwork(context, trusted=False, link_encryption=True)
        network.attach(Host(context, "a"))
        network.attach(Host(context, "b"))
        params = best_effort().with_(privacy=True)
        future = network.create_rms(Label("a"), Label("b"), params, params)
        context.run(until=1.0)
        assert future.result().params.privacy

    def test_segment_failure_fails_rms(self, context, ether):
        rms = create(context, ether)
        reasons = []
        rms.on_failure.listen(lambda r, reason: reasons.append(reason))
        ether.segment.set_down()
        assert reasons and "down" in reasons[0]

    def test_sniffer_sees_frames(self, context, ether):
        rms = create(context, ether)
        seen = []
        ether.add_sniffer(lambda frame: seen.append(frame))
        rms.send(b"not-secret")
        context.run(until=context.now + 2.0)
        assert any(f.message.payload == b"not-secret" for f in seen)

    @pytest.mark.parametrize("warm_up", [0, 10], ids=["before", "mid-run"])
    def test_sniffer_may_keep_every_frame_it_saw(self, context, ether, warm_up):
        """Attached before any traffic or after some: what it retained
        still carries its own message and payload when the run is over."""
        rms = create(context, ether)
        got = []
        rms.port.set_handler(got.append)
        for index in range(warm_up):
            rms.send(bytes([index]) * 200)
            context.run(until=context.now + 0.05)
        kept = []
        ether.add_sniffer(kept.append)
        for index in range(warm_up, warm_up + 10):
            rms.send(bytes([index]) * 200)
            context.run(until=context.now + 0.05)
        assert len(got) == warm_up + 10
        assert [frame.message.payload for frame in kept] == [
            bytes([index]) * 200 for index in range(warm_up, warm_up + 10)
        ]
        assert len({id(frame) for frame in kept}) == 10
        assert len({frame.frame_id for frame in kept}) == 10
        assert all(frame.rms_id == rms.rms_id and frame.kind == "data"
                   for frame in kept)

    def test_capability_table_reports_mtu(self, context, ether):
        table = ether.capability_table("a", "b")
        limits = table.limits_for(best_effort())
        assert limits.max_message_size == 1500

    def test_setup_survives_loss(self, context):
        lossy = EthernetNetwork(context, trusted=True, frame_loss_rate=0.5)
        lossy.setup_retries = 12
        lossy.setup_timeout = 0.05
        lossy.attach(Host(context, "a"))
        lossy.attach(Host(context, "b"))
        future = lossy.create_rms(Label("a"), Label("b"), best_effort(), best_effort())
        context.run(until=60.0)
        assert future.done  # retransmitted setup eventually lands or fails
        # With 4 retries at 50% loss, success is overwhelmingly likely.
        assert not future.failed


class TestInternetRms:
    @pytest.fixture
    def inet(self, context):
        network = InternetNetwork(context)
        for name in ("h1", "h2", "h3"):
            network.attach(Host(context, name))
        network.add_router("g1")
        network.add_router("g2")
        network.add_link("h1", "g1", bandwidth=1.25e5, propagation_delay=0.001)
        network.add_link("g1", "g2", bandwidth=7000.0, propagation_delay=0.02)
        network.add_link("g2", "h2", bandwidth=1.25e5, propagation_delay=0.001)
        network.add_link("g1", "h3", bandwidth=1.25e5, propagation_delay=0.001)
        return network

    def test_routing_shortest_path(self, inet):
        assert inet.route_between("h1", "h2") == ["h1", "g1", "g2", "h2"]
        assert inet.route_between("h1", "h3") == ["h1", "g1", "h3"]

    def test_no_route_raises(self, context, inet):
        inet.attach(Host(context, "island"))
        with pytest.raises(RoutingError):
            inet.route_between("h1", "island")

    def test_end_to_end_delivery(self, context, inet):
        params = best_effort(mms=500)
        rms = create(context, inet, src="h1", dst="h2", desired=params)
        got = []
        rms.port.set_handler(got.append)
        rms.send(b"x" * 400)
        context.run(until=context.now + 5.0)
        assert len(got) == 1
        # Delay at least the sum of propagation delays.
        assert got[0].delay > 0.022

    def test_link_failure_fails_routed_rms(self, context, inet):
        params = best_effort(mms=500)
        rms = create(context, inet, src="h1", dst="h2", desired=params)
        reasons = []
        rms.on_failure.listen(lambda r, reason: reasons.append(reason))
        inet.link("g1", "g2").set_down()
        assert reasons

    def test_link_failure_spares_other_routes(self, context, inet):
        params = best_effort(mms=500)
        target = create(context, inet, src="h1", dst="h3", desired=params)
        inet.link("g1", "g2").set_down()
        assert target.is_open

    def test_reroute_after_failure(self, context, inet):
        inet.add_link("g1", "h2", bandwidth=1.25e5, propagation_delay=0.5)
        # Initially the two-hop path wins (0.022 s < 0.1 s).
        assert inet.route_between("h1", "h2") == ["h1", "g1", "g2", "h2"]
        inet.link("g1", "g2").set_down()
        assert inet.route_between("h1", "h2") == ["h1", "g1", "h2"]

    def test_duplicate_link_rejected(self, context, inet):
        with pytest.raises(NetworkError):
            inet.add_link("h1", "g1")

    def test_router_name_collision_rejected(self, context, inet):
        with pytest.raises(NetworkError):
            inet.add_router("h1")

    def test_admission_along_whole_path(self, context, inet):
        """The g1-g2 trunk (7 kB/s) is the bottleneck for h1->h2."""
        params = RmsParams(
            capacity=4000,
            max_message_size=500,
            delay_bound=DelayBound(0.5, 1e-3),
            delay_bound_type=DelayBoundType.DETERMINISTIC,
        )
        create(context, inet, src="h1", dst="h2", desired=params)
        with pytest.raises(AdmissionError):
            inet.create_rms(Label("h1"), Label("h2"), params, params)
        # But the h1->h3 path that avoids the trunk still has room.
        create(context, inet, src="h1", dst="h3", desired=params)

    def test_gateway_drop_counter(self, context, inet):
        assert inet.total_gateway_drops() == 0

    def test_source_quench_emitted_on_overrun(self, context):
        network = InternetNetwork(context, source_quench=True)
        network.attach(Host(context, "h1"))
        network.attach(Host(context, "h2"))
        network.add_router("g")
        network.add_link("h1", "g", bandwidth=1e6, propagation_delay=0.0001)
        network.add_link("g", "h2", bandwidth=2000.0, propagation_delay=0.0001,
                         buffer_bytes=2000)
        quenches = []
        network.register_quench_handler("h1", quenches.append)
        params = best_effort(capacity=10**6, mms=500)
        rms = create(context, network, src="h1", dst="h2", desired=params)
        for _ in range(40):
            rms.send(b"x" * 400)
        context.run(until=context.now + 10.0)
        assert network.quenches_sent > 0
        assert len(quenches) > 0
