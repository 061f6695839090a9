"""Large end-to-end scenarios exercising many subsystems together."""

from __future__ import annotations

import pytest

from repro.core.params import DelayBound, DelayBoundType, RmsParams
from repro.dash.system import DashSystem
from repro.transport.layers import SubUserRms, UserRms
from repro.transport.stream import StreamConfig


class TestMultiNetworkCampus:
    """A campus: two LANs joined by a WAN, multihomed gateway-side nodes."""

    def build(self, seed=61):
        system = DashSystem(seed=seed)
        system.add_ethernet(name="lan-cs", trusted=True)
        wan = system.add_internet(name="wan", trusted=True)
        # cs-1 and cs-2 share lan-cs; cs-1 and remote also sit on the WAN.
        cs1 = system.add_node("cs1", network_names=["lan-cs", "wan"])
        cs2 = system.add_node("cs2", network_names=["lan-cs"])
        remote = system.add_node("remote", network_names=["wan"])
        wan.add_router("g")
        wan.add_link("cs1", "g", bandwidth=1e5, propagation_delay=0.005)
        wan.add_link("g", "remote", bandwidth=1e5, propagation_delay=0.005)
        return system, cs1, cs2, remote

    def test_local_traffic_uses_the_lan(self):
        system, cs1, cs2, remote = self.build()
        assert cs1.st.network_for("cs2").name == "lan-cs"

    def test_remote_traffic_uses_the_wan(self):
        system, cs1, cs2, remote = self.build()
        assert cs1.st.network_for("remote").name == "wan"

    def test_concurrent_lan_and_wan_sessions(self):
        system, cs1, cs2, remote = self.build()
        cs2.rkom.register_handler("local", lambda p, s: b"lan:" + p)
        remote.rkom.register_handler("far", lambda p, s: b"wan:" + p)
        local_call = system.connect(cs1, cs2, kind="rkom").call("local", b"x")
        far_call = system.connect(cs1, remote, kind="rkom").call("far", b"y")
        system.run(until=5.0)
        assert local_call.result() == b"lan:x"
        assert far_call.result() == b"wan:y"

    def test_wan_failure_spares_lan_traffic(self):
        system, cs1, cs2, remote = self.build()
        params = RmsParams(capacity=8192, max_message_size=1000,
                           delay_bound=DelayBound(0.3, 1e-4),
                           delay_bound_type=DelayBoundType.BEST_EFFORT)
        lan_future = cs1.st.create_st_rms("cs2", port="l", desired=params,
                                          acceptable=params)
        wan_params = params.with_(max_message_size=500)
        wan_future = cs1.st.create_st_rms("remote", port="w",
                                          desired=wan_params,
                                          acceptable=wan_params)
        system.run(until=5.0)
        lan_rms, wan_rms = lan_future.result(), wan_future.result()
        system.networks["wan"].link("cs1", "g").set_down()
        system.run(until=system.now + 1.0)
        assert not wan_rms.is_open
        assert lan_rms.is_open
        got = []
        lan_rms.port.set_handler(got.append)
        lan_rms.send(b"still local")
        system.run(until=system.now + 1.0)
        assert len(got) == 1


class TestFigureThreeStack:
    """All four RMS levels of Figure 3 composed and measured."""

    def test_delay_grows_monotonically_up_the_stack(self):
        system = DashSystem(seed=62)
        system.add_ethernet(trusted=True)
        node_a = system.add_node("a")
        node_b = system.add_node("b")
        params = RmsParams(
            capacity=32 * 1024,
            max_message_size=4 * 1024,
            delay_bound=DelayBound(0.1, 1e-5),
            delay_bound_type=DelayBoundType.BEST_EFFORT,
        )
        future = node_a.st.create_st_rms("b", port="stack", desired=params,
                                         acceptable=params)
        system.run(until=2.0)
        st_rms = future.result()
        subuser = SubUserRms(system.context, st_rms, node_a.host, node_b.host,
                             stage_allowance=3e-3)
        user = UserRms(system.context, subuser, node_a.host, node_b.host,
                       stage_allowance=5e-3)
        got = []
        user.port.set_handler(got.append)
        for index in range(10):
            user.send(bytes([index]) * 500)
        system.run(until=system.now + 3.0)
        assert len(got) == 10
        # Figure-3 structure: each level's bound includes the one below.
        assert (
            st_rms.params.delay_bound.a
            < subuser.params.delay_bound.a
            < user.params.delay_bound.a
        )
        # Measured delay at the user level includes every stage below.
        assert user.stats.mean_delay > st_rms.stats.mean_delay

    def test_user_level_in_order(self):
        system = DashSystem(seed=63)
        system.add_ethernet(trusted=True)
        node_a = system.add_node("a")
        node_b = system.add_node("b")
        params = RmsParams(capacity=32 * 1024, max_message_size=4096,
                           delay_bound=DelayBound(0.2, 1e-5),
                           delay_bound_type=DelayBoundType.BEST_EFFORT)
        future = node_a.st.create_st_rms("b", port="ord", desired=params,
                                         acceptable=params)
        system.run(until=2.0)
        user = UserRms(
            system.context,
            SubUserRms(system.context, future.result(), node_a.host,
                       node_b.host),
            node_a.host,
            node_b.host,
        )
        got = []
        user.port.set_handler(lambda m: got.append(m.payload[0]))
        for index in range(20):
            user.send(bytes([index]) * (100 if index % 2 else 2000))
        system.run(until=system.now + 5.0)
        assert got == list(range(20))


class TestMixedBoundTypesOnOneSegment:
    def test_three_types_coexist(self):
        """Open question from section 5: 'How can deterministic,
        statistical and best-effort RMS's be intermixed on the same
        network?' -- here they are, concurrently."""
        from repro.core.params import StatisticalSpec

        system = DashSystem(seed=65)
        system.add_ethernet(trusted=True)
        node_a = system.add_node("a")
        system.add_node("b")
        deterministic = RmsParams(
            capacity=8192, max_message_size=512,
            delay_bound=DelayBound(0.1, 1e-6),
            delay_bound_type=DelayBoundType.DETERMINISTIC,
        )
        statistical = RmsParams(
            capacity=8192, max_message_size=512,
            delay_bound=DelayBound(0.1, 1e-6),
            delay_bound_type=DelayBoundType.STATISTICAL,
            statistical=StatisticalSpec(average_load=20_000.0,
                                        burstiness=2.0),
        )
        best_effort = RmsParams(capacity=8192, max_message_size=512)
        streams = {}
        for name, params in (("det", deterministic), ("stat", statistical),
                             ("be", best_effort)):
            future = node_a.st.create_st_rms("b", port=name, desired=params,
                                             acceptable=params)
            system.run(until=system.now + 1.0)
            streams[name] = future.result()

        def producer(rms):
            for index in range(50):
                rms.send(bytes([index]) * 200)
                yield 0.01

        for rms in streams.values():
            system.context.spawn(producer(rms))
        system.run(until=system.now + 3.0)
        for name, rms in streams.items():
            assert rms.stats.messages_delivered == 50, name
        # The guaranteed classes kept their bounds.
        assert streams["det"].stats.messages_late == 0
        assert streams["stat"].stats.messages_late == 0
