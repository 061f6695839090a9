"""Edge cases in the subtransport layer: stale traffic, cache limits,
garbled input, repeated operations."""

from __future__ import annotations

import pytest

from repro.core.message import Label, Message
from repro.core.params import DelayBound, DelayBoundType, RmsParams
from repro.netsim.ethernet import EthernetNetwork
from repro.netsim.topology import Host
from repro.security.keys import KeyRegistry
from repro.sim.context import SimContext
from repro.subtransport import binding, st as st_module
from repro.subtransport.config import StConfig
from repro.subtransport.st import SubtransportLayer
from repro.subtransport.wire import encode_bundle


def build_pair(seed=91, st_config=None, **net_kwargs):
    context = SimContext(seed=seed)
    defaults = dict(trusted=True)
    defaults.update(net_kwargs)
    network = EthernetNetwork(context, **defaults)
    host_a, host_b = Host(context, "a"), Host(context, "b")
    network.attach(host_a)
    network.attach(host_b)
    keys = KeyRegistry()
    st_a = SubtransportLayer(context, host_a, [network], key_registry=keys,
                             config=st_config)
    st_b = SubtransportLayer(context, host_b, [network], key_registry=keys,
                             config=st_config)
    return context, network, st_a, st_b


def params(**kwargs):
    defaults = dict(
        capacity=16_384,
        max_message_size=2_000,
        delay_bound=DelayBound(0.1, 1e-5),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
    )
    defaults.update(kwargs)
    return RmsParams(**defaults)


def open_rms(context, st, port="edge", p=None):
    p = p or params()
    future = st.create_st_rms("b", port=port, desired=p, acceptable=p)
    context.run(until=context.now + 3.0)
    return future.result()


class TestStaleAndGarbledInput:
    def test_orphan_components_counted_not_crashing(self):
        """Data for an unknown ST RMS id is dropped and counted."""
        context, network, st_a, st_b = build_pair()
        open_rms(context, st_a)  # establish the data path
        orphan = (99_999, 0, 0, b"stale", context.now, 0, 0)
        st_b._data_arrived(None, Message(encode_bundle([orphan])))
        assert st_b.stats.orphan_components == 1

    def test_garbled_bundle_counted(self):
        context, network, st_a, st_b = build_pair()
        open_rms(context, st_a)
        st_b._data_arrived(None, Message(b"\xff\xfe garbage bytes"))
        assert st_b.stats.garbled_bundles == 1

    def test_traffic_after_close_is_orphaned(self):
        context, network, st_a, st_b = build_pair()
        rms = open_rms(context, st_a)
        rms_id = rms.rms_id
        rms.close()
        context.run(until=context.now + 1.0)
        late = (rms_id, 5, 0, b"late", context.now, 0, 0)
        st_b._data_arrived(None, Message(encode_bundle([late])))
        assert st_b.stats.orphan_components == 1

    def test_close_is_idempotent(self):
        context, network, st_a, st_b = build_pair()
        rms = open_rms(context, st_a)
        rms.close()
        rms.close()  # second close is a no-op
        context.run(until=context.now + 1.0)
        assert not rms.is_open


class TestCacheLimits:
    def test_cache_size_limit_evicts_beyond(self, monkeypatch):
        monkeypatch.setattr(binding, "CACHE_SIZE_PER_PEER", 1)
        config = StConfig(multiplexing_enabled=False)
        context, network, st_a, st_b = build_pair(st_config=config)
        first = open_rms(context, st_a, port="one")
        second = open_rms(context, st_a, port="two")
        net_one = first.binding.network_rms
        net_two = second.binding.network_rms
        first.close()
        second.close()
        context.run(until=context.now + 1.0)
        peer = st_a._peer("b")
        assert len(peer.cached) == 1  # one kept, one torn down
        kept = peer.cached[0].network_rms
        dropped = net_two if kept is net_one else net_one
        assert kept.is_open
        assert not dropped.is_open

    def test_cache_disabled_means_no_retention(self):
        config = StConfig(cache_enabled=False, multiplexing_enabled=False)
        context, network, st_a, st_b = build_pair(st_config=config)
        rms = open_rms(context, st_a)
        network_rms = rms.binding.network_rms
        rms.close()
        context.run(until=context.now + 1.0)
        assert not network_rms.is_open
        assert st_a._peer("b").cached == []


class TestParameterEdges:
    def test_capability_table_offers_all_security_combos(self):
        context, network, st_a, st_b = build_pair(trusted=False)
        table = st_a.st_capability_table("b")
        # The ST supplies software security, so every non-reliable combo
        # is on offer even on the untrusted medium.
        assert table.limits_for(params(privacy=True)) is not None
        assert table.limits_for(params(authentication=True)) is not None

    def test_st_mms_multiple_respected(self, monkeypatch):
        monkeypatch.setattr(st_module, "MAX_MESSAGE_MULTIPLE", 2)
        context, network, st_a, st_b = build_pair()
        wanted = params(max_message_size=10_000, capacity=32_768)
        future = st_a.create_st_rms("b", port="big", desired=wanted,
                                    acceptable=wanted.with_(
                                        max_message_size=1_000))
        context.run(until=context.now + 3.0)
        rms = future.result()
        assert rms.params.max_message_size <= 2 * 1500

    def test_exact_mms_boundary_send(self):
        context, network, st_a, st_b = build_pair()
        rms = open_rms(context, st_a)
        got = []
        rms.port.set_handler(got.append)
        rms.send(b"z" * rms.params.max_message_size)  # exactly at the cap
        context.run(until=context.now + 2.0)
        assert got[0].size == rms.params.max_message_size

    def test_one_byte_message(self):
        context, network, st_a, st_b = build_pair()
        rms = open_rms(context, st_a)
        got = []
        rms.port.set_handler(got.append)
        rms.send(b"!")
        context.run(until=context.now + 2.0)
        assert got[0].payload == b"!"

    def test_empty_message(self):
        context, network, st_a, st_b = build_pair()
        rms = open_rms(context, st_a)
        got = []
        rms.port.set_handler(got.append)
        rms.send(b"")
        context.run(until=context.now + 2.0)
        assert got[0].payload == b""


class TestConcurrentPeers:
    def test_one_st_serves_many_peers(self):
        context = SimContext(seed=92)
        network = EthernetNetwork(context, trusted=True)
        hosts = {name: Host(context, name) for name in ("a", "b", "c", "d")}
        for host in hosts.values():
            network.attach(host)
        keys = KeyRegistry()
        sts = {
            name: SubtransportLayer(context, host, [network],
                                    key_registry=keys)
            for name, host in hosts.items()
        }
        streams = {}
        for peer in ("b", "c", "d"):
            future = sts["a"].create_st_rms(peer, port="fan",
                                            desired=params(),
                                            acceptable=params())
            context.run(until=context.now + 2.0)
            streams[peer] = future.result()
        got = {peer: [] for peer in streams}
        for peer, rms in streams.items():
            rms.port.set_handler(got[peer].append)
            rms.send(peer.encode() * 10)
        context.run(until=context.now + 2.0)
        for peer in streams:
            assert got[peer][0].payload == peer.encode() * 10
        # One control channel per peer.
        assert len(sts["a"]._peers) == 3

    def test_bidirectional_streams_between_same_pair(self):
        context, network, st_a, st_b = build_pair()
        forward = open_rms(context, st_a, port="fwd")
        backward_future = st_b.create_st_rms("a", port="bwd",
                                             desired=params(),
                                             acceptable=params())
        context.run(until=context.now + 3.0)
        backward = backward_future.result()
        got_f, got_b = [], []
        forward.port.set_handler(got_f.append)
        backward.port.set_handler(got_b.append)
        forward.send(b"a to b")
        backward.send(b"b to a")
        context.run(until=context.now + 2.0)
        assert got_f[0].payload == b"a to b"
        assert got_b[0].payload == b"b to a"
