"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.message import Label
from repro.core.params import DelayBound, DelayBoundType, RmsParams
from repro.netsim.ethernet import EthernetNetwork
from repro.netsim.internet import InternetNetwork
from repro.netsim.topology import Host
from repro.security.keys import KeyRegistry
from repro.sim.context import SimContext
from repro.subtransport.st import SubtransportLayer


@pytest.fixture
def context():
    return SimContext(seed=1234)


@pytest.fixture
def ethernet_pair(context):
    """An Ethernet with two hosts 'a' and 'b' attached."""
    network = EthernetNetwork(context, trusted=True)
    host_a = Host(context, "a")
    host_b = Host(context, "b")
    network.attach(host_a)
    network.attach(host_b)
    return network, host_a, host_b


@pytest.fixture
def st_pair(context, ethernet_pair):
    """Subtransport layers on both hosts of an Ethernet."""
    network, host_a, host_b = ethernet_pair
    keys = KeyRegistry()
    st_a = SubtransportLayer(context, host_a, [network], key_registry=keys)
    st_b = SubtransportLayer(context, host_b, [network], key_registry=keys)
    return st_a, st_b


@pytest.fixture
def internet_pair(context):
    """A two-gateway internetwork with hosts 'h1' and 'h2'."""
    network = InternetNetwork(context)
    host_1 = Host(context, "h1")
    host_2 = Host(context, "h2")
    network.attach(host_1)
    network.attach(host_2)
    network.add_router("g1")
    network.add_router("g2")
    network.add_link("h1", "g1", bandwidth=1.25e5, propagation_delay=0.001)
    network.add_link("g1", "g2", bandwidth=7000.0, propagation_delay=0.02)
    network.add_link("g2", "h2", bandwidth=1.25e5, propagation_delay=0.001)
    return network, host_1, host_2


def best_effort_params(capacity=16384, mms=1400):
    return RmsParams(
        capacity=capacity,
        max_message_size=mms,
        delay_bound=DelayBound(0.1, 1e-5),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
    )


def resolve(context, future, until=5.0):
    """Run the loop until ``until`` and return the future's result."""
    context.run(until=until)
    return future.result()


@pytest.fixture
def make_st_rms(context, st_pair):
    """Factory creating an open ST RMS from a to b."""
    st_a, st_b = st_pair

    def factory(desired=None, acceptable=None, port="test", fast_ack=False):
        desired = desired or best_effort_params()
        future = st_a.create_st_rms(
            "b",
            port=port,
            desired=desired,
            acceptable=acceptable or desired,
            fast_ack=fast_ack,
        )
        return resolve(context, future)

    return factory


@pytest.fixture
def label_a():
    return Label("a", "test")


@pytest.fixture
def label_b():
    return Label("b", "test")
