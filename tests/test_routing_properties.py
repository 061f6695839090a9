"""Property tests for internetwork routing and admission accounting.

The routing test cross-validates the from-scratch Dijkstra in
:mod:`repro.netsim.internet` against networkx on random topologies
(networkx is a test-only dependency).
"""

from __future__ import annotations

from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.params import DelayBound, DelayBoundType, RmsParams, StatisticalSpec
from repro.errors import AdmissionError, RoutingError
from repro.netsim import admission
from repro.netsim.admission import AdmissionController
from repro.netsim.internet import InternetNetwork
from repro.netsim.packet import FRAME_OVERHEAD_BYTES
from repro.netsim.topology import Host
from repro.sim.context import SimContext

edge_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=7),
        st.floats(min_value=1e-4, max_value=0.1, allow_nan=False),
    ),
    min_size=1,
    max_size=16,
).map(
    lambda edges: [
        (a, b, w) for a, b, w in edges if a != b
    ]
)


def build_network(edges):
    """An InternetNetwork plus the equivalent networkx graph."""
    context = SimContext(seed=1)
    network = InternetNetwork(context)
    graph = nx.Graph()
    nodes = sorted({n for a, b, _ in edges for n in (a, b)})
    for node in nodes:
        name = f"n{node}"
        if node in (nodes[0], nodes[-1]):
            network.attach(Host(context, name))
        else:
            network.add_router(name)
        graph.add_node(name)
    seen = set()
    for a, b, weight in edges:
        key = (min(a, b), max(a, b))
        if key in seen:
            continue
        seen.add(key)
        bandwidth = 1e5
        network.add_link(f"n{a}", f"n{b}", bandwidth=bandwidth,
                         propagation_delay=weight)
        link_weight = weight + (576 + FRAME_OVERHEAD_BYTES) / bandwidth
        graph.add_edge(f"n{a}", f"n{b}", weight=link_weight)
    return network, graph, f"n{nodes[0]}", f"n{nodes[-1]}"


@settings(max_examples=80, deadline=None)
@given(edges=edge_lists)
def test_dijkstra_matches_networkx(edges):
    if not edges:
        return
    network, graph, src, dst = build_network(edges)
    if not nx.has_path(graph, src, dst):
        with pytest.raises(RoutingError):
            network.route_between(src, dst)
        return
    route = network.route_between(src, dst)
    # The route is a real path through existing links...
    assert route[0] == src and route[-1] == dst
    for a, b in zip(route, route[1:]):
        assert graph.has_edge(a, b)
    # ...and its total weight equals networkx's shortest.
    ours = sum(graph[a][b]["weight"] for a, b in zip(route, route[1:]))
    reference = nx.shortest_path_length(graph, src, dst, weight="weight")
    assert ours == pytest.approx(reference)


deterministic_requests = st.lists(
    st.tuples(
        st.integers(min_value=500, max_value=20_000),  # capacity
        st.floats(min_value=0.02, max_value=1.0, allow_nan=False),  # delay
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=80, deadline=None)
@given(requests=deterministic_requests)
def test_deterministic_reservations_never_oversubscribe(requests):
    """Whatever the admission controller admits, the sum of reserved
    bandwidth stays within the pool -- its defining invariant."""
    pool = AdmissionController(total_bandwidth=2e5, total_buffer_bytes=10**6)
    for index, (capacity, delay) in enumerate(requests):
        params = RmsParams(
            capacity=capacity,
            max_message_size=min(500, capacity),
            delay_bound=DelayBound(delay, 0.0),
            delay_bound_type=DelayBoundType.DETERMINISTIC,
        )
        try:
            pool.admit(index, params)
        except AdmissionError:
            pass
        assert pool.reserved_bandwidth <= pool.total_bandwidth + 1e-6
        assert pool.reserved_buffer <= pool.total_buffer_bytes


statistical_requests = st.lists(
    st.tuples(
        st.floats(min_value=100.0, max_value=50_000.0, allow_nan=False),
        st.floats(min_value=1.0, max_value=5.0, allow_nan=False),
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=80, deadline=None)
@given(requests=statistical_requests)
def test_statistical_reservations_respect_share(requests):
    with mock.patch.object(admission, "STATISTICAL_SHARE", 0.9):
        pool = AdmissionController(total_bandwidth=2e5,
                                   total_buffer_bytes=10**6)
        for index, (load, burst) in enumerate(requests):
            params = RmsParams(
                capacity=10_000,
                max_message_size=500,
                delay_bound=DelayBound(0.1, 0.0),
                delay_bound_type=DelayBoundType.STATISTICAL,
                statistical=StatisticalSpec(average_load=load,
                                            burstiness=burst),
            )
            try:
                pool.admit(index, params)
            except AdmissionError:
                pass
            assert pool.reserved_bandwidth <= 0.9 * pool.total_bandwidth + 1e-6


@settings(max_examples=50, deadline=None)
@given(requests=deterministic_requests)
def test_release_restores_full_pool(requests):
    pool = AdmissionController(total_bandwidth=2e5, total_buffer_bytes=10**6)
    admitted = []
    for index, (capacity, delay) in enumerate(requests):
        params = RmsParams(
            capacity=capacity,
            max_message_size=min(500, capacity),
            delay_bound=DelayBound(delay, 0.0),
            delay_bound_type=DelayBoundType.DETERMINISTIC,
        )
        try:
            pool.admit(index, params)
            admitted.append(index)
        except AdmissionError:
            pass
    for index in admitted:
        pool.release(index)
    assert pool.reserved_bandwidth == 0.0
    assert pool.reserved_buffer == 0
