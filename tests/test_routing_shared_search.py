"""The shared leaf search must be exact where it is hardest to be: on
topologies built to tie.

Hosts behind one gateway take their forwarding table from one Dijkstra
run rooted at the gateway (`ForwardingEngine._search`), and degree-1
nodes are settled without the heap.  Both are claimed to change no pop
order and no float.  Random float weights almost never tie, so these
tests use equal-weight grids and fabrics -- every tie-break is live --
plus the shapes the shortcut has to get right: a multi-homed host, a
host-host link, a degree-1 router, a dark host, two siblings with
different access bandwidths.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RoutingError
from repro.netsim.internet import InternetNetwork
from repro.netsim.topology import Host, build_grid, build_two_tier
from repro.sim.context import SimContext
from tests.routing_reference import (
    reference_can_reach,
    reference_profile,
    reference_route,
)

ACCESS = dict(bandwidth=2.5e6, propagation_delay=2e-4)  # MeshSpec's

shapes = st.fixed_dictionaries({
    "kind": st.sampled_from(["grid", "fabric"]),
    "a": st.integers(2, 3),
    "b": st.integers(2, 3),
    "hosts": st.lists(st.integers(1, 4), min_size=9, max_size=9),
    "dark": st.sampled_from(["out", "in", "both"]),
})
flap_lists = st.lists(st.integers(0, 10**6), min_size=0, max_size=4)


def build(shape, ecmp=False):
    """An equal-weight mesh per ``shape`` with every awkward leaf shape
    hung on it."""
    context = SimContext(seed=1)
    network = InternetNetwork(context, ecmp=ecmp)

    def host(name, *gateways, **access):
        network.attach(Host(context, name))
        for gateway in gateways:
            network.add_link(name, gateway, **{**ACCESS, **access})

    if shape["kind"] == "grid":
        mesh = build_grid(network, shape["a"], shape["b"], hosts_per_router=0)
    else:
        mesh = build_two_tier(network, shape["a"], shape["b"], hosts_per_leaf=0)
    routers = mesh.routers
    network.add_router("stub")  # a degree-1 router
    network.add_link("stub", routers[0], bandwidth=1.25e6,
                     propagation_delay=1e-3)
    count = 0
    for router, hosts in zip(routers, shape["hosts"]):
        for _ in range(hosts):
            host(f"h{count}", router)
            count += 1
    host("multi", routers[0], routers[-1])
    host("slow", routers[0], bandwidth=1e6)  # sibling, other access weight
    host("dark", routers[1])
    network.attach(Host(context, "p0"))
    host("p1", "p0")  # both ends degree 1, an island
    if shape["dark"] in ("out", "both"):
        network.link("dark", routers[1]).set_down()
    if shape["dark"] in ("in", "both"):
        network.link(routers[1], "dark").set_down()
    return network


def toggle(network, pick):
    edges = sorted(network._links)
    link = network._links[edges[pick % len(edges)]]
    if link.is_up:
        link.set_down()
    else:
        link.set_up()
    return link


def route_or_none(network, src, dst):
    try:
        return list(network.route_between(src, dst))
    except RoutingError:
        return None


def nodes_of(network):
    return sorted(network.hosts) + sorted(network.routers)


class TestSharedSearchExactness:
    """The engine against ``tests/routing_reference.py``, the per-pair
    early-exit Dijkstra run on the same network's graph and link state."""

    @settings(max_examples=12, deadline=None)
    @given(shape=shapes, flaps=flap_lists)
    def test_fresh_engine_equals_legacy_after_every_flap(self, shape, flaps):
        """A fresh network per step, driven through the flaps so far: no
        cache was ever warm, and everything must be *equal*."""
        for step in range(len(flaps) + 1):
            network = build(shape)
            for pick in flaps[:step]:
                toggle(network, pick)
            nodes = nodes_of(network)
            for src in nodes:
                for dst in nodes:
                    route = reference_route(network, src, dst)
                    assert route_or_none(network, src, dst) == route
                    assert (network.can_reach(src, dst)
                            == reference_can_reach(network, src, dst))
                    if route is not None:
                        fixed, per_byte, path = network._path_profile(src, dst)
                        assert (fixed, per_byte) == reference_profile(
                            network, route)
                        assert path == route
            assert network._engine.searches <= network._engine.table_builds
            assert network.route_resolutions == network._engine.searches

    @settings(max_examples=12, deadline=None)
    @given(shape=shapes, flaps=flap_lists)
    def test_ecmp_dag_keeps_the_canonical_route_first(self, shape, flaps):
        for step in range(len(flaps) + 1):
            network = build(shape, ecmp=True)
            for pick in flaps[:step]:
                toggle(network, pick)
            engine = network._engine
            nodes = nodes_of(network)
            for src in nodes:
                table = engine.table(src)
                assert set(table.preds) == set(table.prev)
                for node, plist in table.preds.items():
                    assert plist[0] == table.prev[node]
                for dst in nodes:
                    route = reference_route(network, src, dst)
                    if route is not None and src != dst:
                        assert engine.pathset(src, dst).routes[0] == route

    @settings(max_examples=12, deadline=None)
    @given(shape=shapes, flaps=flap_lists)
    def test_warm_engine_stays_cost_exact_through_flaps(self, shape, flaps):
        """One engine kept warm across the flaps (every pair resolved
        after every transition, so the memo and the tables are live when
        the next link changes): every route, tie-breaks included, and
        every path profile is the reference's."""
        network = build(shape)
        for pick in [None] + flaps:
            if pick is not None:
                toggle(network, pick)
            all_pairs_route_exact(network)

    @settings(max_examples=20, deadline=None)
    @given(shape=shapes, flaps=flap_lists, ecmp=st.booleans())
    def test_warm_engine_sweeps_then_routes_at_reference_cost(
            self, shape, flaps, ecmp):
        """``grid_churn``'s pattern on one warm engine.  Each flap toggles
        its link and then the one before it, so links come up as often
        as they go down.  After every toggle every host pair is probed
        with ``can_reach`` before anything is resolved, then routed: the
        reference's route and profile, and under ECMP a path set led by
        that route.  A plan that outlived its table would keep the
        longer route after a link-up."""
        network = build(shape, ecmp=ecmp)
        hosts = sorted(network.hosts)
        all_pairs_route_exact(network)
        toggles = [p for i, pick in enumerate(flaps)
                   for p in [pick, *flaps[i - 1:i]]]
        for pick in toggles:
            toggle(network, pick)
            for src in hosts:
                for dst in hosts:
                    assert (network.can_reach(src, dst)
                            == reference_can_reach(network, src, dst))
            all_pairs_route_exact(network)


class TestPlanOutlivesItsTable:
    """A plan resolved before a flap must not outlive it: once the short
    trunk is back, the long route cached while it was down is gone."""

    @pytest.mark.parametrize("ecmp", [False, True], ids=["single", "ecmp"])
    def test_link_up_shortens_a_plan_whose_table_was_dropped(self, ecmp):
        context = SimContext(seed=1)
        network = InternetNetwork(context, ecmp=ecmp)
        for router in ("r1", "r2", "r3", "r4", "r5"):
            network.add_router(router)
        for host in ("a", "b"):
            network.attach(Host(context, host))
        for edge in [("a", "r1"), ("b", "r4"), ("r1", "r4"), ("r1", "r2"),
                     ("r2", "r3"), ("r3", "r4"), ("r1", "r5")]:
            network.add_link(*edge)

        def both_ways(u, v, up):
            for link in (network.link(u, v), network.link(v, u)):
                link.set_up() if up else link.set_down()

        both_ways("r1", "r4", up=False)  # the short trunk
        long_way = ["a", "r1", "r2", "r3", "r4", "b"]
        assert network.route_between("a", "b") == long_way
        both_ways("r1", "r5", up=False)  # a stub in a's tree, off its route
        assert "a" not in network._engine._tables
        both_ways("r1", "r4", up=True)
        short_way = network.route_between("a", "b")
        assert short_way == ["a", "r1", "r4", "b"]
        assert short_way == reference_route(network, "a", "b")


def sibling_network(ecmp):
    shape = {"kind": "grid", "a": 2, "b": 3, "hosts": [3] * 9, "dark": "both"}
    return build(shape, ecmp=ecmp)


class TestSiblingTables:
    def test_siblings_differ_only_in_the_three_fixups(self):
        network = sibling_network(ecmp=True)
        engine = network._engine
        first, second = engine.table("h0"), engine.table("h1")
        assert engine.searches == 1 and engine.table_builds == 2
        gateway = "g0x0"
        assert first.dist["h0"] == second.dist["h1"] == 0.0
        assert first.prev[gateway] == "h0" and second.prev[gateway] == "h1"
        assert "h0" not in first.prev and "h1" not in second.prev
        assert first.preds[gateway] == ("h0",)
        assert second.preds[gateway] == ("h1",)
        assert "h0" not in first.preds and "h1" not in second.preds
        # The sibling itself is an ordinary leaf of the other's tree.
        assert first.dist["h1"] == second.dist["h0"]
        assert first.prev["h1"] == second.prev["h0"] == gateway
        rest = set(first.dist) - {"h0", "h1"}
        assert rest == set(second.dist) - {"h0", "h1"}
        for node in rest:
            assert first.dist[node] == second.dist[node]
            if node != gateway:
                assert first.prev[node] == second.prev[node]
                assert first.preds[node] == second.preds[node]

    def test_siblings_share_no_mutable_preds_list(self):
        """Siblings copy the shared search's dicts and share its preds,
        which are tuples: damage to one sibling's table reaches neither
        the other's nor the memo."""
        network = sibling_network(ecmp=True)
        engine = network._engine
        first, second = engine.table("h0"), engine.table("h1")
        for table in (first, second):
            assert all(type(p) is tuple for p in table.preds.values())
        before = dict(second.preds)
        for node in list(first.preds):
            first.preds[node] = ("poison",)
        first.dist.clear()
        first.prev.clear()
        assert second.preds == before
        third = engine.table("h2")  # built from the memo after the damage
        assert engine.searches == 1
        assert all("poison" not in p for p in third.preds.values())
        assert third.dist["h2"] == 0.0 and third.dist["h1"] == second.dist["h0"]

    def test_other_access_weight_gets_its_own_search(self):
        network = sibling_network(ecmp=False)
        engine = network._engine
        engine.table("h0")
        engine.table("slow")  # same gateway, slower access link
        assert engine.searches == 2
        assert len(engine._search_memo) == 2
        engine.table("multi")  # degree 2: its own full search, no memo
        assert engine.searches == 3
        assert len(engine._search_memo) == 2

    def test_memo_is_emptied_by_every_link_state_change(self):
        network = sibling_network(ecmp=False)
        engine = network._engine

        def flip(up):
            link = network.link("g0x0", "g0x1")
            link.set_up() if up else link.set_down()

        flip(up=False)
        flip(up=True)
        direct = ["h0", "g0x0", "g0x1", "h3"]
        assert network.route_between("h0", "h3") == direct
        assert len(engine._search_memo) == 1
        flip(up=False)
        assert len(engine._search_memo) == 0
        # A sibling first resolved *after* the change must see it.
        detour = network.route_between("h1", "h3")
        assert detour == reference_route(network, "h1", "h3")
        assert detour[1:3] != ["g0x0", "g0x1"]
        assert len(engine._search_memo) == 1
        flip(up=True)
        assert len(engine._search_memo) == 0
        assert network.route_between("h2", "h3") == ["h2"] + direct[1:]
        network.add_link("h0", "g1x2", **ACCESS)  # topology grew
        assert len(engine._search_memo) == 0


def all_pairs_route_exact(network):
    """Every host pair of a warm engine: the reference's route,
    reachability and path profile, and under ECMP a path set whose first
    route is the reference's."""
    engine = network._engine
    hosts = sorted(network.hosts)
    for src in hosts:
        for dst in hosts:
            route = reference_route(network, src, dst)
            assert route_or_none(network, src, dst) == route, (src, dst)
            assert network.can_reach(src, dst) == (route is not None)
            if route is None:
                continue
            fixed, per_byte, path = network._path_profile(src, dst)
            assert (fixed, per_byte) == reference_profile(network, route)
            assert path == route
            if engine.ecmp and src != dst:
                assert engine.pathset(src, dst).routes[0] == route, (src, dst)


class TestSharedRegistration:
    """A shared search serves every leaf behind its gateway, and a flap
    drops it with every table copied from it.  These are the cases where
    a shared search could outlive what it was computed from: a leaf's
    own access link flapping, and siblings first resolved in different
    link states."""

    # (leaf -> gateway) alone, (gateway -> leaf) alone, both, both back.
    ACCESS_STEPS = [("out", False), ("out", True), ("in", False),
                    ("out", False), ("in", True), ("out", True)]

    @staticmethod
    def access_network(ecmp, steps, warm):
        shape = {"kind": "grid", "a": 2, "b": 3, "hosts": [2] * 9,
                 "dark": "both"}
        network = build(shape, ecmp=ecmp)
        trunk = network.link("g0x1", "g0x2")
        trunk.set_down()
        trunk.set_up()
        for direction, up in steps:
            if warm:
                all_pairs_route_exact(network)
            edge = ("h0", "g0x0") if direction == "out" else ("g0x0", "h0")
            link = network.link(*edge)
            link.set_up() if up else link.set_down()
        return network

    @pytest.mark.parametrize("ecmp", [False, True], ids=["single", "ecmp"])
    def test_directed_access_link_flaps(self, ecmp):
        for step in range(1, len(self.ACCESS_STEPS) + 1):
            steps = self.ACCESS_STEPS[:step]
            # Warm: every table and the memo live when the link changes.
            warm = self.access_network(ecmp, steps, warm=True)
            all_pairs_route_exact(warm)
            # Fresh: the same link state, no cache ever warm.
            fresh = self.access_network(ecmp, steps, warm=False)
            for src in nodes_of(fresh):
                for dst in nodes_of(fresh):
                    assert (route_or_none(fresh, src, dst)
                            == reference_route(fresh, src, dst))

    def test_down_link_of_a_leaf_drops_every_table_that_reaches_it(self):
        network = self.access_network(False, [], warm=True)
        engine = network._engine
        all_pairs_route_exact(network)
        assert engine._tables and engine._search_memo
        network.link("g0x0", "h0").set_down()
        assert not engine._tables and not engine._search_memo
        assert not network.can_reach("h1", "h0")
        assert network.can_reach("h0", "h1")

    @staticmethod
    def tie_square():
        """h0, h1 behind g0x0; two equal-cost ways round to g1x1."""
        context = SimContext(seed=1)
        network = InternetNetwork(context)
        build_grid(network, 2, 2, hosts_per_router=2)
        return network

    @pytest.mark.parametrize("victim", ["older", "newer"])
    def test_siblings_built_in_different_link_states(self, victim):
        network = self.tie_square()
        engine = network._engine
        far = "h6"  # behind g1x1
        network.link("g0x1", "g1x1").set_down()
        older = ["h0", "g0x0", "g1x0", "g1x1", far]
        assert network.route_between("h0", far) == older
        # The restored trunk only ties.  h0's table goes with the flap,
        # so both siblings take the route a fresh search takes.
        network.link("g0x1", "g1x1").set_up()
        assert not engine._tables
        newer = ["h1", "g0x0", "g0x1", "g1x1", far]
        assert network.route_between("h1", far) == newer
        assert network.route_between("h1", far) == reference_route(
            network, "h1", far)
        assert network.route_between("h0", far) == ["h0"] + newer[1:]
        all_pairs_route_exact(network)
        # An edge only one of the two routes uses: both resolve again.
        if victim == "older":
            network.link("g1x0", "g1x1").set_down()
            assert network.route_between("h0", far) == ["h0"] + newer[1:]
        else:
            network.link("g0x1", "g1x1").set_down()
            assert network.route_between("h1", far) == ["h1"] + older[1:]
        all_pairs_route_exact(network)

    def test_a_search_is_filed_once_not_once_per_host(self):
        """The 6x6 grid with 6 hosts a router, plus one two-homed host,
        after a flap: a full sweep runs one search per gateway, memoised
        once, and the next flap empties the memo with the tables."""
        context = SimContext(seed=1)
        network = InternetNetwork(context)
        mesh = build_grid(network, 6, 6, hosts_per_router=6)
        network.attach(Host(context, "multi"))
        for gateway in ("g0x0", "g5x5"):
            network.add_link("multi", gateway, **ACCESS)
        engine = network._engine
        trunk = network.link("g2x2", "g2x3")
        trunk.set_down()
        trunk.set_up()
        before = engine.searches
        for src in sorted(network.hosts):
            engine.table(src)
        nodes = len(network.hosts) + len(network.routers)
        leaves = len(mesh.hosts)
        searches = engine.searches - before
        assert (nodes, leaves, searches) == (253, 216, 36 + 1)
        # 36 shared searches; multi's own is not memoised.
        assert len(engine._search_memo) == 36
        assert len(engine._tables) == leaves + 1
        trunk.set_down()
        assert not engine._search_memo and not engine._tables
