"""Tests for the scale-out routing engine: forwarding tables must
reproduce per-pair Dijkstra exactly, compiled plans must forward the
same bytes at the same times, and invalidation must be scoped -- a flap
repairs only the routes that crossed the flapped link."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.message import Label, Message
from repro.core.params import DelayBound, DelayBoundType, RmsParams
from repro.errors import RoutingError
from repro.netsim.admission import NULL_POOLS
from repro.netsim.ethernet import EthernetNetwork
from repro.netsim.internet import InternetNetwork
from repro.netsim.packet import Frame
from repro.netsim.topology import Host, build_grid
from repro.sim.context import SimContext
from tests.routing_reference import (
    reference_can_reach,
    reference_profile,
    reference_route,
)
from tests.streams import drop_reasons

edge_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=7),
        st.floats(min_value=1e-4, max_value=0.1, allow_nan=False),
    ),
    min_size=1,
    max_size=16,
).map(lambda edges: [(a, b, w) for a, b, w in edges if a != b])


def best_effort(mms: int = 500) -> RmsParams:
    return RmsParams(
        capacity=16 * 1024,
        max_message_size=mms,
        delay_bound=DelayBound(0.5, 1e-4),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
    )


def build_network(edges, ecmp: bool = False, seed: int = 1):
    """An internetwork over the deduplicated edge list, plus node names."""
    nodes = sorted({n for a, b, _ in edges for n in (a, b)})
    context = SimContext(seed=seed)
    network = InternetNetwork(context, ecmp=ecmp)
    for node in nodes:
        network.attach(Host(context, f"n{node}"))
    seen = set()
    for a, b, weight in edges:
        key = (min(a, b), max(a, b))
        if key in seen:
            continue
        seen.add(key)
        network.add_link(f"n{a}", f"n{b}", bandwidth=1e5,
                         propagation_delay=weight)
    return network, [f"n{n}" for n in nodes]


class TestTableRouteExactness:
    """The tentpole equivalence: a route reconstructed from a full-run
    forwarding table is *exactly* the per-pair early-exit Dijkstra route
    (same relaxations, same tie-breaks), for every pair."""

    @settings(max_examples=60, deadline=None)
    @given(edges=edge_lists)
    def test_engine_routes_equal_legacy_routes(self, edges):
        if not edges:
            return
        network, nodes = build_network(edges)
        for src in nodes:
            for dst in nodes:
                route = reference_route(network, src, dst)
                if route is None:
                    with pytest.raises(RoutingError):
                        network.route_between(src, dst)
                    continue
                assert network.route_between(src, dst) == route

    @settings(max_examples=40, deadline=None)
    @given(edges=edge_lists)
    def test_can_reach_matches_route_existence(self, edges):
        if not edges:
            return
        network, nodes = build_network(edges)
        for src in nodes:
            for dst in nodes:
                assert (network.can_reach(src, dst)
                        == reference_can_reach(network, src, dst))

    @settings(max_examples=40, deadline=None)
    @given(edges=edge_lists)
    def test_path_profiles_equal(self, edges):
        if not edges:
            return
        network, nodes = build_network(edges)
        src, dst = nodes[0], nodes[-1]
        route = reference_route(network, src, dst)
        if route is None:
            return
        fixed, per_byte, engine_route = network._path_profile(src, dst)
        assert (fixed, per_byte) == reference_profile(network, route)
        assert list(engine_route) == route


def diamond(seed: int = 7):
    """a -- r1 -- (lossy r2 path | slow direct) -- r3 -- b."""
    context = SimContext(seed=seed)
    network = InternetNetwork(context, trusted=True)
    for name in ("a", "b"):
        network.attach(Host(context, name))
    for name in ("r1", "r2", "r3"):
        network.add_router(name)
    network.add_link("a", "r1", bandwidth=2.5e5, propagation_delay=1e-3)
    network.add_link("r1", "r2", bandwidth=1.25e5, propagation_delay=2e-3,
                     frame_loss_rate=0.1)
    network.add_link("r2", "r3", bandwidth=1.25e5, propagation_delay=2e-3,
                     frame_loss_rate=0.1)
    network.add_link("r1", "r3", bandwidth=6e4, propagation_delay=9e-3)
    network.add_link("r3", "b", bandwidth=2.5e5, propagation_delay=1e-3)
    return context, network


def lossy_trace(messages: int = 60):
    """Fixed-seed delivery trace of the lossy diamond."""
    context, network = diamond()
    params = best_effort()
    future = network.create_rms(Label("a"), Label("b"), params, params)
    context.run(until=context.now + 2.0)
    rms = future.result()
    deliveries = []
    rms.port.set_handler(
        lambda message: deliveries.append(
            (bytes(message.payload), context.now)
        )
    )
    for index in range(messages):
        rms.send(bytes([index % 251]) * 48)
        if index % 8 == 7:
            context.run(until=context.now + 0.05)
    context.run(until=context.now + 3.0)
    return deliveries, rms.stats.messages_sent, rms.stats.messages_delivered


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


class TestEngineTraceEquivalence:
    """Fixed-seed delivery traces over compiled plans, pinned.

    Each digest is the sha256 of ``repr(deliveries)`` recorded at the
    last commit that still had the per-pair resolver and its per-hop
    forwarder behind a constructor switch; there both arms produced it.
    The engine may change how fast the host simulates a static topology,
    never what the topology does."""

    def test_lossy_trace_identical(self):
        deliveries, sent, delivered = lossy_trace()
        assert digest(deliveries) == (
            "3300b229547e29b69df641a07cec8725cd461d5c0812758c7b6a84ad59078ffb"
        )
        assert sent == 60
        assert 0 < delivered < sent  # the loss model really fired
        assert len(deliveries) == delivered

    def test_lossless_trace_identical_and_complete(self):
        context = SimContext(seed=3)
        network = InternetNetwork(context, trusted=True)
        network.attach(Host(context, "a"))
        network.attach(Host(context, "b"))
        network.add_router("g")
        network.add_link("a", "g", bandwidth=1e5, propagation_delay=1e-3)
        network.add_link("g", "b", bandwidth=1e5, propagation_delay=1e-3)
        params = best_effort()
        future = network.create_rms(Label("a"), Label("b"), params, params)
        context.run(until=context.now + 1.0)
        rms = future.result()
        got = []
        rms.port.set_handler(
            lambda message: got.append((bytes(message.payload), context.now))
        )
        for index in range(30):
            rms.send(bytes([index]) * 64)
        context.run(until=context.now + 3.0)
        assert digest(got) == (
            "abb60ff3645a9c763a32e4ff4c661049bd82f9f978c9274188d29a7149ffe584"
        )
        assert len(got) == 30


def two_region_network(observe=False):
    """Two link-disjoint regions on one internetwork.

    Region 1: h1 -- g1 -- g2 -- h2, with a slower bypass h1 -- g3 -- h2.
    Region 2: h3 -- g4 -- h4 (no links shared with region 1).
    """
    context = SimContext(seed=5, observe=observe)
    network = InternetNetwork(context, trusted=True)
    for name in ("h1", "h2", "h3", "h4"):
        network.attach(Host(context, name))
    for name in ("g1", "g2", "g3", "g4"):
        network.add_router(name)
    network.add_link("h1", "g1", bandwidth=1e5, propagation_delay=1e-3)
    network.add_link("g1", "g2", bandwidth=1e5, propagation_delay=2e-3)
    network.add_link("g2", "h2", bandwidth=1e5, propagation_delay=1e-3)
    network.add_link("h1", "g3", bandwidth=1e5, propagation_delay=0.05)
    network.add_link("g3", "h2", bandwidth=1e5, propagation_delay=0.05)
    network.add_link("h3", "g4", bandwidth=1e5, propagation_delay=1e-3)
    network.add_link("g4", "h4", bandwidth=1e5, propagation_delay=1e-3)
    return context, network


class TestScopedInvalidation:
    def test_fixed_topology_pays_no_tracking(self):
        """A fixed topology resolves from its caches after the first
        build.  A link state change is one full invalidation: it empties
        every route cache and keeps the neighbour view, which only
        ``add_link`` drops."""
        _, network = two_region_network()
        engine = network._engine
        network.route_between("h1", "h2")
        network.route_between("h3", "h4")
        work = (engine.searches, engine.table_builds, engine.plan_compiles)
        view, invalidations = engine._view, engine.full_invalidations
        for _ in range(3):
            network.route_between("h1", "h2")
            network.route_between("h3", "h4")
        assert (engine.searches, engine.table_builds,
                engine.plan_compiles) == work
        assert engine.full_invalidations == invalidations
        tables, plans = len(engine._tables), cached_plans(engine)
        network.link("g3", "h2").set_down()  # off every cached route
        assert engine.full_invalidations == invalidations + 1
        assert engine.scoped_table_drops == tables
        assert engine.scoped_plan_drops == plans
        assert not engine._tables and not engine._pathsets
        assert engine._search_memo == {} and engine._components is None
        assert engine._view is view
        assert engine.dag_prunes == 0
        network.add_router("g5")
        network.add_link("g4", "g5")
        assert engine._view is None

    def test_flapped_rms_fails_and_reestablishes(self):
        context, network = two_region_network()
        params = best_effort()
        future = network.create_rms(Label("h1"), Label("h2"),
                                    params, params)
        context.run(until=context.now + 1.0)
        rms = future.result()
        reasons = []
        rms.on_failure.listen(lambda r, reason: reasons.append(reason))
        network.link("g1", "g2").set_down()
        assert reasons  # the admitted route died with its link
        # Re-establishment immediately finds the bypass...
        retry = network.create_rms(Label("h1"), Label("h2"),
                                   params, params)
        context.run(until=context.now + 1.0)
        assert retry.result().route == ["h1", "g3", "h2"]
        # ...and after recovery new streams use the short path again.
        network.link("g1", "g2").set_up()
        final = network.create_rms(Label("h1"), Label("h2"),
                                   params, params)
        context.run(until=context.now + 1.0)
        assert final.result().route == ["h1", "g1", "g2", "h2"]


def cached_plans(engine):
    """The compiled plans the engine's path sets hold."""
    return sum(plan is not None for pathset in engine._pathsets.values()
               for plan in pathset.plans)


def soak(network, trunks, resolve, flaps=1000):
    """Flap ``trunks`` in turn, ``resolve()`` after every transition;
    returns the engine's cache sizes after each (two per flap).  Each
    transition of both directions is two full invalidations."""
    engine = network._engine
    invalidations = engine.full_invalidations
    sizes = []
    for flap in range(flaps):
        u, v = trunks[flap % len(trunks)]
        for up in (False, True):
            for link in (network.link(u, v), network.link(v, u)):
                link.set_up() if up else link.set_down()
            resolve()
            sizes.append({
                "tables": len(engine._tables), "plans": cached_plans(engine),
                "pathsets": len(engine._pathsets),
                "search_memo": len(engine._search_memo),
            })
    assert engine.full_invalidations == invalidations + 4 * flaps
    hosts = len(network.hosts)
    for snapshot in sizes:
        assert snapshot["tables"] <= hosts, snapshot
        assert snapshot["search_memo"] <= hosts, snapshot
        # A pair's path set holds a plan per route it handed out.
        assert snapshot["plans"] <= hosts * hosts * engine.max_paths, snapshot
        assert snapshot["pathsets"] <= hosts * hosts, snapshot
    return sizes


def assert_bounded(sizes, factor=2):
    """Every cache stays within a constant factor of its size after the
    first ten flaps -- nothing grows with the number of flaps."""
    early = {name: max(s[name] for s in sizes[:20]) for name in sizes[0]}
    for step, snapshot in enumerate(sizes[20:], start=20):
        for name, size in snapshot.items():
            assert size <= factor * max(early[name], 1), (step, name, snapshot)


class TestSoakBound:
    def test_thousand_flaps_leave_every_index_bounded(self):
        context = SimContext(seed=11)
        network = InternetNetwork(context, trusted=True)
        mesh = build_grid(network, rows=2, cols=3, hosts_per_router=2)
        trunks = [("g0x0", "g0x1"), ("g1x1", "g1x2"), ("g0x2", "g1x2")]

        def resolve():
            for src in mesh.hosts:
                for dst in mesh.hosts:
                    network.route_between(src, dst)

        sizes = soak(network, trunks, resolve)
        assert sizes[-1]["plans"] > 0 and sizes[-1]["tables"] > 0
        assert_bounded(sizes)
        assert f"tables={sizes[-1]['tables']} " in repr(network._engine)


class TestCanReachProbe:
    def test_can_reach_tracks_link_state(self):
        _, network = two_region_network()
        assert network.can_reach("h3", "h4")
        network.link("h3", "g4").set_down()
        network.link("g4", "h3").set_down()
        assert not network.can_reach("h3", "h4")
        network.link("h3", "g4").set_up()
        network.link("g4", "h3").set_up()
        assert network.can_reach("h3", "h4")

    def test_can_reach_edge_cases(self):
        _, network = two_region_network()
        assert network.can_reach("h1", "h1")  # trivially reachable
        assert not network.can_reach("h1", "nope")
        assert not network.can_reach("nope", "h1")
        # Cross-region: no links connect the regions.
        assert not network.can_reach("h1", "h3")


class TestNullPools:
    def test_empty_route_uses_shared_module_pool(self):
        _, network = two_region_network()
        assert network._admission_pools(["h1"]) is NULL_POOLS
        assert network._admission_pools([]) is NULL_POOLS
        # Two networks share the same instance -- no per-call throwaway
        # controllers.
        _, other = two_region_network()
        assert other._admission_pools(["h4"]) is NULL_POOLS

    def test_shared_null_pool_admits_best_effort(self):
        pool = NULL_POOLS[0]
        reservation = pool.admit(10**9, best_effort())
        try:
            assert reservation.bandwidth == 0.0
            assert reservation.buffer_bytes == 0
        finally:
            pool.release(10**9)


class TestPlanDatapath:
    def test_plan_is_cached_and_shared(self):
        _, network = two_region_network()
        plan = network._engine.plan("h1", "h2")
        assert network._engine.plan("h1", "h2") is plan
        # route_between returns the plan's shared route list.
        assert network.route_between("h1", "h2") is plan.route

    def test_rms_carries_its_plan(self):
        context, network = two_region_network()
        params = best_effort()
        future = network.create_rms(Label("h1"), Label("h2"),
                                    params, params)
        context.run(until=context.now + 1.0)
        rms = future.result()
        assert rms.plan is not None
        assert rms.plan.route == rms.route
        got = []
        rms.port.set_handler(got.append)
        rms.send(b"x" * 200)
        context.run(until=context.now + 1.0)
        assert len(got) == 1

    def pinned(self, route, observe=False):
        """An established h1 -> h2 RMS re-pinned to ``route``."""
        context, network = two_region_network(observe=observe)
        params = best_effort()
        future = network.create_rms(Label("h1"), Label("h2"),
                                    params, params)
        context.run(until=context.now + 1.0)
        rms = future.result()
        admitted = rms.plan
        rms.route = route  # downmux-style pinning
        assert rms.plan is not admitted
        return context, network, rms

    def test_repinning_route_compiles_a_private_plan(self):
        bypass = ["h1", "g3", "h2"]
        context, network, rms = self.pinned(bypass)
        engine = network._engine
        plan = rms.plan
        assert plan.route is bypass and rms.route is bypass
        assert plan.links == (network.link("h1", "g3"),
                              network.link("g3", "h2"))
        assert plan.pools == network._admission_pools(bypass)
        assert (plan.fixed_delay, plan.per_byte_delay) == reference_profile(
            network, bypass)
        # Two links and nothing per hop beside them: a frame carries its
        # plan and hop index, and the engine forwards it.
        assert not any(callable(getattr(plan, name))
                       for name in type(plan).__slots__)
        # Never handed out for a resolution.
        assert engine.plan("h1", "h2") is not plan
        assert engine.plan("h1", "h2").route == ["h1", "g1", "g2", "h2"]
        got = []
        rms.port.set_handler(got.append)
        rms.send(b"y" * 100)
        context.run(until=context.now + 1.0)
        assert len(got) == 1  # forwarded along the pinned route
        assert network.link("h1", "g3").stats.frames_transmitted == 1
        assert network.link("g3", "h2").stats.frames_transmitted == 1

    def test_pinned_plan_stays_out_of_every_index(self):
        """A re-pinned plan is its RMS's alone: no resolution hands it
        out, and a flap elsewhere, which empties the route caches,
        leaves the RMS forwarding on it."""
        context, network = two_region_network()
        engine = network._engine
        params = best_effort()
        future = network.create_rms(Label("h3"), Label("h4"), params, params)
        context.run(until=context.now + 1.0)
        rms = future.result()
        rms.route = ["h3", "g4", "h4"]
        pinned = rms.plan
        assert all(pinned not in pathset.plans
                   for pathset in engine._pathsets.values())
        assert engine.plan("h3", "h4") is not pinned
        assert engine.plan("h3", "h4", 1) is not pinned
        got = []
        rms.port.set_handler(got.append)
        last_hop = network.link("g4", "h4").stats
        before = last_hop.frames_transmitted
        for up in (False, True):
            trunk = network.link("g1", "g2")
            trunk.set_up() if up else trunk.set_down()
            assert rms.plan is pinned and rms.is_open
            assert engine.plan("h3", "h4") is not pinned
            rms.send(b"p" * 100)
            context.run(until=context.now + 1.0)
        assert len(got) == 2
        assert last_hop.frames_transmitted == before + 2

    def test_pinning_through_a_missing_link_raises_at_assignment(self):
        context, network = two_region_network()
        params = best_effort()
        future = network.create_rms(Label("h1"), Label("h2"),
                                    params, params)
        context.run(until=context.now + 1.0)
        rms = future.result()
        admitted_route, admitted_plan = rms.route, rms.plan
        with pytest.raises(RoutingError, match="no link h1->g4"):
            rms.route = ["h1", "g4", "h2"]
        with pytest.raises(RoutingError, match="empty route"):
            rms.route = []
        assert rms.route is admitted_route and rms.plan is admitted_plan

    def test_pinned_plan_drops_at_a_downed_mid_route_link(self):
        context, network, rms = self.pinned(["h1", "g3", "h2"], observe=True)
        rms.send(b"z" * 100)
        # Down while the frame is in flight on h1->g3: the RMS fails
        # (its route crosses the link) and the frame drops at g3.
        network.link("g3", "h2").set_down()
        context.run(until=context.now + 1.0)
        assert drop_reasons(context) == ["no usable link g3->h2"]

    def test_ethernet_rms_has_no_plan_to_repin(self):
        context = SimContext(seed=2)
        network = EthernetNetwork(context, trusted=True)
        network.attach(Host(context, "a"))
        network.attach(Host(context, "b"))
        params = best_effort()
        future = network.create_rms(Label("a"), Label("b"), params, params)
        context.run(until=context.now + 1.0)
        rms = future.result()
        assert rms.plan is None
        rms.route = ["a", "b"]
        assert rms.plan is None


def all_routes(network):
    """Every host pair's route, as ``route_between`` resolves it (None
    where there is none)."""
    routes = {}
    for src in sorted(network.hosts):
        for dst in sorted(network.hosts):
            try:
                routes[src, dst] = list(network.route_between(src, dst))
            except RoutingError:
                routes[src, dst] = None
    return routes


def reference_routes(network):
    return {
        (src, dst): reference_route(network, src, dst)
        for src in sorted(network.hosts) for dst in sorted(network.hosts)
    }


class TestNeighbourViewIsLive:
    """``_search`` walks a compiled per-node neighbour view.  What it
    freezes (neighbour, link, weight, whether the neighbour relays) may
    only change in ``add_link``; the up state it must read live."""

    @pytest.mark.parametrize("tracking", [False, True])
    def test_links_added_after_tables_exist_are_routed_over(self, tracking):
        context, network = two_region_network()
        if tracking:
            network.link("g1", "g2").set_down()
            network.link("g1", "g2").set_up()
        network.add_router("g5")
        network.add_link("g4", "g5", bandwidth=1e5, propagation_delay=1e-4)
        context.run(until=context.now + 0.5)
        # g5 is a leaf router here: it relays nothing, h2 is unreachable
        # from region 2.
        assert all_routes(network) == reference_routes(network)
        assert network.route_between("h1", "h2") == ["h1", "g1", "g2", "h2"]
        assert not network.can_reach("h3", "h2")
        # Mid-run growth: g5 becomes a relay and a fast h1 -- g5 link
        # undercuts the g1 -- g2 trunk.
        network.add_link("g5", "g2", bandwidth=1e5, propagation_delay=1e-4)
        network.add_link("h1", "g5", bandwidth=1e5, propagation_delay=1e-4)
        context.run(until=context.now + 0.5)
        assert network.route_between("h1", "h2") == ["h1", "g5", "g2", "h2"]
        assert network.route_between("h3", "h2") == ["h3", "g4", "g5", "g2",
                                                     "h2"]
        assert all_routes(network) == reference_routes(network)
        network.link("g5", "g2").set_down()
        assert all_routes(network) == reference_routes(network)
        assert network.route_between("h1", "h2") == ["h1", "g1", "g2", "h2"]

    @pytest.mark.parametrize("tracking", [False, True])
    def test_a_search_from_a_drop_callback_sees_the_link_down(self, tracking):
        # Link.set_down flips the flag, drains its queue through each
        # frame's on_drop, and only then fires on_down (whose engine
        # listener drops cached tables).  A search run from on_drop, in
        # between, must already route around the link.
        context, network = two_region_network()
        engine = network._engine
        if tracking:
            network.link("g1", "g2").set_down()
            network.link("g1", "g2").set_up()
        network.route_between("h3", "h4")  # a search ran; h1 has no table
        assert "h1" not in engine._tables
        trunk = network.link("g1", "g2")
        seen = []

        def on_drop(frame, reason):
            invalidations = engine.full_invalidations
            searches = engine.searches
            seen.append((
                reason,
                list(network.route_between("h1", "h2")),
                reference_route(network, "h1", "h2"),
                engine.searches - searches,
                engine.full_invalidations - invalidations,
            ))

        for _ in range(3):  # one transmitting, two queued
            trunk.transmit(
                Frame(message=Message(bytes(100)), src_host="h1",
                      dst_host="h2", rms_id=0),
                deliver=lambda frame: None, on_drop=on_drop)
        assert trunk.queue_length == 2
        trunk.set_down()
        bypass = ["h1", "g3", "h2"]
        assert seen[0] == ("link down", bypass, bypass, 1, 0)
        assert seen[1] == ("link down", bypass, bypass, 0, 0)  # cached
        assert network.route_between("h1", "h2") == bypass


def crossing_network():
    """a -- b directly (slow) and a -- g -- b (fast): the direct link is
    an edge a route over g visits both ends of without crossing."""
    context = SimContext(seed=3)
    network = InternetNetwork(context, trusted=True)
    for name in ("a", "b", "c"):
        network.attach(Host(context, name))
    network.add_router("g")
    network.add_link("a", "b", bandwidth=1e5, propagation_delay=0.05)
    network.add_link("a", "g", bandwidth=1e5, propagation_delay=1e-3)
    network.add_link("g", "b", bandwidth=1e5, propagation_delay=1e-3)
    network.add_link("g", "c", bandwidth=1e5, propagation_delay=1e-3)
    return context, network


class TestLinkDownFailsCrossingRms:
    """``_fail_rms_on_route``: a downed simplex link (u, v) fails every
    RMS whose route has u, v adjacent, in either order -- and no other --
    in ``_rms_table`` order."""

    def open(self, context, network, src, dst, route=None):
        params = best_effort()
        future = network.create_rms(Label(src), Label(dst), params, params)
        context.run(until=context.now + 1.0)
        rms = future.result()
        if route is not None:
            rms.route = route
        failures = []
        rms.on_failure.listen(lambda r, reason: failures.append(reason))
        return rms, failures

    def test_either_direction_fails_and_a_non_adjacent_visit_survives(self):
        context, network = crossing_network()
        forward, forward_failed = self.open(context, network, "a", "b",
                                            ["a", "b"])
        backward, backward_failed = self.open(context, network, "b", "a",
                                              ["b", "a"])
        # Visits a and b, never one right after the other.
        detour, detour_failed = self.open(context, network, "a", "b",
                                          ["a", "g", "b"])
        assert detour.route == ["a", "g", "b"]
        looped, looped_failed = self.open(context, network, "b", "c",
                                          ["b", "g", "a", "g", "c"])
        network.link("a", "b").set_down()
        assert forward_failed == backward_failed == ["link a->b down"]
        assert detour_failed == looped_failed == []
        assert forward.rms_id not in network._rms_table
        assert backward.rms_id not in network._rms_table
        assert {detour.rms_id, looped.rms_id} <= set(network._rms_table)

    def test_failures_fire_in_rms_table_order(self):
        context, network = crossing_network()
        order = []
        specs = [("b", "a", ["b", "a"]), ("a", "c", ["a", "g", "c"]),
                 ("a", "b", ["a", "b"]), ("c", "a", ["c", "g", "b", "a"]),
                 ("a", "b", ["a", "g", "b"]), ("b", "c", ["b", "a", "g", "c"])]
        for src, dst, route in specs:
            rms, _ = self.open(context, network, src, dst, route)
            rms.on_failure.listen(lambda r, reason: order.append(r.rms_id))
        crossing = [rms.rms_id for rms in network._rms_table.values()
                    if {("a", "b"), ("b", "a")} & set(zip(rms.route,
                                                          rms.route[1:]))]
        assert len(crossing) == 4
        network.link("b", "a").set_down()
        assert order == crossing
