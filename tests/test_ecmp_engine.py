"""Tests for the equal-cost multipath forwarding engine.

The contract (DESIGN.md 8.8): under ``ecmp=True`` every flow's pinned
route must cost exactly the Dijkstra optimum, path choice must be a
pure function of (src, dst, flow) and the topology -- no interpreter
salt, no iteration-order luck -- and on tie-free topologies the engine
must hand out the *same* canonical plans as the single-path engine, so
fixed-seed traces are byte-identical.  Link flaps must stay scoped:
only streams pinned through the flapped edge fail, and the equal-cost
siblings carry them once they are re-established.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.message import Label
from repro.core.params import DelayBound, DelayBoundType, RmsParams
from repro.dash.system import DashSystem
from repro.errors import RoutingError
from repro.netsim import internet
from repro.netsim.internet import InternetNetwork
from repro.netsim.routing import flow_hash
from repro.netsim.topology import Host, MeshSpec, build_two_tier
from repro.obs import LinkUtilizationCollector, jain_fairness
from repro.resilience import policy
from repro.sim.context import SimContext
from tests.routing_reference import reference_distances
from tests.streams import assert_in_sequence
from tests.test_routing_engine import assert_bounded, build_network, soak

# Weights drawn from a tiny discrete set so random graphs are dense
# with exact cost ties -- the case ECMP exists for.
tie_rich_edge_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
        st.sampled_from([1e-3, 2e-3, 4e-3]),
    ),
    min_size=2,
    max_size=14,
).map(lambda edges: [(a, b, w) for a, b, w in edges if a != b])


def best_effort(mms: int = 500) -> RmsParams:
    return RmsParams(
        capacity=16 * 1024,
        max_message_size=mms,
        delay_bound=DelayBound(0.5, 1e-4),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
    )


def route_cost(network, route):
    """The route's summed link weights; a hop over a down link costs inf."""
    return sum(
        network._weights[hop] if network.link(*hop).is_up else float("inf")
        for hop in zip(route, route[1:])
    )


class TestEcmpOptimality:
    """Every pinned route costs exactly the Dijkstra optimum."""

    @settings(max_examples=60, deadline=None)
    @given(edges=tie_rich_edge_lists)
    def test_every_flow_route_is_cost_optimal(self, edges):
        if not edges:
            return
        network, nodes = build_network(edges, ecmp=True)
        engine = network._engine
        for src in nodes:
            reference = reference_distances(network, src)
            for dst in nodes:
                if src == dst:
                    continue
                if dst not in reference:
                    with pytest.raises(RoutingError):
                        engine.plan(src, dst, 0)
                    continue
                for flow in range(5):
                    plan = engine.plan(src, dst, flow)
                    assert route_cost(network, plan.route) == reference[dst]
                    assert plan.route[0] == src and plan.route[-1] == dst

    @settings(max_examples=40, deadline=None)
    @given(edges=tie_rich_edge_lists)
    def test_every_enumerated_route_is_cost_optimal_and_unique(self, edges):
        if not edges:
            return
        network, nodes = build_network(edges, ecmp=True)
        engine = network._engine
        src, dst = nodes[0], nodes[-1]
        if src == dst:
            return
        reference = reference_distances(network, src)
        if dst not in reference:
            return
        pathset = engine.pathset(src, dst)
        assert 1 <= len(pathset.routes) <= engine.max_paths
        seen = set()
        for route in pathset.routes:
            assert route_cost(network, route) == reference[dst]
            key = tuple(route)
            assert key not in seen  # enumeration never repeats a path
            seen.add(key)


class TestEcmpDeterminism:
    """Path choice is a pure function of (topology, src, dst, flow)."""

    @settings(max_examples=40, deadline=None)
    @given(edges=tie_rich_edge_lists, seed=st.integers(1, 1000))
    def test_pinning_is_identical_across_rebuilds(self, edges, seed):
        if not edges:
            return
        first, nodes = build_network(edges, ecmp=True, seed=seed)
        second, _ = build_network(edges, ecmp=True, seed=seed)
        src, dst = nodes[0], nodes[-1]
        if src == dst or not first.can_reach(src, dst):
            return
        for flow in range(8):
            assert (
                first._engine.plan(src, dst, flow).route
                == second._engine.plan(src, dst, flow).route
            )

    def test_flow_hash_is_not_interpreter_salted(self):
        # CRC-32 of the canonical label: a constant anyone can recompute.
        import zlib
        assert flow_hash("h0", "h5", 0) == zlib.crc32(b"h0|h5|0") == 1678518622
        assert flow_hash("h0", "h5", 0) != flow_hash("h0", "h5", 1)
        assert flow_hash("h0", "h5", 2) != flow_hash("h5", "h0", 2)

    def test_flows_spread_across_spines(self):
        context = SimContext(seed=9)
        network = InternetNetwork(context, trusted=True, ecmp=True)
        build_two_tier(network, spines=4, leaves=4, hosts_per_leaf=1)
        engine = network._engine
        spines_used = {
            engine.plan("h0", "h2", flow).route[2]
            for flow in range(16)
        }
        assert len(spines_used) > 1  # distinct flows take distinct trunks
        pathset = engine.pathset("h0", "h2")
        assert len(pathset.routes) == 4  # one per spine
        # The canonical route is always enumerated first.
        assert pathset.routes[0] == engine.plan("h0", "h2").route

    def test_max_paths_bounds_enumeration(self, monkeypatch):
        monkeypatch.setattr(internet, "ECMP_MAX_PATHS", 2)
        context = SimContext(seed=9)
        network = InternetNetwork(context, trusted=True, ecmp=True)
        build_two_tier(network, spines=5, leaves=3, hosts_per_leaf=1)
        pathset = network._engine.pathset("h0", "h1")
        assert len(pathset.routes) == 2
        assert pathset.routes[0] == network._engine.plan("h0", "h1").route


def tie_free_diamond(ecmp: bool, seed: int = 7):
    """The PR 9 lossy diamond: distinct path costs, no ties anywhere."""
    context = SimContext(seed=seed)
    network = InternetNetwork(context, trusted=True, ecmp=ecmp)
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


def tie_free_lossy_trace(ecmp: bool, messages: int = 60):
    """Fixed-seed delivery trace of the tie-free lossy diamond."""
    context, network = tie_free_diamond(ecmp)
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


class TestTieFreeEquivalence:
    """On a topology with no cost ties, ECMP must be a no-op: same plan
    objects, byte-identical fixed-seed traces, loss model and all."""

    def test_lossy_trace_identical_vs_single_path(self):
        ecmp = tie_free_lossy_trace(ecmp=True)
        single = tie_free_lossy_trace(ecmp=False)
        assert ecmp == single
        deliveries, sent, delivered = ecmp
        assert sent == 60
        assert 0 < delivered < sent  # the loss model really fired
        assert len(deliveries) == delivered

    def test_tie_free_pair_reuses_the_canonical_plan_object(self):
        _, network = tie_free_diamond(ecmp=True)
        engine = network._engine
        assert engine.plan("a", "b", 4) is engine.plan("a", "b")


class TestDagScopedInvalidation:
    """A flapped edge fails only the streams pinned through it; the
    equal-cost siblings absorb the re-resolved flows."""

    def _fabric(self):
        context = SimContext(seed=13)
        network = InternetNetwork(context, trusted=True, ecmp=True)
        mesh = build_two_tier(network, spines=3, leaves=3, hosts_per_leaf=2)
        engine = network._engine
        primer = network.link("leaf2", "spine2")
        primer.set_down()
        primer.set_up()
        return context, network, mesh, engine

    def test_restored_sibling_rejoins_the_spread(self):
        _, network, _, engine = self._fabric()
        for flow in range(9):
            engine.plan("h0", "h2", flow)
        down = network.link("leaf0", "spine1")
        down.set_down()
        assert all(
            "spine1" not in engine.plan("h0", "h2", flow).route
            for flow in range(9)
        )
        down.set_up()
        spines_used = {
            engine.plan("h0", "h2", flow).route[2]
            for flow in range(16)
        }
        assert "spine1" in spines_used

    def test_rms_failure_stays_scoped_to_pinned_flows(self):
        context, network, mesh, engine = self._fabric()
        params = best_effort()
        streams = []
        for flow in range(6):
            future = network.create_rms(
                Label("h0"), Label("h2"), params, params
            )
            context.run(until=context.now + 1.0)
            streams.append(future.result())
        assert len({tuple(rms.route) for rms in streams}) > 1
        failed = []
        for rms in streams:
            rms.on_failure.listen(
                lambda rms, reason: failed.append(rms.rms_id)
            )
        pinned_through = {
            rms.rms_id for rms in streams if "spine1" in rms.route
        }
        assert 0 < len(pinned_through) < len(streams)
        network.link("leaf0", "spine1").set_down()
        network.link("spine1", "leaf0").set_down()
        context.run(until=context.now + 0.5)
        assert set(failed) == pinned_through


class TestRepinKeepsOrder:
    """ST assumes per-flow FIFO of the network RMS below it: when a flap
    kills a flow's pinned plan and the supervised session comes back on
    a sibling spine, nothing of that flow may overtake anything else."""

    def test_repin_after_flap_does_not_reorder_within_a_flow(self,
                                                              monkeypatch):
        monkeypatch.setattr(policy, "MAX_ATTEMPTS", 12)
        system = DashSystem(seed=13, observe=True)
        network, _ = system.add_mesh(
            "two_tier", ecmp=True, spines=3, leaves=3, hosts_per_leaf=2,
            network_kwargs=dict(trusted=True),
        )
        primer = network.link("leaf2", "spine2")
        primer.set_down()
        primer.set_up()
        params = best_effort()
        sessions = {
            peer: system.connect(
                "h0", peer, port="flow", desired=params, acceptable=params,
                resilience=True,
            )
            for peer in ("h2", "h3", "h4", "h5")
        }
        system.run(until=2.0)
        got = {peer: [] for peer in sessions}
        for peer, session in sessions.items():
            session.established.result()
            session.port.set_handler(
                lambda message, peer=peer: got[peer].append(
                    int.from_bytes(message.payload[:2], "big")
                )
            )

        def producer():
            for index in range(300):
                for session in sessions.values():
                    session.send(index.to_bytes(2, "big") * 32)
                yield 0.005

        trunk = [network.link("leaf0", "spine1"), network.link("spine1", "leaf0")]
        before = {
            rms.rms_id for rms in network._rms_table.values()
            if "spine1" in rms.route and rms.route[0] == "h0"
        }
        assert before
        system.context.spawn(producer())
        loop = system.context.loop
        for link in trunk:
            loop.call_after(0.3, link.set_down)
            loop.call_after(0.9, link.set_up)
        system.run(until=system.now + 10.0)

        # The flap did re-pin: the flows through spine1 are gone and a
        # session recovered onto a sibling.
        assert before.isdisjoint(network._rms_table)
        assert sum(s.stats.recoveries for s in sessions.values()) >= 1
        for peer, indexes in got.items():
            assert len(indexes) >= 290, peer
            assert indexes == sorted(set(indexes)), peer
        assert_in_sequence(node.st for node in system.nodes.values())
        # Streams the flap tore down are in no table any more, but the
        # registry still reads their stats: every series is an exported 0.
        series = system.obs.metrics.snapshot()["rms_messages_out_of_order"]["series"]
        assert len(series) > len(network._rms_table)
        assert all(entry["value"] == 0 for entry in series)


class TestSoakBound:
    def test_thousand_flaps_leave_every_index_bounded(self):
        context = SimContext(seed=17)
        network = InternetNetwork(context, trusted=True, ecmp=True)
        mesh = build_two_tier(network, spines=3, leaves=3, hosts_per_leaf=2)
        engine = network._engine
        trunks = [("leaf0", "spine1"), ("leaf1", "spine0"), ("leaf2", "spine2")]

        def resolve():
            for src in mesh.hosts:
                for dst in mesh.hosts:
                    for flow in range(3):
                        engine.plan(src, dst, flow)

        sizes = soak(network, trunks, resolve)
        for name in ("tables", "plans", "pathsets", "search_memo"):
            assert sizes[-1][name] > 0
        assert engine.dag_prunes == 0
        assert_bounded(sizes)


class TestLinkUtilization:
    """The obs collector: Jain's index math and windowed deltas."""

    def test_jain_fairness_math(self):
        assert jain_fairness([]) == 1.0
        assert jain_fairness([0, 0, 0]) == 1.0
        assert jain_fairness([5, 5, 5, 5]) == pytest.approx(1.0)
        assert jain_fairness([1, 0, 0, 0]) == pytest.approx(0.25)
        assert jain_fairness([2, 1]) == pytest.approx(0.9)

    def test_collector_windows_trunk_bytes(self):
        context = SimContext(seed=21)
        network = InternetNetwork(context, trusted=True, ecmp=True)
        build_two_tier(network, spines=2, leaves=2, hosts_per_leaf=1,
                       spec=MeshSpec())
        collector = LinkUtilizationCollector(network)
        # Trunks only: 2 spines x 2 leaves x 2 directions.
        assert len(collector.delta()) == 8
        assert all(v == 0 for v in collector.delta().values())
        params = best_effort()
        future = network.create_rms(Label("h0"), Label("h1"), params, params)
        context.run(until=context.now + 1.0)
        rms = future.result()
        collector.mark()
        from repro.core.message import Message
        for _ in range(4):
            rms.send(Message(b"x" * 200, source=rms.sender,
                             target=rms.receiver))
        context.run(until=context.now + 1.0)
        deltas = collector.delta()
        assert sum(deltas.values()) > 0
        assert 0.0 < collector.fairness() <= 1.0
