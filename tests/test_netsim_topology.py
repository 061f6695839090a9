"""Tests for links, impairments, and admission control."""

from __future__ import annotations

import random

import pytest

from repro.core.message import Message
from repro.core.params import DelayBound, DelayBoundType, RmsParams, StatisticalSpec
from repro.errors import AdmissionError, NetworkError, ParameterError
from repro.netsim.admission import AdmissionController
from repro.netsim.errors_model import ImpairmentModel
from repro.netsim.packet import FRAME_OVERHEAD_BYTES, Frame
from repro.netsim.topology import Host, Link
from repro.sim.context import SimContext


def make_frame(size=100, deadline=1.0):
    return Frame(
        message=Message(b"x" * size),
        src_host="a",
        dst_host="b",
        rms_id=1,
        deadline=deadline,
    )


class TestFrame:
    def test_size_includes_overhead(self):
        frame = make_frame(size=100)
        assert frame.size == 100 + FRAME_OVERHEAD_BYTES

    def test_corrupt_payload_flips_one_bit(self):
        frame = make_frame(size=10)
        original = frame.message.payload
        frame.corrupt_payload(13)
        assert frame.corrupted
        diffs = [
            index
            for index, (a, b) in enumerate(zip(original, frame.message.payload))
            if a != b
        ]
        assert len(diffs) == 1

    def test_corrupt_empty_payload_sets_flag(self):
        frame = Frame(message=Message(b""), src_host="a", dst_host="b", rms_id=1)
        frame.corrupt_payload(0)
        assert frame.corrupted


class TestImpairmentModel:
    def test_clean_model(self):
        model = ImpairmentModel()
        assert model.is_clean
        assert model.corruption_probability(1000) == 0.0

    def test_corruption_probability_grows_with_size(self):
        model = ImpairmentModel(bit_error_rate=1e-6)
        assert model.corruption_probability(10_000) > model.corruption_probability(100)

    def test_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            ImpairmentModel(bit_error_rate=2.0)
        with pytest.raises(ParameterError):
            ImpairmentModel(frame_loss_rate=-0.1)

    def test_loss_sampling_statistics(self):
        context = SimContext(seed=11)
        model = ImpairmentModel(frame_loss_rate=0.3)
        rng = context.rng.stream("test")
        losses = sum(model.loses_frame(rng) for _ in range(5000))
        assert 0.25 < losses / 5000 < 0.35

    def test_corruption_actually_corrupts(self):
        context = SimContext(seed=11)
        model = ImpairmentModel(bit_error_rate=1e-3)
        rng = context.rng.stream("test")
        frame = make_frame(size=1000)
        original = frame.message.payload
        corrupted = model.maybe_corrupt(frame, rng)
        assert corrupted  # at 1e-3 ber over 8000+ bits, near certain
        assert frame.message.payload != original


class TestLink:
    def test_transmission_and_propagation_delay(self):
        context = SimContext()
        link = Link(context, "l", bandwidth=1e6, propagation_delay=0.01)
        arrivals = []
        frame = make_frame(size=1000 - FRAME_OVERHEAD_BYTES)
        link.transmit(frame, deliver=lambda f: arrivals.append(context.now))
        context.run()
        assert arrivals[0] == pytest.approx(1000 / 1e6 + 0.01)

    def test_serialization_queues_frames(self):
        context = SimContext()
        link = Link(context, "l", bandwidth=1e3, propagation_delay=0.0)
        arrivals = []
        for _ in range(3):
            link.transmit(make_frame(size=100 - FRAME_OVERHEAD_BYTES),
                          deliver=lambda f: arrivals.append(context.now))
        context.run()
        assert arrivals == [pytest.approx(0.1), pytest.approx(0.2), pytest.approx(0.3)]

    def test_edf_queue_reorders_by_deadline(self):
        context = SimContext()
        link = Link(context, "l", bandwidth=1e4, propagation_delay=0.0, policy="edf")
        order = []
        # First frame occupies the link; the rest queue and reorder.
        link.transmit(make_frame(deadline=0.0), deliver=lambda f: order.append("busy"))
        link.transmit(make_frame(deadline=9.0), deliver=lambda f: order.append("late"))
        link.transmit(make_frame(deadline=5.0), deliver=lambda f: order.append("tie1"))
        link.transmit(make_frame(deadline=1.0), deliver=lambda f: order.append("early"))
        link.transmit(make_frame(deadline=5.0), deliver=lambda f: order.append("tie2"))
        context.run()
        # Equal deadlines leave in arrival order (section 4.3.1).
        assert order == ["busy", "early", "tie1", "tie2", "late"]

    def test_fifo_queue_keeps_arrival_order(self):
        context = SimContext()
        link = Link(context, "l", bandwidth=1e4, propagation_delay=0.0, policy="fifo")
        order = []
        link.transmit(make_frame(deadline=0.0), deliver=lambda f: order.append(0))
        link.transmit(make_frame(deadline=9.0), deliver=lambda f: order.append(1))
        link.transmit(make_frame(deadline=1.0), deliver=lambda f: order.append(2))
        context.run()
        assert order == [0, 1, 2]

    def test_buffer_overrun_drops(self):
        context = SimContext()
        link = Link(context, "l", bandwidth=1e3, propagation_delay=0.0,
                    buffer_bytes=300)
        drops = []
        for _ in range(5):
            link.transmit(
                make_frame(size=100 - FRAME_OVERHEAD_BYTES),
                deliver=lambda f: None,
                on_drop=lambda f, reason: drops.append(reason),
            )
        assert link.stats.frames_dropped_overrun == len(drops) > 0
        context.run()

    def test_overrun_hook_invoked(self):
        context = SimContext()
        link = Link(context, "l", bandwidth=1e3, propagation_delay=0.0,
                    buffer_bytes=150)
        quenched = []
        link.on_overrun = quenched.append
        link.transmit(make_frame(), deliver=lambda f: None)
        link.transmit(make_frame(), deliver=lambda f: None)
        assert len(quenched) == 1

    def test_link_down_discards_and_notifies(self):
        context = SimContext()
        link = Link(context, "l", bandwidth=1e3, propagation_delay=0.0)
        down = []
        drops = []
        link.on_down.listen(lambda l: down.append(l))
        link.transmit(make_frame(), deliver=lambda f: None,
                      on_drop=lambda f, r: drops.append(r))
        link.transmit(make_frame(), deliver=lambda f: None,
                      on_drop=lambda f, r: drops.append(r))
        link.set_down()
        assert down == [link]
        assert not link.transmit(make_frame(), deliver=lambda f: None,
                                 on_drop=lambda f, r: drops.append(r))
        context.run()
        assert len(drops) >= 2

    def test_shared_downstream_link_serves_ties_in_loop_order(self):
        # Two FIFO source links feed one EDF link.  All times are
        # multiples of u = 1/128 s, so every float below is exact: a
        # 128 B frame takes 2u on a source (+1u propagation) and 4u on
        # the shared link.
        u = 1 / 128
        context = SimContext()
        loop = context.loop
        src_a = Link(context, "a", bandwidth=8192, propagation_delay=u, policy="fifo")
        src_b = Link(context, "b", bandwidth=8192, propagation_delay=u, policy="fifo")
        shared = Link(context, "d", bandwidth=4096, propagation_delay=0.0, policy="edf")
        seen = []

        def delivered(frame):
            stats = shared.stats
            seen.append((frame.src_host, loop.now / u, shared.queued_bytes,
                         shared.queue_length, stats.frames_transmitted,
                         stats.bytes_transmitted))

        def forward(frame):
            shared.transmit(frame, deliver=delivered)

        def send(link, name, deadline=1.0):
            frame = make_frame(size=128 - FRAME_OVERHEAD_BYTES, deadline=deadline)
            frame.src_host = name
            link.transmit(frame, deliver=forward)

        # b's frames are offered one at a time, each ahead (in loop seq)
        # of a's same-instant completion; a holds its three from t=0.
        loop.call_at(2 * u, send, src_b, "b1")
        loop.call_at(4 * u, send, src_b, "b2")
        send(src_a, "a0")
        send(src_a, "a1")
        send(src_a, "a2", deadline=0.5)
        context.run()
        # a0 arrives alone at 3u and holds the wire until 7u.  b1 and a1
        # both arrive at 5u, b1 first in (time, seq) order; b2 and a2 at
        # 7u, after the completion event scheduled back at 3u.  The
        # urgent a2 overtakes a1 and b2 in the queue, but not b1, which
        # that completion had already put on the wire.
        assert seen == [
            ("a0", 7.0, 512, 3, 1, 128),
            ("b1", 11.0, 384, 2, 2, 256),
            ("a2", 15.0, 256, 1, 3, 384),
            ("a1", 19.0, 128, 0, 4, 512),
            ("b2", 23.0, 0, 0, 5, 640),
        ]
        assert shared.stats.max_queue_bytes == 512

    @pytest.mark.parametrize("seed", range(6))
    def test_nonempty_queue_implies_busy(self, seed):
        # ``transmit`` tests ``_busy`` alone, which is sound only while a
        # non-empty interface queue implies a busy transmitter -- at every
        # point where foreign code can run, callbacks included.
        rng = random.Random(seed)
        context = SimContext(seed=seed)
        loop = context.loop
        link = Link(context, "l", bandwidth=1e4, propagation_delay=0.001,
                    policy=rng.choice(["edf", "fifo"]), buffer_bytes=2000,
                    impairment=ImpairmentModel(frame_loss_rate=0.3))
        offered, delivered, dropped = [0], [], []

        def check():
            assert link.queue_length == 0 or link._busy
            assert link.queued_bytes >= 0

        def offer():
            offered[0] += 1
            link.transmit(make_frame(size=rng.randrange(1, 200),
                                     deadline=rng.random()),
                          deliver=on_deliver, on_drop=on_drop)
            check()

        def on_deliver(frame):
            check()
            delivered.append(frame)

        def on_drop(frame, reason):
            check()
            dropped.append(frame)
            if reason == "medium loss" and rng.random() < 0.5:
                offer()  # re-offered from inside the completion

        for _ in range(400):
            step = rng.random()
            if step < 0.55:
                offer()
            elif step < 0.65:
                link.set_down()
            elif step < 0.80:
                link.set_up()
            else:
                loop.run(until=loop.now + rng.choice([0.0, 0.004, 0.03]))
            check()
        link.set_up()
        context.run()
        check()
        assert not link._busy and link.queued_bytes == 0
        assert len(delivered) + len(dropped) == offered[0]
        assert len({id(frame) for frame in delivered + dropped}) == offered[0]

    def test_frame_offered_from_drop_callback_does_not_jump_the_queue(self):
        context = SimContext()
        link = Link(context, "l", bandwidth=1e4, propagation_delay=0.0,
                    policy="fifo",
                    impairment=ImpairmentModel(frame_loss_rate=1.0))
        order = []

        def lost(tag, again=False):
            def on_drop(frame, reason):
                order.append(tag)
                if again:
                    link.transmit(make_frame(), deliver=order.append,
                                  on_drop=lost("again"))
            return on_drop

        link.transmit(make_frame(), deliver=order.append,
                      on_drop=lost(0, again=True))
        link.transmit(make_frame(), deliver=order.append, on_drop=lost(1))
        link.transmit(make_frame(), deliver=order.append, on_drop=lost(2))
        context.run()
        assert order == [0, 1, 2, "again"]

    def test_raising_drop_callback_does_not_wedge_the_link(self):
        # The completion releases the transmitter in a ``finally``: the
        # frames queued behind a lost one whose ``on_drop`` raises are
        # sent by the next ``run()``.
        context = SimContext()
        link = Link(context, "l", bandwidth=1e4, propagation_delay=0.0,
                    policy="fifo",
                    impairment=ImpairmentModel(frame_loss_rate=1.0))
        delivered = []

        def boom(frame, reason):
            raise RuntimeError(reason)

        second, third, fresh = make_frame(), make_frame(), make_frame()
        link.transmit(make_frame(), deliver=delivered.append, on_drop=boom)
        link.transmit(second, deliver=delivered.append)
        link.transmit(third, deliver=delivered.append)
        with pytest.raises(RuntimeError, match="medium loss"):
            context.run()
        assert link.queued_bytes == second.size + third.size
        link.impairment.frame_loss_rate = 0.0
        assert link.transmit(fresh, deliver=delivered.append)
        context.run()
        assert delivered == [second, third, fresh]
        assert link.queue_length == 0 and not link._busy
        assert link.queued_bytes == 0
        stats = link.stats
        assert (stats.frames_transmitted, stats.frames_dropped_loss) == (4, 1)
        assert stats.bytes_transmitted == 4 * fresh.size

    def test_raising_drop_callback_does_not_cut_set_down_short(self):
        # One frame in service and three queued; the first queued frame's
        # ``on_drop`` raises.  The drain still empties the queue and
        # routing still hears that the link died; the error comes out.
        context = SimContext()
        link = Link(context, "l", bandwidth=1e3, propagation_delay=0.0,
                    policy="fifo")
        down, drops = [], []
        link.on_down.listen(down.append)

        def boom(frame, reason):
            drops.append("boom")
            raise RuntimeError(reason)

        in_service = make_frame()
        link.transmit(in_service, deliver=lambda f: None)
        link.transmit(make_frame(), deliver=lambda f: None, on_drop=boom)
        for _ in range(2):
            link.transmit(make_frame(), deliver=lambda f: None,
                          on_drop=lambda f, r: drops.append(r))
        assert link.queue_length == 3
        with pytest.raises(RuntimeError, match="link down"):
            link.set_down()
        assert drops == ["boom", "link down", "link down"]
        assert link.queue_length == 0
        assert link._queued_bytes == in_service.size
        assert down == [link]
        link.set_up()
        context.run()
        assert not link._busy and link._queued_bytes == 0

    def test_invalid_parameters_rejected(self):
        context = SimContext()
        with pytest.raises(NetworkError):
            Link(context, "l", bandwidth=0, propagation_delay=0.0)
        with pytest.raises(NetworkError):
            Link(context, "l", bandwidth=1.0, propagation_delay=-1.0)


class TestHost:
    def test_bind_port_idempotent(self):
        context = SimContext()
        host = Host(context, "h")
        assert host.bind_port("p") is host.bind_port("p")

    def test_cpu_policy_configurable(self):
        context = SimContext()
        host = Host(context, "h", cpu_policy="fifo")
        assert host.cpu.policy == "fifo"


class TestAdmissionController:
    def deterministic_params(self, capacity=10_000, delay=0.1):
        return RmsParams(
            capacity=capacity,
            max_message_size=1000,
            delay_bound=DelayBound(delay, 0.0),
            delay_bound_type=DelayBoundType.DETERMINISTIC,
        )

    def statistical_params(self, load=10_000.0):
        return RmsParams(
            capacity=10_000,
            max_message_size=1000,
            delay_bound=DelayBound(0.1, 0.0),
            delay_bound_type=DelayBoundType.STATISTICAL,
            statistical=StatisticalSpec(average_load=load, burstiness=2.0),
        )

    def best_effort_params(self):
        return RmsParams(capacity=10_000, max_message_size=1000)

    def test_best_effort_never_rejected(self):
        """Section 2.3: best-effort creation requests are never rejected."""
        pool = AdmissionController(total_bandwidth=1.0, total_buffer_bytes=1)
        for rms_id in range(100):
            pool.admit(rms_id, self.best_effort_params())
        assert pool.admitted == 100

    def test_deterministic_reserves_and_rejects(self):
        # implied bandwidth 10000/0.1 = 100 kB/s, x1.5 phasing guard.
        pool = AdmissionController(total_bandwidth=350_000, total_buffer_bytes=10**6)
        pool.admit(1, self.deterministic_params())
        pool.admit(2, self.deterministic_params())
        with pytest.raises(AdmissionError):
            pool.admit(3, self.deterministic_params())
        assert pool.rejected == 1

    def test_deterministic_buffer_limit(self):
        pool = AdmissionController(total_bandwidth=1e9, total_buffer_bytes=15_000)
        pool.admit(1, self.deterministic_params())
        with pytest.raises(AdmissionError):
            pool.admit(2, self.deterministic_params())

    def test_release_frees_resources(self):
        pool = AdmissionController(total_bandwidth=200_000, total_buffer_bytes=10**6)
        pool.admit(1, self.deterministic_params())
        with pytest.raises(AdmissionError):
            pool.admit(2, self.deterministic_params())
        pool.release(1)
        pool.admit(2, self.deterministic_params())

    def test_release_unknown_is_idempotent(self):
        pool = AdmissionController(total_bandwidth=1.0, total_buffer_bytes=1)
        pool.release(42)

    def test_statistical_admits_more_than_deterministic(self):
        """Effective bandwidth sits between average and peak, so more
        statistical streams fit the same pool than deterministic ones."""
        bandwidth = 200_000.0
        det_pool = AdmissionController(bandwidth, 10**7)
        stat_pool = AdmissionController(bandwidth, 10**7)
        det_count = 0
        while True:
            try:
                det_pool.admit(det_count, self.deterministic_params())
                det_count += 1
            except AdmissionError:
                break
        stat_count = 0
        while True:
            try:
                stat_pool.admit(stat_count, self.statistical_params())
                stat_count += 1
            except AdmissionError:
                break
        assert stat_count > det_count

    def test_duplicate_admission_rejected(self):
        pool = AdmissionController(total_bandwidth=1e6, total_buffer_bytes=10**6)
        pool.admit(1, self.best_effort_params())
        with pytest.raises(AdmissionError):
            pool.admit(1, self.best_effort_params())

    def test_statistical_needs_spec(self):
        pool = AdmissionController(total_bandwidth=1e6, total_buffer_bytes=10**6)
        broken = self.deterministic_params()
        with pytest.raises(ParameterError):
            pool.statistical_demand(broken)


class TestMeshBuilders:
    """The scale-out mesh builders: counts, connectivity, callbacks."""

    @staticmethod
    def _internet():
        from repro.netsim.internet import InternetNetwork
        context = SimContext(seed=3)
        return context, InternetNetwork(context, trusted=True)

    def test_grid_counts_and_connectivity(self):
        from repro.netsim.topology import build_grid
        context, network = self._internet()
        mesh = build_grid(network, 3, 4, hosts_per_router=2)
        assert len(mesh.routers) == 12
        assert len(mesh.hosts) == 24
        assert set(mesh.host_router) == set(mesh.hosts)
        # Opposite grid corners are connected host-to-host.
        assert network.can_reach(mesh.hosts[0], mesh.hosts[-1])
        route = network.route_between(mesh.hosts[0], mesh.hosts[-1])
        assert route[0] == mesh.hosts[0] and route[-1] == mesh.hosts[-1]
        # Interior hops are all routers.
        assert all(node in set(mesh.routers) for node in route[1:-1])

    def test_two_tier_routes_cross_one_spine(self):
        from repro.netsim.topology import build_two_tier
        context, network = self._internet()
        mesh = build_two_tier(network, spines=3, leaves=4, hosts_per_leaf=2)
        assert len(mesh.routers) == 7
        assert len(mesh.hosts) == 8
        cross = network.route_between(mesh.hosts[0], mesh.hosts[-1])
        spines = {name for name in mesh.routers if name.startswith("spine")}
        assert len([node for node in cross if node in spines]) == 1

    def test_mesh_spec_reaches_links(self):
        from repro.netsim.topology import MeshSpec, build_grid
        context, network = self._internet()
        spec = MeshSpec(trunk_bandwidth=12345.0, access_bandwidth=54321.0)
        mesh = build_grid(network, 2, 2, spec=spec)
        assert network.link("g0x0", "g0x1").bandwidth == 12345.0
        host = mesh.hosts[0]
        assert network.link(host, mesh.host_router[host]).bandwidth == 54321.0

    def test_attach_host_callback_owns_host_creation(self):
        from repro.netsim.topology import build_grid
        context, network = self._internet()
        created = []

        def attach(net, name):
            label = f"custom-{name}"
            net.attach(Host(context, label))
            created.append(label)
            return label

        mesh = build_grid(network, 2, 2, attach_host=attach)
        assert mesh.hosts == created
        assert all(name.startswith("custom-h") for name in mesh.hosts)

    def test_degenerate_shapes_rejected(self):
        from repro.netsim.topology import build_grid, build_two_tier
        context, network = self._internet()
        with pytest.raises(ValueError, match="grid rows"):
            build_grid(network, 0, 3)
        # A 1xN "grid" is a chain, not a mesh: rejected loudly rather
        # than built silently.
        with pytest.raises(ValueError, match="chain"):
            build_grid(network, 1, 5)
        with pytest.raises(ValueError, match="chain"):
            build_grid(network, 3, 1)
        with pytest.raises(ValueError, match="hosts_per_router"):
            build_grid(network, 2, 2, hosts_per_router=-1)
        with pytest.raises(ValueError, match="spines"):
            build_two_tier(network, spines=0, leaves=2)
        # A single-spine fabric has no equal-cost diversity at all.
        with pytest.raises(ValueError, match="single spine"):
            build_two_tier(network, spines=1, leaves=3)
        with pytest.raises(ValueError, match="leaves"):
            build_two_tier(network, spines=2, leaves=1)
        with pytest.raises(ValueError, match="integer"):
            build_grid(network, 2.0, 2)
        # Nothing was half-built by the rejected calls.
        assert not network.routers

    def test_dash_system_add_mesh(self):
        from repro.dash.system import DashSystem
        system = DashSystem(seed=11)
        network, mesh = system.add_mesh("grid", rows=2, cols=2,
                                        hosts_per_router=1)
        assert set(mesh.hosts) <= set(system.nodes)
        session = system.connect(mesh.hosts[0], mesh.hosts[-1], port="mesh")
        system.run(until=system.now + 2.0)
        rms = session.established.result()
        got = []
        rms.port.set_handler(lambda message: got.append(message))
        rms.send(b"mesh" * 20)
        system.run(until=system.now + 2.0)
        assert len(got) == 1
        with pytest.raises(NetworkError):
            system.add_mesh("moebius")
