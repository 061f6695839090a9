"""Failure injection: links dying, hosts saturating, networks flapping.

Basic RMS property 3 -- "clients are notified of an RMS failure" -- must
hold through every layer, and the system must stay consistent (no
crashes, no stuck state) under mid-operation failures.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.message import Label
from repro.core.params import (
    DelayBound,
    DelayBoundType,
    RmsParams,
    is_compatible,
)
from repro.dash.system import DashSystem
from repro.errors import NetworkError, RmsFailedError, TransportError
from repro.netsim import network
from repro.resilience import SessionState, policy
from repro.transport import stream
from repro.transport.stream import StreamConfig


@pytest.fixture
def short_retransmits(monkeypatch):
    """A stream gives up after 3 retransmissions 0.1 s apart."""
    monkeypatch.setattr(stream, "RETRANSMIT_TIMEOUT", 0.1)
    monkeypatch.setattr(stream, "MAX_RETRANSMITS", 3)


def lan_system(seed=51, **kwargs):
    system = DashSystem(seed=seed)
    system.add_ethernet(trusted=True, **kwargs)
    system.add_node("a")
    system.add_node("b")
    return system


def multihomed_system(seed=53, wan_guarantees=True):
    """Two nodes on a LAN (primary) plus a routed WAN (secondary)."""
    system = DashSystem(seed=seed)
    system.add_ethernet(name="lan", trusted=True)
    wan = system.add_internet(
        name="wan", trusted=True, supports_guarantees=wan_guarantees
    )
    system.add_node("a")
    system.add_node("b")
    wan.add_router("g1")
    wan.add_link("a", "g1", bandwidth=2.5e5, propagation_delay=0.002)
    wan.add_link("g1", "b", bandwidth=2.5e5, propagation_delay=0.002)
    return system


def wan_system(seed=52):
    system = DashSystem(seed=seed)
    internet = system.add_internet(trusted=True)
    system.add_node("a")
    system.add_node("b")
    internet.add_router("g1")
    internet.add_router("g2")
    internet.add_link("a", "g1", bandwidth=1e5, propagation_delay=0.002)
    internet.add_link("g1", "g2", bandwidth=5e4, propagation_delay=0.01)
    internet.add_link("g2", "b", bandwidth=1e5, propagation_delay=0.002)
    return system, internet


def open_rms(system, port="fail", params=None):
    params = params or RmsParams(
        capacity=16 * 1024,
        max_message_size=1400,
        delay_bound=DelayBound(0.2, 1e-4),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
    )
    future = system.nodes["a"].st.create_st_rms(
        "b", port=port, desired=params, acceptable=params
    )
    system.run(until=system.now + 3.0)
    return future.result()


class TestFailurePropagation:
    def test_notification_reaches_every_layer(self):
        """Network RMS -> ST RMS -> client, one failure event each."""
        system = lan_system()
        rms = open_rms(system)
        st_notified = []
        net_notified = []
        rms.on_failure.listen(lambda r, reason: st_notified.append(reason))
        rms.binding.network_rms.on_failure.listen(
            lambda r, reason: net_notified.append(reason)
        )
        system.networks["ether0"].segment.set_down()
        system.run(until=system.now + 1.0)
        assert len(net_notified) == 1
        assert len(st_notified) == 1

    def test_send_after_network_death_raises(self):
        system = lan_system()
        rms = open_rms(system)
        system.networks["ether0"].segment.set_down()
        system.run(until=system.now + 1.0)
        with pytest.raises(RmsFailedError):
            rms.send(b"too late")

    def test_messages_in_flight_at_failure_are_dropped_not_delivered(self):
        system = lan_system()
        rms = open_rms(system)
        got = []
        rms.port.set_handler(got.append)
        for index in range(10):
            rms.send(bytes([index]) * 1000)
        # Kill the segment immediately: everything still queued dies.
        system.networks["ether0"].segment.set_down()
        system.run(until=system.now + 2.0)
        assert got == []

    def test_wan_link_failure_fails_only_crossing_streams(self):
        system, internet = wan_system()
        internet.attach_extra = None
        rms = open_rms(system)
        reasons = []
        rms.on_failure.listen(lambda r, reason: reasons.append(reason))
        internet.link("g1", "g2").set_down()
        system.run(until=system.now + 1.0)
        assert reasons  # the stream crossed the dead trunk

    def test_new_stream_after_reroute(self):
        """After a link dies, new streams take the surviving path."""
        system, internet = wan_system()
        internet.add_link("g1", "b", bandwidth=1e5, propagation_delay=0.5)
        first = open_rms(system, port="one")
        internet.link("g1", "g2").set_down()
        system.run(until=system.now + 1.0)
        assert not first.is_open
        second = open_rms(system, port="two")
        got = []
        second.port.set_handler(got.append)
        second.send(b"via backup path")
        system.run(until=system.now + 3.0)
        assert len(got) == 1
        assert second.binding.network_rms.route == ["a", "g1", "b"]

    def test_link_recovery_allows_fresh_streams(self):
        system, internet = wan_system()
        rms = open_rms(system, port="one")
        internet.link("g1", "g2").set_down()
        system.run(until=system.now + 1.0)
        internet.link("g1", "g2").set_up()
        replacement = open_rms(system, port="two")
        got = []
        replacement.port.set_handler(got.append)
        replacement.send(b"back in business")
        system.run(until=system.now + 3.0)
        assert len(got) == 1


class TestStreamFailureRecovery:
    def test_stream_reports_failure_and_rejects_sends(self):
        system = lan_system()
        session = system.connect("a", "b", kind="stream", config=StreamConfig())
        system.run(until=system.now + 2.0)
        stream = session.established.result()
        session.send(b"x" * 500)
        system.networks["ether0"].segment.set_down()
        system.run(until=system.now + 1.0)
        assert stream.failed is not None
        from repro.errors import TransportError

        with pytest.raises(TransportError):
            session.send(b"more")

    def test_retransmit_timer_stops_after_failure(self, short_retransmits):
        system = lan_system()
        session = system.connect("a", "b", kind="stream")
        system.run(until=system.now + 2.0)
        assert session.is_up
        session.send(b"x" * 500)
        system.networks["ether0"].segment.set_down()
        system.run(until=system.now + 5.0)
        events_after = system.context.loop.pending_events
        system.run(until=system.now + 5.0)
        # No runaway timer: the loop settles once the failure lands.
        assert system.context.loop.pending_events <= events_after

    def test_reliable_stream_gives_up_on_black_hole(self, short_retransmits):
        system = lan_system()
        session = system.connect("a", "b", kind="stream")
        system.run(until=system.now + 2.0)
        stream = session.established.result()
        system.networks["ether0"].segment.impairment = replace(
            system.networks["ether0"].segment.impairment, frame_loss_rate=1.0)
        session.send(b"into the void" + b"\x00" * 100)
        system.run(until=system.now + 20.0)
        assert stream.failed == "retransmission limit exceeded"


class TestCpuSaturation:
    def test_overloaded_cpu_reports_deadline_misses(self):
        system = lan_system()
        cpu = system.nodes["a"].cpu
        # Saturate the CPU with heavy synthetic protocol work.
        for index in range(50):
            cpu.submit(f"x/heavy{index}", 0.01, deadline=system.now + 0.05,
                       callback=lambda: None)
        system.run(until=system.now + 2.0)
        assert cpu.deadline_misses > 0
        assert cpu.items_run == 50

    def test_st_traffic_still_flows_on_busy_cpu(self):
        system = lan_system()
        rms = open_rms(system)
        got = []
        rms.port.set_handler(got.append)
        cpu = system.nodes["a"].cpu

        def hog():
            while True:
                cpu.submit("hog/work", 0.002, deadline=system.now + 10.0,
                           callback=lambda: None)
                yield 0.002

        hog_process = system.context.spawn(hog())
        for index in range(10):
            rms.send(bytes([index]) * 500)
        system.run(until=system.now + 5.0)
        hog_process.stop()
        # EDF lets the tighter-deadline ST stages through the hog's work.
        assert len(got) == 10


class TestSupervisedResilience:
    """Resilience layer on top of failure injection: failover, degrade."""

    @staticmethod
    def _params(capacity=8192, mms=512):
        return RmsParams(
            capacity=capacity,
            max_message_size=mms,
            delay_bound=DelayBound(0.5, 1e-4),
            delay_bound_type=DelayBoundType.BEST_EFFORT,
        )

    def test_supervised_session_fails_over_to_secondary_network(self):
        system = multihomed_system()
        params = self._params()
        session = system.connect(
            "a", "b", desired=params, acceptable=params,
            port="failover", resilience=True,
        )
        system.run(until=system.now + 2.0)
        rms = session.established.result()
        assert rms.binding.network_rms.network.name == "lan"
        got = []
        session.port.set_handler(got.append)
        states = []
        session.on_state_change.listen(
            lambda s, old, new, reason: states.append(new)
        )
        system.networks["lan"].segment.set_down()
        system.run(until=system.now + 0.2)
        # In-flight client traffic during the outage is queued, not lost.
        for index in range(3):
            session.send(bytes([index]) * 256)
        system.run(until=system.now + 10.0)
        assert session.is_up
        assert session.channel.binding.network_rms.network.name == "wan"
        assert len(got) == 3
        assert SessionState.RE_ESTABLISHING in states
        assert session.stats.failovers >= 1
        assert session.stats.recoveries >= 1

    def test_weaker_parameter_set_survives_renegotiation(self):
        """Desired DETERMINISTIC degrades to the best-effort floor when
        the only surviving network cannot offer guarantees."""
        system = multihomed_system(wan_guarantees=False)
        desired = RmsParams(
            capacity=8192,
            max_message_size=512,
            delay_bound=DelayBound(0.25, 1e-4),
            delay_bound_type=DelayBoundType.DETERMINISTIC,
        )
        floor = self._params(capacity=2048)
        session = system.connect(
            "a", "b", desired=desired, acceptable=floor,
            port="degrade", resilience=True,
        )
        system.run(until=system.now + 2.0)
        first = session.established.result()
        assert is_compatible(first.params, desired)
        assert session.state is SessionState.UP
        got = []
        session.port.set_handler(got.append)
        system.networks["lan"].segment.set_down()
        system.run(until=system.now + 10.0)
        assert session.state is SessionState.DEGRADED
        assert session.channel.binding.network_rms.network.name == "wan"
        actual = session.channel.params
        assert actual.delay_bound_type == DelayBoundType.BEST_EFFORT
        assert is_compatible(actual, floor)
        assert not is_compatible(actual, desired)
        session.send(b"still flowing")
        system.run(until=system.now + 2.0)
        assert len(got) == 1

    def test_unsupervised_session_fails_terminally(self):
        system = multihomed_system()
        params = self._params()
        session = system.connect(
            "a", "b", desired=params, acceptable=params, port="bare"
        )
        system.run(until=system.now + 2.0)
        assert session.established.done and not session.established.failed
        system.networks["lan"].segment.set_down()
        system.run(until=system.now + 10.0)
        assert session.state is SessionState.FAILED
        with pytest.raises(RmsFailedError):
            session.send(b"too late")

    def test_supervisor_retries_through_transient_outage_on_single_network(
            self, monkeypatch):
        """No alternate network: backoff keeps trying until the segment
        heals, then the session recovers on the same network."""
        monkeypatch.setattr(policy, "MAX_ATTEMPTS", 12)
        system = lan_system(seed=54)
        params = self._params()
        session = system.connect(
            "a", "b", desired=params, acceptable=params,
            port="heal", resilience=True,
        )
        system.run(until=system.now + 2.0)
        session.established.result()
        got = []
        session.port.set_handler(got.append)
        segment = system.networks["ether0"].segment
        segment.set_down()
        system.run(until=system.now + 0.5)
        session.send(b"queued during outage")
        system.context.loop.call_after(1.5, segment.set_up)
        system.run(until=system.now + 20.0)
        assert session.is_up
        assert session.stats.recoveries >= 1
        assert len(got) == 1

    def test_supervisor_gives_up_after_max_attempts(self, monkeypatch):
        monkeypatch.setattr(policy, "MAX_ATTEMPTS", 2)
        monkeypatch.setattr(policy, "BACKOFF_CAP", 0.2)
        system = lan_system(seed=55)
        system.networks["ether0"].segment.set_down()
        params = self._params()
        session = system.connect(
            "a", "b", desired=params, acceptable=params,
            port="doomed", resilience=True,
        )
        system.run(until=system.now + 60.0)
        assert session.state is SessionState.FAILED
        assert session.established.done and session.established.failed


class TestControlPlaneResilience:
    def test_st_creation_fails_cleanly_when_network_is_dead(self):
        system = lan_system()
        system.networks["ether0"].segment.set_down()
        params = RmsParams(capacity=8192, max_message_size=1400)
        future = system.nodes["a"].st.create_st_rms(
            "b", port="dead", desired=params, acceptable=params
        )
        system.run(until=system.now + 60.0)
        assert future.done and future.failed  # failed, not hung

    def test_rkom_call_times_out_cleanly_on_dead_network(self):
        system = lan_system()
        system.nodes["b"].rkom.register_handler("echo", lambda p, s: p)
        rkom = system.connect("a", "b", kind="rkom")
        warm = rkom.call("echo", b"x")
        system.run(until=system.now + 2.0)
        assert not warm.failed
        system.networks["ether0"].segment.impairment = replace(
            system.networks["ether0"].segment.impairment, frame_loss_rate=1.0)
        doomed = rkom.call("echo", b"y", timeout=0.05)
        system.run(until=system.now + 30.0)
        assert doomed.done and doomed.failed

    @pytest.mark.parametrize("outage", ["segment", "route"])
    def test_setup_caught_by_an_outage_fails_typed_within_its_budget(
            self, outage):
        """A segment (``fail_all``) or a link on the route
        (``_fail_rms_on_route``) goes down while a network RMS's setup
        handshake is in flight: the outage releases the RMS, and the
        creator's future fails with a NetworkError instead of waiting
        forever."""
        if outage == "segment":
            system = lan_system()
            net = system.networks["ether0"]
            cut = net.segment.set_down
        else:
            system, net = wan_system()
            cut = net.link("g1", "g2").set_down
        best_effort = RmsParams(capacity=4096, max_message_size=512)
        future = net.create_rms(
            Label("a", "p"), Label("b", "p"), best_effort, best_effort)
        cut()
        budget = sum(network.SETUP_TIMEOUT * 2 ** attempt
                     for attempt in range(network.SETUP_RETRIES + 1))
        system.run(until=system.now + budget)
        assert future.failed
        with pytest.raises(NetworkError):
            future.result()
        assert system.context.loop.pending_events == 0  # its retry stopped

    def test_connect_after_an_outage_during_setup_establishes(self):
        """A 10 ms outage catches the control channel's setup: the first
        session fails, typed, and a second one made after the segment
        healed comes up (neither stays ESTABLISHING)."""
        system = lan_system()
        ether = system.networks["ether0"]
        params = RmsParams(capacity=8192, max_message_size=1400)
        first = system.connect("a", "b", desired=params, acceptable=params)
        system.run(until=system.now + 1e-4)
        assert ether._pending_setups  # the control channel's handshake
        ether.segment.set_down()
        system.context.loop.call_after(0.01, ether.segment.set_up)
        system.run(until=system.now + 60.0)
        assert first.state is SessionState.FAILED
        with pytest.raises(TransportError):
            first.established.result()
        second = system.connect("a", "b", desired=params, acceptable=params,
                                port="healed")
        system.run(until=system.now + 60.0)
        assert second.state is SessionState.UP


class TestStreamClose:
    """Closing a stream is final and quiet: no timer of the stream stays
    armed, a send still held by the pump or a gate is dropped rather than
    raised out of ``run``, and a later send raises."""

    def _stream(self, system):
        session = system.connect("a", "b", kind="stream")
        system.run(until=system.now + 2.0)
        return session, session.established.result()

    @pytest.mark.parametrize("closer", ["stream", "session"])
    def test_close_right_after_a_send_on_a_loss_free_lan(self, closer):
        system = lan_system()
        session, channel = self._stream(system)
        session.send(b"x" * 500)  # still in the sender's pump
        (channel if closer == "stream" else session).close()
        system.run(until=system.now + 5.0)
        assert channel.stats.messages_sent == 0
        assert channel._retransmit._timer is None
        with pytest.raises(TransportError):
            channel.send(b"later")

    def test_close_with_one_unacked_record_on_a_dead_medium(self):
        system = lan_system()
        session, channel = self._stream(system)
        system.networks["ether0"].segment.impairment = replace(
            system.networks["ether0"].segment.impairment, frame_loss_rate=1.0)
        session.send(b"x" * 500)
        system.run(until=system.now + 0.1)
        assert len(channel.tx_unacked) == 1 and channel.stats.messages_sent == 1
        channel.close()
        system.run(until=system.now + 20.0)
        assert channel.stats.retransmissions == 0
        assert channel._retransmit._timer is None
        with pytest.raises(TransportError):
            channel.send(b"later")
