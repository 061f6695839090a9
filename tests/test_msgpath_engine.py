"""Tests for the message path: fixed-seed delivery traces pinned by
sha256, observability observing the path that runs, and teardown that
leaves no timer behind."""

from __future__ import annotations

import hashlib

import pytest

from repro.core.params import DelayBound, DelayBoundType, RmsParams
from repro.dash.system import DashSystem
from repro.errors import RkomTimeoutError
from repro.sim.events import TimerGroup
from tests.streams import assert_in_sequence


#: Simulated time by which ``_drive`` has the stream established.
_ESTABLISHED_BY = 2.0


def _drive(system, session, payload_for, messages):
    """Send ``messages`` payloads in bursts of 8; returns the delivery
    trace ``[(payload, sim time)]`` and the end time."""
    system.run(until=_ESTABLISHED_BY)
    rms = session.established.result()
    deliveries = []
    rms.port.set_handler(
        lambda message: deliveries.append((bytes(message.payload), system.now))
    )
    for index in range(messages):
        rms.send(payload_for(index))
        if index % 8 == 7:
            # Let queued bundles drain so some flushes happen on the
            # piggyback deadline timer rather than on overflow.
            system.run(until=system.now + 0.05)
    system.run(until=system.now + 2.0)
    return deliveries, system.now


def _lossy_trace(messages=60, loss=0.05, observe=False):
    """Trusted LAN, 64 B messages: security is elided and piggybacking
    bundles; frame loss exercises the control retransmission timers."""
    system = DashSystem(seed=7, observe=observe)
    system.add_ethernet(trusted=True, frame_loss_rate=loss)
    system.add_node("a")
    system.add_node("b")
    session = system.connect("a", "b", port="trace")
    trace = _drive(
        system, session, lambda index: bytes([index % 251]) * 64, messages
    )
    return trace + (system,)


def _secured_fragmented_trace(messages=24, loss=0.05, observe=False):
    """Untrusted LAN, privacy+authentication, 4,000 B messages: every
    message leaves as three sealed and MAC'd fragments, never bundled."""
    system = DashSystem(seed=7, observe=observe)
    system.add_ethernet(trusted=False, frame_loss_rate=loss)
    system.add_node("a")
    system.add_node("b")
    params = RmsParams(
        capacity=64 * 1024,
        max_message_size=4_000,
        delay_bound=DelayBound(0.1, 1e-5),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
        privacy=True,
        authentication=True,
    )
    session = system.connect("a", "b", port="sec", desired=params)
    trace = _drive(
        system, session, lambda index: bytes([index % 251]) * 4_000, messages
    )
    plan = session.established.result().plan
    assert plan.encrypt and plan.mac
    return trace + (system,)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


class TestPinnedTraces:
    # sha256 of repr(deliveries), recorded at the last commit that still
    # had a second, per-message-timer ST arm behind two StConfig options;
    # every arm, with and without observability, agreed on every one.
    # Seed 7 at 5% loss happens to lose no data frame on the trusted LAN
    # (so its pin equals the lossless one); the secured run loses five
    # messages to dropped fragments.
    @pytest.mark.parametrize("scenario, kwargs, delivered, digest", [
        (_lossy_trace, dict(loss=0.05), 60,
         "351ec810b424fa69a33f4bb059a9224dc62097f53873e923edcb1652de29f4b5"),
        (_lossy_trace, dict(loss=0.0), 60,
         "351ec810b424fa69a33f4bb059a9224dc62097f53873e923edcb1652de29f4b5"),
        (_secured_fragmented_trace, dict(loss=0.05), 19,
         "4e6ec476aeb28b5a9c4991c03b58edacf15e924c237a470e306b65090c682d3a"),
    ], ids=["trusted-loss5pct", "trusted-lossless", "secured-frag-loss5pct"])
    def test_delivery_trace_matches_pin(
        self, scenario, kwargs, delivered, digest
    ):
        deliveries, _end, _system = scenario(**kwargs)
        assert len(deliveries) == delivered
        assert _digest(deliveries) == digest


#: DESIGN section 6: the events of one message up to the network ...
_SEND_CHAIN = [
    ("st", "send"), ("cpu", "enqueue"), ("cpu", "dequeue"), ("cpu", "done"),
    ("st", "enqueue"),
]
#: ... and from the receiving ST's demux on.
_RECEIVE_CHAIN = [
    ("st", "rx"), ("cpu", "enqueue"), ("cpu", "dequeue"), ("cpu", "done"),
    ("st", "deliver"),
]


def _span_stream(system):
    """Span events as (layer, event, time), by trace then order, of every
    trace born once the stream is up.

    Establishment is left out: control messages carry stream ids as JSON
    text, so their sizes -- hence their times -- depend on how many
    streams the process created before this one.
    """
    tracer = system.obs.spans
    return [
        (event.layer, event.event, event.time)
        for trace_id in sorted(tracer.traces())
        if tracer.events_for(trace_id)[0].time >= _ESTABLISHED_BY
        for event in tracer.events_for(trace_id)
    ]


class TestInSequence:
    """Basic property 2 at every level, on the pinned scenarios: loss
    and reassembly discard may drop, never reorder."""

    @pytest.mark.parametrize(
        "scenario", [_lossy_trace, _secured_fragmented_trace],
        ids=["bundled-small", "secured-frag"],
    )
    def test_no_stream_delivers_out_of_order_under_loss(self, scenario):
        deliveries, _, system = scenario(loss=0.05)
        assert deliveries
        assert_in_sequence(node.st for node in system.nodes.values())


class TestObservedPath:
    """Turning observability on observes the path that runs: nothing
    about the simulation moves, and the span vocabulary is pinned."""

    @pytest.mark.parametrize("scenario, components, span_digest", [
        (_lossy_trace, 1,
         "807ec0190aaba57b50757be20c59015b8c18378283500be7df641b4211f85951"),
        (_secured_fragmented_trace, 3,
         "dc049a8d7a1cccbc34974c3333592008ac3d8da14831335949e4dbeb64f2aa40"),
    ], ids=["bundled-small", "secured-frag"])
    def test_observed_run_equals_unobserved_run(
        self, scenario, components, span_digest
    ):
        plain, plain_end, _ = scenario()
        observed, observed_end, system = scenario(observe=True)
        assert observed == plain
        assert observed_end == plain_end
        # One delivered message's events follow the section-6 chain: a
        # bundled component crosses the network once, a fragmented
        # message once per fragment.
        tracer = system.obs.spans
        chains = (
            [(event.layer, event.event) for event in tracer.events_for(trace)]
            for trace in sorted(tracer.traces())
        )
        chain = next(
            chain for chain in chains
            if chain[0] == ("st", "send") and chain[-1] == ("st", "deliver")
        )
        assert chain == (
            _SEND_CHAIN
            + [("net", "tx")] * components
            + [("net", "rx")] * components
            + _RECEIVE_CHAIN
        )
        # sha256 of the whole (layer, event, time) stream, recorded at
        # the same parent commit as the delivery pins above.
        assert _digest(_span_stream(system)) == span_digest


class TestPeerTeardown:
    def _system(self):
        system = DashSystem(seed=11)
        system.add_ethernet(trusted=True)
        system.add_node("a")
        system.add_node("b")
        return system

    def test_close_peer_leaves_zero_live_timers(self):
        system = self._system()
        session = system.connect("a", "b", port="teardown")
        system.run(until=2.0)
        rms = session.established.result()
        for _ in range(5):
            rms.send(b"x" * 64)  # queued bundles hold flush deadlines
        st = system.nodes["a"].st
        group = st._peers["b"].timers
        assert isinstance(group, TimerGroup)
        st.close_peer("b")
        assert group.live == 0
        assert not group.armed
        assert "b" not in st._peers

    def test_close_peer_mid_establishment_leaves_zero_live_timers(self):
        system = self._system()
        system.connect("a", "b", port="early")
        # Step until a control request is in flight: its retransmission
        # deadline is then live in the peer's group.
        st = system.nodes["a"].st
        while system.now < 2.0:
            system.run(until=system.now + 1e-5)
            peer = st._peers.get("b")
            if peer is not None and peer.control.pending:
                break
        group = st._peers["b"].timers
        assert isinstance(group, TimerGroup)
        assert group.live > 0
        st.close_peer("b")
        assert group.live == 0
        assert not group.armed

    def test_pending_control_timers_dropped_eagerly_on_reply(self):
        system = self._system()
        session = system.connect("a", "b", port="eager")
        system.run(until=2.0)
        session.established.result()
        st = system.nodes["a"].st
        peer = st._peers["b"]
        # Every answered control request cancelled its retransmission
        # timer, and the group dropped the dead entries eagerly.
        assert not peer.control.pending
        assert peer.timers.live == 0


class TestRkomTimerGroup:
    def test_reply_cancels_timeout_leaving_no_live_timers(self):
        system = DashSystem(seed=13)
        system.add_ethernet(trusted=True)
        node_a = system.add_node("a")
        node_b = system.add_node("b")
        node_b.rkom.register_handler("echo", lambda payload, sender: payload)
        future = system.connect(node_a, node_b, kind="rkom").call("echo", b"hi")
        system.run(until=2.0)
        assert future.result() == b"hi"
        assert node_a.rkom._timers.live == 0

    def test_unanswered_call_times_out_through_the_group(self):
        from repro.sim.process import Future

        system = DashSystem(seed=13)
        system.add_ethernet(trusted=True)
        node_a = system.add_node("a")
        node_b = system.add_node("b")
        # A handler that never resolves: every timeout fires via the group.
        node_b.rkom.register_handler(
            "hang", lambda payload, sender: Future(system.context.loop)
        )
        future = system.connect(node_a, node_b, kind="rkom").call("hang", b"?")
        system.run(until=60.0)
        with pytest.raises(RkomTimeoutError):
            future.result()
        assert node_a.rkom._timers.fires > 1  # retransmission deadlines
        assert node_a.rkom._timers.live == 0
