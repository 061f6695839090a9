"""The unified session API and its resilience machinery.

Covers the ``DashSystem.connect`` facade for every session kind, RMS
lifetime conveniences, the resilience policy / degradation ladder, chaos schedules, and session continuity
for streams and RKOM.
"""

from __future__ import annotations

import pytest

from repro.core.params import (
    DelayBound,
    DelayBoundType,
    RmsParams,
    is_compatible,
)
from repro.dash.system import DashSystem
from repro.errors import (
    NetworkError, ParameterError, RmsFailedError, TransportError)
from repro.netsim.chaos import ChaosSchedule
from repro.resilience import SessionState, degradation_ladder, policy
from repro.transport import stream
from repro.transport.stream import StreamSession


def lan_system(seed=61, **kwargs):
    system = DashSystem(seed=seed)
    system.add_ethernet(trusted=True, **kwargs)
    system.add_node("a")
    system.add_node("b")
    return system


def be_params(capacity=8192, mms=512):
    return RmsParams(
        capacity=capacity,
        max_message_size=mms,
        delay_bound=DelayBound(0.5, 1e-4),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
    )


class TestConnectFacade:
    def test_st_session_roundtrip(self):
        system = lan_system()
        params = be_params()
        session = system.connect(
            "a", "b", desired=params, acceptable=params, port="app"
        )
        assert session.kind == "st"
        assert session.state is SessionState.ESTABLISHING
        system.run(until=system.now + 2.0)
        rms = session.established.result()
        assert is_compatible(rms.params, params)
        assert session.state is SessionState.UP
        got = []
        session.port.set_handler(got.append)
        session.send(b"over the facade")
        system.run(until=system.now + 1.0)
        assert len(got) == 1
        assert session.stats.messages_sent == 1

    def test_accepts_node_objects_and_request_form(self):
        """Node objects for names; the session keeps the request it was
        opened with, and ``acceptable`` defaults to ``desired``."""
        system = lan_system()
        desired, acceptable = be_params(), be_params(2048)
        session = system.connect(
            system.nodes["a"], system.nodes["b"], desired=desired,
            acceptable=acceptable, port="obj"
        )
        system.run(until=system.now + 2.0)
        assert session.established.done and not session.established.failed
        assert session.desired is desired
        assert session.acceptable is acceptable
        bare = system.connect("a", "b", desired=desired, port="bare")
        assert bare.acceptable is desired

    def test_stream_session_resolves_to_raw_stream(self):
        system = lan_system()
        session = system.connect("a", "b", kind="stream")
        system.run(until=system.now + 2.0)
        stream = session.established.result()
        assert isinstance(stream, StreamSession)
        assert session.state is SessionState.UP

    def test_stream_config_derived_from_desired_params(self):
        system = lan_system()
        desired = be_params(capacity=4096, mms=400)
        session = system.connect("a", "b", kind="stream", desired=desired)
        assert session.desired.capacity == 4096
        assert session.desired.max_message_size == 400
        system.run(until=system.now + 2.0)
        data_rms = session.established.result().data_rms
        assert data_rms.params.capacity == 4096
        assert data_rms.params.max_message_size == 400

    def test_rkom_session_is_shared_per_pair(self):
        system = lan_system()
        system.nodes["b"].rkom.register_handler("echo", lambda p, s: p)
        first = system.connect("a", "b", kind="rkom")
        second = system.connect("a", "b", kind="rkom")
        assert first is second
        reply = first.call("echo", b"ping")
        system.run(until=system.now + 2.0)
        assert reply.result() == b"ping"
        first.close()
        third = system.connect("a", "b", kind="rkom")
        assert third is not first

    @staticmethod
    def _record_rms(system, host):
        """The ST RMSs ``host`` opens from now on."""
        st, opened = system.nodes[host].st, []
        create = st.create_st_rms

        def recording(*args, **kwargs):
            future = create(*args, **kwargs)
            future.add_done_callback(
                lambda f: f.failed or opened.append(f.result()))
            return future

        st.create_st_rms = recording
        return opened

    def test_closing_an_rkom_session_releases_its_channel(self):
        system = lan_system()
        system.nodes["b"].rkom.register_handler("echo", lambda p, s: p)
        opened = self._record_rms(system, "a")
        session = system.connect("a", "b", kind="rkom")
        reply = session.call("echo", b"ping")
        system.run(until=system.now + 2.0)
        assert reply.result() == b"ping"
        assert len(opened) == 2 and all(rms.is_open for rms in opened)
        session.close()
        system.run(until=system.now + 1.0)
        assert not any(rms.is_open for rms in opened)
        assert not any(left.state is SessionState.CLOSED
                       for left in system.nodes["a"].rkom._sessions.values())
        fresh = system.connect("a", "b", kind="rkom")
        assert fresh is not session
        again = fresh.call("echo", b"again")
        system.run(until=system.now + 2.0)
        assert again.result() == b"again"

    def test_closing_an_rkom_session_abandons_its_waiting_calls(self):
        system = lan_system()
        system.nodes["b"].rkom.register_handler("echo", lambda p, s: p)
        session = system.connect("a", "b", kind="rkom")
        waiting = session.call("echo", b"never")  # the channel is opening
        session.close()
        system.run(until=system.now + 5.0)
        assert waiting.failed
        with pytest.raises(TransportError):
            waiting.result()
        assert system.nodes["b"].rkom.stats.requests_served == 0

    def test_rkom_rejects_rms_parameters(self):
        system = lan_system()
        with pytest.raises(ParameterError):
            system.connect("a", "b", kind="rkom", desired=be_params())

    def test_rkom_rejects_a_resilience_policy(self):
        """The RKOM service recovers its own channel; ``resilience``
        given here would be stored and never read."""
        system = lan_system()
        with pytest.raises(ParameterError):
            system.connect("a", "b", kind="rkom", resilience=True)

    def test_unknown_kind_and_unknown_node_raise(self):
        system = lan_system()
        with pytest.raises(ParameterError):
            system.connect("a", "b", kind="telepathy")
        with pytest.raises(NetworkError):
            system.connect("a", "nobody", desired=be_params())

    def test_session_context_manager_closes_idempotently(self):
        system = lan_system()
        params = be_params()
        with system.connect(
            "a", "b", desired=params, acceptable=params, port="cm"
        ) as session:
            system.run(until=system.now + 2.0)
            assert session.is_up
        assert session.state is SessionState.CLOSED
        session.close()  # idempotent
        assert session.state is SessionState.CLOSED
        with pytest.raises(RmsFailedError):
            session.send(b"closed")


class TestRmsLifecycle:
    def test_rms_close_is_idempotent(self):
        system = lan_system()
        params = be_params()
        session = system.connect(
            "a", "b", desired=params, acceptable=params, port="life"
        )
        system.run(until=system.now + 2.0)
        rms = session.established.result()
        assert rms.is_open
        rms.close()
        assert not rms.is_open
        rms.close()  # second close is a no-op
        with pytest.raises(RmsFailedError):
            rms.send(b"closed")


class TestResiliencePolicy:
    def test_backoff_grows_to_cap_within_jitter_envelope(self):
        import random

        rng = random.Random(7)
        previous_nominal = 0.0
        for failures in range(8):
            nominal = min(
                policy.BACKOFF_CAP,
                policy.BACKOFF_INITIAL * policy.BACKOFF_FACTOR ** failures,
            )
            delay = policy.backoff_delay(failures, rng)
            assert nominal * (1 - policy.JITTER) - 1e-12 <= delay
            assert delay <= nominal * (1 + policy.JITTER) + 1e-12
            assert nominal >= previous_nominal
            previous_nominal = nominal

    def test_degradation_ladder_walks_toward_floor(self):
        desired = RmsParams(
            capacity=32768,
            max_message_size=1024,
            delay_bound=DelayBound(0.05, 1e-5),
            delay_bound_type=DelayBoundType.DETERMINISTIC,
        )
        floor = RmsParams(
            capacity=4096,
            max_message_size=1024,
            delay_bound=DelayBound.unbounded(),
            delay_bound_type=DelayBoundType.BEST_EFFORT,
        )
        rungs = degradation_ladder(desired, floor)
        assert rungs[0] == (desired, floor)
        assert all(acceptable == floor for _, acceptable in rungs)
        for (earlier, _), (later, _) in zip(rungs, rungs[1:]):
            # Each rung is strictly weaker: the earlier desired set would
            # satisfy a request for the later one, never vice versa.
            assert is_compatible(earlier, later)
            assert not is_compatible(later, earlier)
        weakest = rungs[-1][0]
        assert weakest.capacity >= floor.capacity
        assert weakest.delay_bound_type == DelayBoundType.BEST_EFFORT

    def test_ladder_is_single_rung_when_no_floor_slack(self):
        desired = be_params()
        rungs = degradation_ladder(desired, desired)
        assert len(rungs) == 1


class TestChaosSchedule:
    def test_random_flaps_are_deterministic_per_seed(self):
        def run(seed):
            system = lan_system(seed=seed)
            chaos = ChaosSchedule(system.context, name="det")
            chaos.random_flaps(
                system.networks["ether0"].segment,
                mean_uptime=0.5, mean_downtime=0.2, until=20.0,
            )
            system.run(until=25.0)
            return chaos.log

        first, second = run(99), run(99)
        assert first and first == second
        assert run(100) != first

    def test_scripted_flap_and_log(self):
        system = lan_system()
        segment = system.networks["ether0"].segment
        chaos = ChaosSchedule(system.context)
        chaos.flap_link(segment, down_at=1.0, duration=0.5)
        system.run(until=1.2)
        assert not segment.is_up
        system.run(until=2.0)
        assert segment.is_up
        assert [(e.kind, e.time) for e in chaos.log] == [
            ("link_down", 1.0), ("link_up", 1.5)
        ]

    def test_partition_cuts_and_heals_reachability(self):
        system = DashSystem(seed=62)
        internet = system.add_internet(trusted=True)
        system.add_node("a")
        system.add_node("b")
        internet.add_router("g1")
        internet.add_link("a", "g1", bandwidth=1e5, propagation_delay=0.002)
        internet.add_link("g1", "b", bandwidth=1e5, propagation_delay=0.002)
        chaos = ChaosSchedule(system.context)
        chaos.partition_at(internet, 1.0, {"a"}, heal_at=2.0)
        assert internet.can_reach("a", "b")
        system.run(until=1.5)
        assert not internet.can_reach("a", "b")
        system.run(until=2.5)
        assert internet.can_reach("a", "b")
        kinds = [e.kind for e in chaos.log]
        # The cut/heal markers bracket the per-link events they inject.
        assert kinds[0] == "partition"
        assert "heal" in kinds
        assert kinds.count("link_down") == kinds.count("link_up") == 2

    def test_host_pause_defers_delivery_until_resume(self):
        system = lan_system()
        params = be_params()
        session = system.connect(
            "a", "b", desired=params, acceptable=params, port="pause"
        )
        system.run(until=system.now + 2.0)
        session.established.result()
        got = []
        session.port.set_handler(got.append)
        chaos = ChaosSchedule(system.context)
        start = system.now
        chaos.pause_host_at(system.nodes["b"].host, start + 0.1, 0.5)
        system.context.loop.call_at(start + 0.2, session.send, b"while paused")
        system.run(until=start + 0.5)
        assert got == []  # receiver CPU is frozen
        system.run(until=start + 2.0)
        assert len(got) == 1
        assert [e.kind for e in chaos.log] == ["host_pause", "host_resume"]


class TestStreamContinuity:
    def test_supervised_stream_redelivers_salvaged_sends(self, monkeypatch):
        monkeypatch.setattr(stream, "RETRANSMIT_TIMEOUT", 0.1)
        monkeypatch.setattr(stream, "MAX_RETRANSMITS", 3)
        monkeypatch.setattr(policy, "MAX_ATTEMPTS", 12)
        system = lan_system(seed=63)
        session = system.connect("a", "b", kind="stream", resilience=True)
        system.run(until=system.now + 2.0)
        assert session.is_up
        got = []

        def arm(future):
            got.append(future.result())
            session.receive().add_done_callback(arm)

        session.receive().add_done_callback(arm)
        for index in range(5):
            session.send(bytes([index]) * 300)
        segment = system.networks["ether0"].segment
        system.context.loop.call_after(0.02, segment.set_down)
        system.run(until=system.now + 1.0)
        assert session.state is SessionState.RE_ESTABLISHING
        for index in range(5, 10):
            session.send(bytes([index]) * 300)  # queued while down
        system.context.loop.call_after(1.0, segment.set_up)
        system.run(until=system.now + 30.0)
        assert session.is_up
        assert session.stats.recoveries >= 1
        # At-least-once across the failure: every distinct payload arrives
        # (an ack lost in the outage may surface as a duplicate).
        assert {payload[0] for payload in got} == set(range(10))
        assert len(got) >= 10


class TestRkomContinuity:
    def test_rkom_session_recovers_channel_after_outage(self):
        system = lan_system(seed=64)
        system.nodes["b"].rkom.register_handler("echo", lambda p, s: p)
        session = system.connect("a", "b", kind="rkom")
        states = []
        session.on_state_change.listen(
            lambda s, old, new, reason: states.append(new)
        )
        warm = session.call("echo", b"warm")
        system.run(until=system.now + 2.0)
        assert warm.result() == b"warm"
        assert session.state is SessionState.UP
        segment = system.networks["ether0"].segment
        segment.set_down()
        system.run(until=system.now + 1.0)
        assert session.state is SessionState.RE_ESTABLISHING
        segment.set_up()
        reply = session.call("echo", b"again")
        system.run(until=system.now + 10.0)
        assert reply.result() == b"again"
        assert session.state is SessionState.UP
        assert SessionState.RE_ESTABLISHING in states

    def test_close_during_backoff_leaves_no_timer_and_opens_nothing(
            self, monkeypatch):
        monkeypatch.setattr(policy, "BACKOFF_INITIAL", 1.0)
        monkeypatch.setattr(policy, "JITTER", 0.0)
        system = lan_system(seed=64)
        segment = system.networks["ether0"].segment
        segment.set_down()
        session = system.connect("a", "b", kind="stream", resilience=True)
        while not session.stats.transitions and system.now < 30.0:
            system.run(until=system.now + 0.25)
        assert session.stats.transitions == {"retry": 1}  # waiting to retry
        session.close()
        assert system.context.loop.pending_events == 0

        def established():
            return [(node.st.stats.st_rms_created, node.st.stats.control_messages)
                    for node in system.nodes.values()]

        before = established()
        segment.set_up()
        system.run(until=system.now + 10.0)
        assert session.state is SessionState.CLOSED
        assert established() == before


#: Where a supervised session can be closed, and the state it is in.
TEARDOWN_STATES = {
    "attempt in flight": SessionState.ESTABLISHING,
    "waiting in backoff": SessionState.ESTABLISHING,
    "up": SessionState.UP,
    "degraded": SessionState.DEGRADED,
    "re-establishing": SessionState.RE_ESTABLISHING,
    "failed after giving up": SessionState.FAILED,
}


def session_in(kind, state, monkeypatch):
    """A supervised session of ``kind`` on one Ethernet, driven into
    ``state``; returns (system, session, segment)."""
    system = DashSystem(seed=71)
    # An Ethernet that offers no guarantees admits a deterministic
    # request only on a best-effort rung: the session comes up DEGRADED.
    system.add_ethernet(trusted=True, supports_guarantees=state != "degraded")
    system.add_node("a")
    system.add_node("b")
    segment = system.networks["ether0"].segment
    if state in ("waiting in backoff", "failed after giving up"):
        segment.set_down()
    monkeypatch.setattr(policy, "MAX_ATTEMPTS",
                        2 if state == "failed after giving up" else 8)
    monkeypatch.setattr(policy, "BACKOFF_INITIAL", 1.0)
    monkeypatch.setattr(policy, "JITTER", 0.0)
    if kind == "st":
        desired = be_params()
        if state == "degraded":
            desired = desired.with_(delay_bound=DelayBound(0.25, 1e-4),
                                    delay_bound_type=DelayBoundType.DETERMINISTIC)
        session = system.connect("a", "b", desired=desired,
                                 acceptable=be_params(2048), port="teardown",
                                 resilience=True)
    else:
        session = system.connect("a", "b", kind="stream", resilience=True)
    if state == "waiting in backoff":
        while "retry" not in session.stats.transitions:
            system.run(until=system.now + 0.25)
    elif state == "failed after giving up":
        system.run(until=system.now + 60.0)
    elif state == "attempt in flight":
        system.run(until=system.now)  # a stream's opening process starts
    else:
        system.run(until=system.now + 2.0)
        if state == "re-establishing":
            segment.set_down()
            system.run(until=system.now + 0.2)
    assert session.state is TEARDOWN_STATES[state]
    return system, session, segment


class TestTeardownFromEveryState:
    """``close()`` from every state of a supervised ST or stream session
    leaves no live event on an otherwise idle system and starts nothing
    afterwards, not even once the segment heals (a stream has no
    DEGRADED state: it has one rung)."""

    @pytest.mark.parametrize("kind,state", [
        (kind, state) for kind in ("st", "stream") for state in TEARDOWN_STATES
        if (kind, state) != ("stream", "degraded")
    ])
    def test_close_leaves_nothing_live_and_opens_nothing(self, kind, state,
                                                         monkeypatch):
        system, session, segment = session_in(kind, state, monkeypatch)
        st = system.nodes["a"].st
        opened = []
        create = st.create_st_rms
        st.create_st_rms = lambda *args, **kw: opened.append(args) or create(
            *args, **kw)
        session.close()
        assert session.state is SessionState.CLOSED
        assert session.established.done
        if state in ("waiting in backoff", "failed after giving up"):
            # Nothing of this session is on the wire: nothing is live.
            assert system.context.loop.pending_events == 0
        system.run(until=system.now + 5.0)  # what was in flight settles
        segment.set_up()
        system.run(until=system.now + 30.0)
        assert session.state is SessionState.CLOSED
        assert opened == []
        assert system.context.loop.pending_events == 0
