"""Integration tests for RKOM (paper section 3.3)."""

from __future__ import annotations

import math
import random
from types import SimpleNamespace

import pytest

from repro.errors import (
    ParameterError, RkomRefusedError, RkomTimeoutError, RmsFailedError,
    TransportError)
from repro.netsim.ethernet import EthernetNetwork
from repro.netsim.topology import Host
from repro.security.keys import KeyRegistry
from repro.sim.context import SimContext
from repro.sim.events import Signal
from repro.sim.process import Future
from repro.subtransport.st import SubtransportLayer
from repro import DashSystem
from repro.core.params import DelayBound, DelayBoundType, RmsParams
from repro.transport import rkom
from repro.transport.rkom import (
    _HEADER, _KIND_REPLY, HIGH_PORT, LOW_PORT, RkomService)
from tests.rkom_reference import PEER, STATS, payload_of, run_script


def build(seed=42, **net_kwargs):
    context = SimContext(seed=seed)
    defaults = dict(trusted=True)
    defaults.update(net_kwargs)
    network = EthernetNetwork(context, **defaults)
    host_a, host_b = Host(context, "a"), Host(context, "b")
    network.attach(host_a)
    network.attach(host_b)
    keys = KeyRegistry()
    st_a = SubtransportLayer(context, host_a, [network], key_registry=keys)
    st_b = SubtransportLayer(context, host_b, [network], key_registry=keys)
    rkom_a = RkomService(context, st_a)
    rkom_b = RkomService(context, st_b)
    return context, network, rkom_a, rkom_b


class TestRkomBasics:
    def test_call_and_reply(self):
        context, _net, rkom_a, rkom_b = build()
        rkom_b.register_handler("echo", lambda payload, src: b"echo:" + payload)
        future = rkom_a.call("b", "echo", b"hello")
        context.run(until=1.0)
        assert future.result() == b"echo:hello"
        assert rkom_a.stats.replies == 1

    def test_channel_is_four_st_rms(self):
        """Section 3.3: an RKOM channel has a low- and a high-delay RMS
        in each direction."""
        context, _net, rkom_a, rkom_b = build()
        rkom_b.register_handler("noop", lambda payload, src: b"")
        future = rkom_a.call("b", "noop")
        context.run(until=1.0)
        future.result()
        channel_ab = rkom_a._sessions["b"].channel
        channel_ba = rkom_b._sessions["a"].channel
        assert channel_ab.low is not None and channel_ab.high is not None
        assert channel_ba.low is not None and channel_ba.high is not None
        # The low-delay RMS has the tighter bound.
        assert (
            channel_ab.low.params.delay_bound.a
            < channel_ab.high.params.delay_bound.a
        )

    def test_unknown_op_returns_empty(self):
        context, _net, rkom_a, rkom_b = build()
        future = rkom_a.call("b", "does-not-exist", b"x")
        context.run(until=1.0)
        assert future.result() == b""

    def test_handler_source_host_passed(self):
        context, _net, rkom_a, rkom_b = build()
        sources = []

        def handler(payload, src):
            sources.append(src)
            return b""

        rkom_b.register_handler("who", handler)
        rkom_a.call("b", "who")
        context.run(until=1.0)
        assert sources == ["a"]

    def test_async_handler_future_reply(self):
        context, _net, rkom_a, rkom_b = build()

        def handler(payload, src):
            future = Future(context.loop)
            context.loop.call_after(0.05, future.set_result, b"deferred")
            return future

        rkom_b.register_handler("slow", handler)
        call = rkom_a.call("b", "slow")
        context.run(until=1.0)
        assert call.result() == b"deferred"

    def test_concurrent_calls(self):
        context, _net, rkom_a, rkom_b = build()
        rkom_b.register_handler("echo", lambda payload, src: payload)
        futures = [rkom_a.call("b", "echo", bytes([i])) for i in range(10)]
        context.run(until=2.0)
        assert [f.result() for f in futures] == [bytes([i]) for i in range(10)]

    def test_channel_reused_across_calls(self):
        context, network, rkom_a, rkom_b = build()
        rkom_b.register_handler("echo", lambda payload, src: payload)
        rkom_a.call("b", "echo", b"1")
        context.run(until=1.0)
        setups = network.setup_count
        rkom_a.call("b", "echo", b"2")
        context.run(until=2.0)
        assert network.setup_count == setups  # nothing new created

    def test_second_call_is_faster(self):
        """Channel establishment is amortized over later calls."""
        context, _net, rkom_a, rkom_b = build()
        rkom_b.register_handler("echo", lambda payload, src: payload)
        latencies = []

        def measure():
            for tag in (b"1", b"2"):
                begin = context.now
                yield rkom_a.call("b", "echo", tag)
                latencies.append(context.now - begin)

        context.spawn(measure())
        context.run(until=10.0)
        assert len(latencies) == 2
        # The first call pays control-channel + channel setup; the second
        # only the warm round trip (which includes piggyback queueing).
        assert latencies[1] < latencies[0]


class TestRkomReliability:
    def _warm(self, context, rkom_a, rkom_b):
        """Establish both channels before impairments kick in."""
        rkom_b.register_handler("echo", lambda payload, src: payload)
        warm = rkom_a.call("b", "echo", b"warm")
        context.run(until=context.now + 5.0)
        assert warm.result() == b"warm"

    def test_retransmission_recovers_lost_request(self):
        context, network, rkom_a, rkom_b = build(seed=7)
        self._warm(context, rkom_a, rkom_b)
        network.segment.impairment.frame_loss_rate = 0.25
        futures = [rkom_a.call("b", "echo", bytes([i]), timeout=0.1) for i in range(10)]
        context.run(until=context.now + 30.0)
        completed = [f for f in futures if f.done and not f.failed]
        assert len(completed) == 10
        assert rkom_a.stats.retransmissions > 0

    def test_duplicate_requests_executed_once(self):
        """The reply cache gives at-most-once execution."""
        context, network, rkom_a, rkom_b = build(seed=11)
        self._warm(context, rkom_a, rkom_b)
        network.segment.impairment.frame_loss_rate = 0.3
        executions = []

        def handler(payload, src):
            executions.append(payload)
            return payload

        rkom_b.register_handler("once", handler)
        futures = [rkom_a.call("b", "once", bytes([i]), timeout=0.1) for i in range(8)]
        context.run(until=context.now + 60.0)
        done = [f for f in futures if f.done and not f.failed]
        assert len(done) == 8
        # Each distinct request ran exactly once despite retransmissions.
        assert len(executions) == 8

    def test_timeout_when_peer_unreachable(self):
        context, network, rkom_a, rkom_b = build()
        rkom_b.register_handler("echo", lambda payload, src: payload)
        # Warm the channel first.
        warm = rkom_a.call("b", "echo", b"warm")
        context.run(until=1.0)
        warm.result()
        # Now make the network eat everything.
        network.segment.impairment.frame_loss_rate = 1.0
        future = rkom_a.call("b", "echo", b"lost", timeout=0.05)
        context.run(until=60.0)
        assert future.failed
        with pytest.raises(RkomTimeoutError):
            future.result()
        assert rkom_a.stats.timeouts == 1

    def test_ack_clears_reply_cache(self):
        context, _net, rkom_a, rkom_b = build()
        rkom_b.register_handler("echo", lambda payload, src: payload)
        future = rkom_a.call("b", "echo", b"x")
        context.run(until=2.0)
        future.result()
        assert len(rkom_b._served) == 0  # ACK purged the cached reply

    def test_a_refused_high_delay_rms_closes_the_low_delay_one(
            self, monkeypatch):
        # Half a channel is no channel: each failed attempt gives its
        # low-delay RMS back instead of leaving it open.
        system = DashSystem(seed=3)
        system.add_ethernet(trusted=True)
        system.add_node("a"), system.add_node("b")
        st = system.nodes["a"].st
        create, opened = st.create_st_rms, []

        def refuse_high(peer, port, **kwargs):
            if port == HIGH_PORT:
                refused = Future(system.context.loop)
                refused.set_exception(RmsFailedError("refused"))
                return refused
            future = create(peer, port=port, **kwargs)
            future.add_done_callback(lambda f: opened.append(f.result()))
            return future

        monkeypatch.setattr(st, "create_st_rms", refuse_high)
        session = system.connect("a", "b", kind="rkom")
        calls = []
        for _ in range(3):
            calls.append(session.call("echo", b"x"))
            system.run(until=system.now + 1.0)
        for call in calls:
            with pytest.raises(RkomTimeoutError):
                call.result()
        assert len(opened) == 3
        assert [rms for rms in opened if rms.is_open] == []


class TestReplyCacheBound:
    """A server answers a retransmitted request from what it holds of
    the request's client; it never evicts an entry a call may still ask
    for, and refuses a request beyond :data:`rkom.REPLY_CACHE_SIZE`."""

    def slow_server(self, rkom_b, context, delay):
        executions = []

        def handler(payload, src):
            executions.append(payload)
            done = Future(context.loop)
            context.loop.call_after(delay, done.set_result, payload)
            return done

        rkom_b.register_handler("slow", handler)
        return executions

    def test_more_calls_than_the_cache_run_each_request_at_most_once(self):
        context, _net, rkom_a, rkom_b = build()
        TestRkomReliability()._warm(context, rkom_a, rkom_b)
        # Each request runs longer than the first retransmission timeout,
        # so every call retransmits while its request is in progress.
        executions = self.slow_server(rkom_b, context, 3 * rkom.REQUEST_TIMEOUT)
        calls = rkom.REPLY_CACHE_SIZE + 40
        futures = [rkom_a.call("b", "slow", b"%d" % index)
                   for index in range(calls)]
        context.run(until=context.now + 30.0)
        assert all(future.done for future in futures)
        assert rkom_a.stats.retransmissions > 0
        assert sorted(executions) == sorted(set(executions))  # none twice
        answered = [future for future in futures if not future.failed]
        refused = [future for future in futures if future.failed]
        assert len(answered) == len(executions) == rkom.REPLY_CACHE_SIZE
        for future in refused:
            with pytest.raises(RkomRefusedError):
                future.result()
        assert [future.result() for future in answered] == [
            b"%d" % index for index in range(rkom.REPLY_CACHE_SIZE)]
        # Every answer was acknowledged: nothing is held.
        assert rkom_b._served == {}

    def test_answers_whose_acks_were_lost_make_room_once_no_call_can_ask(
        self, monkeypatch
    ):
        monkeypatch.setattr(rkom, "REPLY_CACHE_SIZE", 4)
        context, network, rkom_a, rkom_b = build()
        TestRkomReliability()._warm(context, rkom_a, rkom_b)
        acks = []
        send = rkom_a._send

        def losing_acks(peer, frame, high):
            if frame[0] == rkom._KIND_ACK:
                acks.append(frame)  # lost on the way
                return
            send(peer, frame, high)

        monkeypatch.setattr(rkom_a, "_send", losing_acks)
        first = [rkom_a.call("b", "echo", b"%d" % i) for i in range(4)]
        context.run(until=context.now + 1.0)
        assert [f.result() for f in first] == [b"0", b"1", b"2", b"3"]
        assert len(rkom_b._served["a"]) == 4 and len(acks) == 4
        # Held answers a call could still ask for: refused.
        early = rkom_a.call("b", "echo", b"early")
        context.run(until=context.now + 1.0)
        with pytest.raises(RkomRefusedError):
            early.result()
        # Past every retransmission of a default call: room again.
        context.run(until=context.now + 20.0)
        late = rkom_a.call("b", "echo", b"late")
        context.run(until=context.now + 1.0)
        assert late.result() == b"late"


class TestOnlyTheCalledPeerAnswers:
    """A reply frame from a host other than the one called must not
    resolve the call: the genuine reply still does."""

    def test_a_reply_from_a_third_host_is_counted_and_ignored(self):
        context = SimContext(seed=42)
        network = EthernetNetwork(context, trusted=True)
        hosts = [Host(context, name) for name in "abc"]
        for host in hosts:
            network.attach(host)
        keys = KeyRegistry()
        st_a, st_b, st_c = (
            SubtransportLayer(context, host, [network], key_registry=keys)
            for host in hosts)
        rkom_a, rkom_b = RkomService(context, st_a), RkomService(context, st_b)

        def slow(payload, src):
            reply = Future(context.loop)
            context.loop.call_after(0.5, reply.set_result, b"genuine")
            return reply

        rkom_b.register_handler("slow", slow)
        handle = rkom_a.call("b", "slow", timeout=2.0)
        params = RmsParams(capacity=4096, max_message_size=512,
                           delay_bound=DelayBound(0.05, 1e-5),
                           delay_bound_type=DelayBoundType.BEST_EFFORT)
        forged = st_c.create_st_rms(
            "a", port=LOW_PORT, desired=params, acceptable=params)
        context.run(until=0.3)
        forged.result().send(
            _HEADER.pack(_KIND_REPLY, handle._request_id, 0) + b"forged")
        context.run(until=0.4)
        assert not handle.done
        assert rkom_a.stats.stray_replies == 1
        context.run(until=2.0)
        assert handle.result() == b"genuine"
        assert rkom_a.stats.replies == 1 and rkom_a.stats.stray_replies == 1


class TestCallTimeoutIsValidatedFirst:
    """``call(timeout=...)``: ``None`` is the configured default; a
    non-positive or non-finite timeout raises ``ParameterError`` before
    anything is sent, recorded or set up."""

    def _warm(self):
        context, network, rkom_a, rkom_b = build()
        executed = []
        rkom_b.register_handler(
            "echo", lambda payload, src: executed.append(payload) or payload)
        rkom_a.call("b", "echo", b"warm")
        context.run(until=1.0)
        assert executed == [b"warm"]
        return context, network, rkom_a, rkom_b, executed

    def test_negative_timeout_on_a_ready_channel_sends_nothing(self):
        context, network, rkom_a, rkom_b, executed = self._warm()
        with pytest.raises(ParameterError):
            rkom_a.call("b", "echo", b"never", timeout=-1)
        assert rkom_a.stats.calls == 1 and not rkom_a._pending
        context.run(until=2.0)
        assert executed == [b"warm"] and rkom_b.stats.requests_served == 1

    def test_negative_timeout_before_the_channel_is_up_raises_at_the_call(self):
        context, network, rkom_a, rkom_b = build()
        rkom_b.register_handler("echo", lambda payload, src: payload)
        with pytest.raises(ParameterError):
            rkom_a.call("b", "echo", b"never", timeout=-1)
        context.run(until=1.0)  # nothing left to raise out of the loop
        assert rkom_a.stats.calls == 0 and not rkom_a._pending
        assert not rkom_a._sessions and network.setup_count == 0

    @pytest.mark.parametrize("timeout", [0.0, math.inf, math.nan])
    def test_zero_or_non_finite_timeout_is_refused(self, timeout):
        """0.0 used to become the default; inf / nan raised from the loop
        after the request was sent."""
        context, network, rkom_a, rkom_b, executed = self._warm()
        with pytest.raises(ParameterError):
            rkom_a.call("b", "echo", b"never", timeout=timeout)
        assert rkom_a.stats.calls == 1 and not rkom_a._pending
        context.run(until=2.0)
        assert executed == [b"warm"]

    def test_a_refused_session_call_counts_nothing(self):
        system = DashSystem(seed=3)
        system.add_ethernet(trusted=True)
        system.add_node("a"), system.add_node("b")
        session = system.connect("a", "b", kind="rkom")
        with pytest.raises(ParameterError):
            session.call("echo", b"never", timeout=0.0)
        assert session.stats.messages_sent == 0
        assert system.nodes["a"].rkom.stats.calls == 0

    def test_none_is_the_configured_default(self, monkeypatch):
        context, network, rkom_a, rkom_b, executed = self._warm()
        monkeypatch.setattr(rkom, "REQUEST_TIMEOUT", 0.125)
        network.segment.impairment.frame_loss_rate = 1.0
        handle = rkom_a.call("b", "echo", b"lost", timeout=None)
        retransmitted = []
        for step in (0.124, 0.126):
            context.run(until=handle.started_at + step)
            retransmitted.append(rkom_a.stats.retransmissions)
        assert retransmitted == [0, 1]


# -- the service against tests/rkom_reference.py ----------------------------

LATENCY, SETUP, HANDLER_DELAY = 0.00131, 0.00473, 0.00717
TIMEOUT, BACKOFF, MAX_RETRANSMITS = 0.0109, 2.0, 3
GRID = 0.00293
KIND_NAMES = {1: "request", 2: "reply", 3: "ack"}


class _Port:
    handler = None

    def set_handler(self, handler):
        self.handler = handler


class _Host:
    def __init__(self, name):
        self.name = name
        self.ports = {}

    def bind_port(self, name):
        return self.ports.setdefault(name, _Port())


class _St:
    """What ``RkomService`` uses of a subtransport layer."""

    def __init__(self, rig, name):
        self.rig = rig
        self.host = _Host(name)

    def create_st_rms(self, peer, port, desired, acceptable):
        return self.rig.create(self.host.name, port)


class _Rms:
    """An ST RMS whose frames the rig carries, drops or loses."""

    def __init__(self, rig, host, attempt, name):
        self.rig, self.host, self.attempt, self.name = rig, host, attempt, name
        self.on_failure = Signal(rig.context.loop)
        self.open = True

    def send(self, frame):
        if not self.open:
            raise RmsFailedError(f"{self.host}/{self.name} has failed")
        self.rig.transmit(self, frame)

    def fail(self):
        if self.open:
            self.open = False
            self.on_failure.fire(self, "scripted failure")

    def close(self):
        self.open = False


class Rig:
    """Two real ``RkomService``s joined at the RMS boundary by a script:
    every frame is carried ``LATENCY`` seconds unless the script drops
    it, and channel creation takes ``SETUP`` per RMS unless refused."""

    def __init__(self, steps, drops, refuse):
        self.context = context = SimContext(seed=1, observe=True)
        self.drops, self.refuse = drops, refuse
        self.sts = {name: _St(self, name) for name in "ab"}
        self.services = {name: RkomService(context, st)
                         for name, st in self.sts.items()}
        self.attempts = {"a": 0, "b": 0}
        self.channels = {"a": {}, "b": {}}  # attempt -> {"low": rms, ...}
        self.complete = {"a": [], "b": []}
        self.calls = {}  # request id -> call number
        self.handles, self.executions = [], {}
        self.sent, self.transmissions = {}, []
        server = self.services["b"]
        server.register_handler("echo", self._execute)
        server.register_handler("slow", self._execute_slowly)
        for time, step in steps:
            context.loop.call_at(time, self._step, *step)

    def _execute(self, payload, source):
        call = int(payload.split(b"-")[1])
        self.executions[call] = self.executions.get(call, 0) + 1
        return payload

    def _execute_slowly(self, payload, source):
        reply = Future(self.context.loop)
        self.context.loop.call_after(
            HANDLER_DELAY, reply.set_result, self._execute(payload, source))
        return reply

    def _step(self, what, *args):
        if what == "call":
            call = len(self.handles)
            self.handles.append(self.services["a"].call(
                "b", args[0], payload_of(call), timeout=TIMEOUT))
        elif what == "cancel":
            self.handles[args[0]].cancel()
        else:
            host, back, rms = args
            complete = self.complete[host]
            if len(complete) > back:
                self.channels[host][complete[-1 - back]][rms].fail()

    def create(self, host, port):
        if port == LOW_PORT:
            attempt, name = self.attempts[host], "low"
            self.attempts[host] += 1
        else:
            attempt, name = self.attempts[host] - 1, "high"
        future = Future(self.context.loop)
        if self.refuse.get((host, attempt)) == name:
            self.context.loop.call_after(
                SETUP, future.set_exception, RmsFailedError("refused"))
        else:
            self.context.loop.call_after(
                SETUP, self._created, _Rms(self, host, attempt, name), future)
        return future

    def _created(self, rms, future):
        self.channels[rms.host].setdefault(rms.attempt, {})[rms.name] = rms
        if rms.name == "high":
            self.complete[rms.host].append(rms.attempt)
        future.set_result(rms)

    def transmit(self, rms, frame):
        kind, request_id, op_length = _HEADER.unpack_from(frame, 0)
        kind = KIND_NAMES[kind]
        if kind == "request":
            payload = frame[_HEADER.size + op_length:]
            self.calls[request_id] = int(payload.split(b"-")[1])
        call = self.calls[request_id]
        n = self.sent.get((rms.host, kind, call), 0)
        self.sent[(rms.host, kind, call)] = n + 1
        dropped = (rms.host, kind, call, n) in self.drops
        self.transmissions.append(
            (self.context.now, rms.host, rms.name, kind, call, n, dropped))
        if not dropped:
            self.context.loop.call_after(LATENCY, self._arrive, rms, frame)

    def _arrive(self, rms, frame):
        if not rms.open:
            return
        peer = "b" if rms.host == "a" else "a"
        port = LOW_PORT if rms.name == "low" else HIGH_PORT
        self.sts[peer].host.ports[port].handler(SimpleNamespace(
            payload=frame, source=SimpleNamespace(host=rms.host)))

    def run(self):
        self.context.run()
        outcomes = {}
        for call, handle in enumerate(self.handles):
            if not handle.done:
                continue
            if not handle.failed:
                outcomes[call] = ("result", handle.finished_at, handle.result())
                continue
            try:
                handle.result()
            except TransportError as error:
                text = str(error)
            what = ("cancel" if "cancelled" in text else
                    "no-channel" if "could not be established" in text else
                    "timeout")
            outcomes[call] = (what, handle.finished_at, None)
        cached = sorted(self.calls[request_id]
                        for served in self.services["b"]._served.values()
                        for request_id in served)
        return outcomes, cached

    def channel_events(self):
        """``(time, host, "ready" | "failed")`` of each host's channel, from
        its session's trace: every ``up`` state and every
        ``reestablishing`` note (two failures in a row are two notes, but
        one state change)."""
        spans, events = self.context.obs.spans, []
        for host, service in self.services.items():
            session = service._sessions.get(PEER[host])
            for event in (() if session is None
                          else spans.events_for(session._trace)):
                if event.event == "session_state" and event.fields["to"] == "up":
                    events.append((event.time, host, "ready"))
                elif event.event == "reestablishing":
                    events.append((event.time, host, "failed"))
        return events


def draw_script(rng):
    """A few calls, maybe a cancel, channel failures, drops, refusals."""
    steps = []
    calls = sorted(rng.randrange(40) * GRID for _ in range(rng.randint(1, 6)))
    for time in calls:
        steps.append((time, ("call", rng.choice(["echo", "slow"]))))
    if rng.random() < 0.3:
        call = rng.randrange(len(calls))
        steps.append((calls[call] + rng.randrange(1, 30) * GRID,
                      ("cancel", call)))
    for _ in range(rng.choice([0, 1, 1, 2, 3])):
        steps.append((rng.randrange(1, 80) * GRID, (
            "fail", rng.choice("ab"), rng.choice([0, 0, 1]),
            rng.choice(["low", "high"]))))
    steps.sort(key=lambda entry: entry[0])
    drops = {(sender, kind, call, n)
             for sender, kind in (("a", "request"), ("b", "reply"), ("a", "ack"))
             for call in range(len(calls)) for n in range(4)
             if rng.random() < 0.2}
    refuse = {(host, attempt): rng.choice(["low", "high"])
              for host in "ab" for attempt in range(3) if rng.random() < 0.1}
    return steps, drops, refuse


def approx_times(rows):
    return sorted((round(row[0], 9),) + tuple(row[1:]) for row in rows)


class TestAgainstReference:
    """Seeded scripts through two real services and the list-and-dict
    model of ``tests/rkom_reference.py``."""

    @pytest.fixture(autouse=True)
    def schedule(self, monkeypatch):
        monkeypatch.setattr(rkom, "MAX_RETRANSMITS", MAX_RETRANSMITS)
        monkeypatch.setattr(rkom, "BACKOFF", BACKOFF)

    def _agree(self, steps, drops=frozenset(), refuse=None):
        refuse = refuse or {}
        model = run_script(
            steps, drops, refuse, latency=LATENCY, setup=SETUP,
            handler_delay=HANDLER_DELAY, timeout=TIMEOUT, backoff=BACKOFF,
            max_retransmits=MAX_RETRANSMITS)
        rig = Rig(steps, drops, refuse)
        outcomes, cached = rig.run()
        assert approx_times(rig.transmissions) == approx_times(
            model.transmissions)
        assert {call: (what, round(time, 9), value)
                for call, (what, time, value) in outcomes.items()} == {
            call: (what, round(time, 9), value)
            for call, (what, time, value) in model.outcomes.items()}
        assert rig.executions == model.executions
        assert all(count == 1 for count in model.executions.values())
        assert approx_times(rig.channel_events()) == approx_times(
            model.channel_events)
        for host, service in rig.services.items():
            assert {name: getattr(service.stats, name) for name in STATS} == (
                model.stats[host])
        assert cached == model.cached
        return model

    @pytest.mark.parametrize("seed", range(8))
    def test_same_transmissions_outcomes_and_executions(self, seed):
        rng = random.Random(seed)
        for _ in range(60):
            self._agree(*draw_script(rng))

    def test_calls_issued_while_the_channel_is_created_leave_in_order(self):
        steps = [(index * GRID, ("call", "echo")) for index in range(3)]
        model = self._agree(steps)
        assert [row[:5] for row in model.transmissions[:3]] == [
            (2 * SETUP, "a", "low", "request", call) for call in range(3)]
        assert [what for what, _, _ in model.outcomes.values()] == ["result"] * 3

    def test_lost_request_is_retransmitted_on_high_after_the_timeout(self):
        steps = [(0.0, ("call", "echo")), (0.05, ("call", "echo"))]
        model = self._agree(steps, drops={("a", "request", 1, 0)})
        retransmitted = [row for row in model.transmissions
                         if row[3] == "request" and row[4] == 1]
        assert [(rms, n) for _, _, rms, _, _, n, _ in retransmitted] == [
            ("low", 0), ("high", 1)]
        assert retransmitted[1][0] == pytest.approx(0.05 + TIMEOUT)

    def test_channel_failure_mid_call_recreates_and_retransmits(self):
        steps = [(0.0, ("call", "echo")), (0.02, ("call", "slow")),
                 (0.021, ("fail", "a", 0, "low"))]
        model = self._agree(steps)
        assert model.stats["a"]["channel_failures"] == 1
        assert model.outcomes[1][0] == "result"
        assert model.executions == {0: 1, 1: 1}

    def test_refused_channel_fails_the_waiting_calls(self):
        steps = [(0.0, ("call", "echo")), (GRID, ("call", "echo"))]
        model = self._agree(steps, refuse={("a", 0): "high"})
        assert {what for what, _, _ in model.outcomes.values()} == {"no-channel"}
        assert model.transmissions == []

    def test_failure_of_an_earlier_channel_leaves_the_current_one_up(self):
        steps = [(0.0, ("call", "echo")), (0.03, ("fail", "a", 0, "low")),
                 (0.04, ("call", "echo")), (0.1, ("fail", "a", 1, "high")),
                 (0.11, ("call", "echo"))]
        model = self._agree(steps)
        assert model.stats["a"]["channel_failures"] == 1
        assert model.outcomes[2][0] == "result"
