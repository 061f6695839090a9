"""Every session kind's establishment loop, against an independent model.

``tests/session_reference.py`` is the oracle.  Every event sequence of
four events it allows is driven through a real :class:`StSession` (over
a stand-in ST: two networks, futures the test resolves) and a real
:class:`TransportSession` (``open_stream`` replaced by one that hands
out stand-in streams), resilient and bare, and after every event
the session is compared with the model: state, the ``established``
future, every ``SessionStats`` counter, the bytes waiting in the queue,
live loop events, which rung and which network each attempt asked for,
and how many channels were closed.  No network is simulated.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core.params import (
    DelayBound,
    DelayBoundType,
    RmsParams,
    is_compatible,
)
from repro.core.rms import RmsState
from repro.errors import (
    AdmissionError,
    NegotiationError,
    RmsFailedError,
    TransportError,
)
from repro.resilience import (
    StSession,
    TransportSession,
    degradation_ladder,
)
from repro.resilience import policy as policy_module
from repro.resilience import session as session_module
from repro.sim.context import SimContext
from repro.sim.events import Signal
from repro.sim.process import Future
from tests import session_reference as reference

DESIRED = RmsParams(
    capacity=4000, max_message_size=600,
    delay_bound=DelayBound(0.05, 1e-5),
    delay_bound_type=DelayBoundType.DETERMINISTIC,
)
FLOOR = RmsParams(
    capacity=1000, max_message_size=600,
    delay_bound=DelayBound.unbounded(),
    delay_bound_type=DelayBoundType.BEST_EFFORT,
)
LADDER = degradation_ladder(DESIRED, FLOOR)
#: What the stream kind asks its data RMS for.
STREAM_DESIRED = RmsParams(capacity=1000, max_message_size=600)
#: The backoff schedule every test here runs under, and the model's copy.
SCHEDULE = dict(MAX_ATTEMPTS=2, BACKOFF_INITIAL=0.25, BACKOFF_FACTOR=2.0,
                BACKOFF_CAP=2.0, JITTER=0.0)
MODEL_POLICY = dict(max_attempts=2, initial=0.25, factor=2.0, cap=2.0)
ERRORS = {
    "admission": AdmissionError,
    "negotiation": NegotiationError,
    "error": RmsFailedError,
}


class FakeNetwork:
    def __init__(self, name):
        self.name = name
        self.hosts = {"a": None, "b": None}

    def can_reach(self, source, target):
        return True


class FakeChannel:
    """An ST RMS or a stream: what a session reads of either."""

    def __init__(self, rig, params=None, network=None):
        self.rig = rig
        self.params = params
        self.binding = None
        if network is not None:
            self.binding = SimpleNamespace(network_rms=SimpleNamespace(
                network=SimpleNamespace(name=network)))
        self.on_failure = self.on_failed = Signal()
        self.state = RmsState.OPEN  # an ST session reads the field
        self.failed = None
        self.sent = []

    @property
    def is_open(self):
        return self.state is RmsState.OPEN

    def send(self, payload, deadline=None):
        if not self.is_open:
            raise RmsFailedError("closed")
        self.sent.append(payload)
        accepted = Future(self.rig.context.loop)
        accepted.set_result(None)
        return accepted

    def salvage_unsent(self):
        return list(self.sent)

    def drain_to(self, callback):
        pass

    def close(self):
        if self.is_open:
            self.state = RmsState.DELETED
            self.rig.closed += 1

    def lose(self):
        self.state = RmsState.FAILED
        self.failed = "lost"
        self.on_failure.fire(self, "lost")


class Rig:
    """A stand-in ST (and, for streams, the ``open_stream`` it is given)."""

    def __init__(self):
        self.context = SimContext(seed=25)
        self.host = SimpleNamespace(name="a")
        self.networks = [FakeNetwork(name) for name in reference.NETWORKS]
        self.preference = None
        self.pending = []  # futures of attempts in flight, oldest first
        self.attempts = []  # (rung, preferred network) per attempt
        self.channels = []  # every channel handed out, oldest first
        self.closed = 0

    # -- the ST surface a session uses ------------------------------------

    def set_network_preference(self, peer_host, network_name):
        self.preference = network_name

    def create_st_rms(self, peer_host, port, desired, acceptable,
                      fast_ack=False):
        self.attempts.append((LADDER.index((desired, acceptable)),
                              self.preference))
        return self._future(self.preference or reference.NETWORKS[0])

    def close_st_rms(self, rms):
        rms.close()

    def open_stream(self, context, sender_st, receiver_st, desired, config):
        self.attempts.append((0, None))
        return self._future(None)

    def _future(self, network):
        future = Future(self.context.loop)
        self.pending.append((future, network))
        return future

    # -- outcomes -----------------------------------------------------------

    def settle(self):
        self.context.run(until=self.context.now)

    def resolve(self, event):
        future, network = self.pending.pop(0)
        if event in ("ok", "ok_degraded"):
            params = DESIRED if event == "ok" else FLOOR
            self.channels.append(FakeChannel(self, params, network))
            future.set_result(self.channels[-1])
        else:
            future.set_exception(ERRORS[event](event))


@pytest.fixture(autouse=True)
def schedule(monkeypatch):
    for name, value in SCHEDULE.items():
        monkeypatch.setattr(policy_module, name, value)


def _st(rig, policy):
    return StSession(rig.context, rig, "b", "p", DESIRED, FLOOR,
                     resilient=policy, name="s")


def _stream(rig, policy, monkeypatch):
    monkeypatch.setattr(session_module, "open_stream", rig.open_stream)
    return TransportSession(rig.context, rig, rig, desired=STREAM_DESIRED,
                            resilient=policy, name="s")


def _established(session):
    future = session.established
    if not future.done:
        return "pending"
    return "failed" if future.failed else "done"


def _compare(session, model, rig, where):
    got = dict(
        state=session.state.value,
        established=_established(session),
        transitions=dict(session.stats.transitions),
        stats={key: getattr(session.stats, key) for key in model.stats},
        queued=session._queued_bytes,
        live=rig.context.loop.pending_events,
        attempts=rig.attempts,
        closed=rig.closed,
    )
    want = dict(
        state=model.state,
        established=model.established,
        transitions=model.transitions,
        stats=model.stats,
        queued=model.queued_bytes,
        live=model.live_timers,
        attempts=model.attempts,
        closed=model.closed_channels,
    )
    assert got == want, where


def _model(kind, policy):
    """The model of one kind: the ST kind walks ``LADDER`` and queues up
    to the floor's capacity, a stream has one rung and queues up to its
    data capacity."""
    if kind == "st":
        rungs, limit = len(LADDER), FLOOR.capacity
    else:
        rungs, limit = 1, STREAM_DESIRED.capacity
    return reference.Model(kind, MODEL_POLICY if policy else None, rungs, limit)


def _drive(kind, policy, events, monkeypatch):
    rig = Rig()
    if kind == "st":
        session = _st(rig, policy)
    else:
        session = _stream(rig, policy, monkeypatch)
    model = _model(kind, policy)
    rig.settle()
    _compare(session, model, rig, "opened")
    for index, event in enumerate(events):
        where = f"{kind} {'policy' if policy else 'bare'} {events[:index + 1]}"
        if event in reference.OUTCOMES:
            rig.resolve(event)
        elif event == "lost":
            rig.channels[-1].lose()
        elif event == "fire":
            rig.context.run(until=rig.context.now + model.backoff)
        elif event == "send":
            size = reference.SIZES[model.sends % len(reference.SIZES)]
            try:
                session.send(bytes(size))
                raised = False
            except (RmsFailedError, TransportError):
                raised = True
            assert raised == (model.step("send") == "raised"), where
        elif event == "close":
            session.close()
        if event != "send":
            model.step(event)
        rig.settle()
        _compare(session, model, rig, where)
        if kind == "st" and policy and model.state == "closed":
            assert rig.preference is None, where
    return model


CASES = [
    (kind, policy, events)
    for kind in ("st", "stream")
    for policy in (True, False)
    for events in reference.sequences(
        lambda kind=kind, policy=policy: _model(kind, policy), 4)
]


def test_the_enumeration_reaches_every_event_and_state():
    assert len(LADDER) == 3
    assert not is_compatible(FLOOR, DESIRED)  # "ok_degraded" is degraded
    seen_events = {event for _, _, events in CASES for event in events}
    assert seen_events == set(reference.OUTCOMES) | {
        "lost", "fire", "send", "close"}
    states = set()
    for kind, policy, events in CASES:
        model = _model(kind, policy)
        for event in events:
            model.step(event)
            states.add(model.state)
    assert states == {"establishing", "up", "degraded", "re-establishing",
                      "failed", "closed"}


@pytest.mark.parametrize("kind", ["st", "stream"])
@pytest.mark.parametrize("policy", [True, False], ids=["policy", "bare"])
def test_every_sequence_of_four_events_matches_the_model(
        kind, policy, monkeypatch):
    cases = [events for k, p, events in CASES if (k, p) == (kind, policy)]
    assert cases
    for events in cases:
        _drive(kind, policy, events, monkeypatch)


def test_a_first_establishment_is_not_a_recovery():
    """A supervised ST session that comes up once and never fails has
    re-established nothing."""
    rig = Rig()
    session = _st(rig, True)
    rig.settle()
    rig.resolve("ok")
    rig.settle()
    assert session.is_up
    assert session.stats.recoveries == 0
    assert session.stats.transitions.get("recovered", 0) == 0
