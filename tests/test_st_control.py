"""The ST control channel alone (``repro.subtransport.control``): no
layer, no data path, a stand-in network that hands out recording RMSs.

Every sequence of up to four tagged frames is driven into each state of
the handshake table and compared, frame for frame and counter for
counter, with the list-and-dict model in ``tests/handshake_reference``.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import pytest

from repro.core.message import Message
from repro.errors import AuthenticationError, TransportError
from repro.security.mac import compute_mac
from repro.sim.context import SimContext
from repro.sim.events import Signal, TimerGroup
from repro.sim.process import Future
from repro.subtransport import control
from repro.subtransport.control import (
    AUTH1_SENT,
    AUTH2_SENT,
    CROSSED,
    IDLE,
    OPEN,
    REQUIRED,
    STATES,
    TABLE,
    ControlChannel,
)
from repro.subtransport.st import StStats
from repro.subtransport.wire import (
    control_mac_material,
    decode_control,
    encode_control,
)
from tests import handshake_reference as reference

KEY = bytes(range(16))
SEED = 5
RETRIES = 1  # CONTROL_MAX_RETRIES here: two ticks exhaust a handshake


@pytest.fixture(autouse=True)
def short_retry_budget(monkeypatch):
    monkeypatch.setattr(control, "CONTROL_MAX_RETRIES", RETRIES)


class StandInNetwork:
    """What a control channel asks of a network, and nothing else: RMSs
    that record, decoded, what is sent on them."""

    def __init__(self, context, trusted, host):
        self.context = context
        self.properties = SimpleNamespace(trusted=trusted)
        self.host = host.encode()
        self.created = []
        self.frames = []  # every frame sent on any RMS, in order
        self.messages = []  # the same, as sent
        self.times = []  # and when

    def create_rms(self, source, target, desired, acceptable):
        rms = SimpleNamespace(
            is_open=True, on_failure=Signal(), send=self._sent
        )
        self.created.append(rms)
        future = Future(self.context.loop)
        future.set_result(rms)
        return future

    def _sent(self, message, deadline=None):
        fields = decode_control(message.payload)
        tag = bytes.fromhex(fields.pop("_mac"))
        assert tag == compute_mac(KEY, control_mac_material(fields), self.host)
        self.frames.append(fields)
        self.messages.append(message)
        self.times.append(self.context.now)

    def delete_rms(self, rms):
        rms.is_open = False


_TAGGED = {}


def tagged(fields, label=b"b"):
    """``fields`` as the peer would put them on the wire."""
    key = (label, repr(fields))
    if key not in _TAGGED:
        tag = compute_mac(KEY, control_mac_material(fields), label)
        _TAGGED[key] = Message(encode_control(fields, mac=tag))
    return _TAGGED[key]


class Rig:
    """One channel from ``host`` to ``peer``, and its model."""

    def __init__(self, trusted=False, host="a", peer="b", context=None):
        self.context = context or SimContext(seed=SEED)
        self.stats = StStats()
        self.network = StandInNetwork(self.context, trusted, host)
        self.timers = TimerGroup(self.context.loop)
        self.to_layer = []
        #: A challenge of this host's came back (or trust stands in).
        self.answered = trusted
        hand_over = lambda channel, fields: self.to_layer.append(fields["op"])
        self.channel = ControlChannel(
            self.context, self.stats, host, peer,
            self.network, KEY, self.timers,
            dict.fromkeys(("st_create", "st_close", "fast_ack"), hand_over),
            before_connect=lambda: None,
        )
        twin = SimContext(seed=SEED).rng.stream(f"auth:{host}")
        self.model = reference.endpoint(
            host, iter(lambda: twin.getrandbits(48), None),
            trusted=trusted, max_retries=control.CONTROL_MAX_RETRIES,
        )

    def settle(self):
        """Run what is due now (future callbacks), no timer."""
        self.context.run(until=self.context.now)

    def ensure(self):
        future = self.channel.ensure()
        reference.ensure(self.model)
        self.settle()
        return future

    def deliver(self, fields):
        self.take(tagged(fields), fields)
        reference.deliver(self.model, fields)

    def take(self, message, fields):
        """``message`` (``fields`` on the wire) arrives at the channel."""
        kind = fields.get("op")
        if kind == "auth2":
            ours = [f["na"] for f in self.sent() if f["op"] == "auth1"]
            self.answered |= fields.get("na") in ours
        elif kind == "auth3":
            ours = [f["nb"] for f in self.sent() if f["op"] == "auth2"]
            self.answered |= fields.get("nb") in ours
        self.channel.arrived(message)
        if self.channel.out_state == "creating":
            self.settle()

    def sent(self):
        return self.network.frames

    def last(self, kind, field, default):
        for frame in reversed(self.network.frames):
            if frame["op"] == kind:
                return frame[field]
        return default

    def drops(self):
        return {"auth": self.stats.auth_drops, "control": self.stats.control_drops}

    def check(self):
        """The channel did what the model did."""
        sent, dropped, to_layer = [], {"auth": 0, "control": 0}, []
        for what, *detail in self.model["did"]:
            if what == "send":
                sent.append(detail[0])
            elif what == "drop":
                dropped[detail[0]] += 1
            elif what == "layer":
                to_layer.append(detail[0])
        assert self.sent() == sent
        assert [list(f) for f in self.sent()] == [list(f) for f in sent]  # order
        assert self.channel.authenticated == self.model["authenticated"]
        assert self.answered or not self.channel.authenticated  # legitimate path
        assert self.drops() == dropped
        assert self.to_layer == to_layer
        assert self.stats.control_messages == len(sent)
        assert self.stats.garbled_bundles == 0


def exhaust(rig):
    rig.context.run(until=rig.context.now + 100.0)
    for _ in range(RETRIES + 1):
        reference.retry_tick(rig.model)


#: How to reach each table state from a fresh channel (OPEN both ways).
def reach_idle(rig):
    pass


def reach_auth1_sent(rig):
    rig.ensure()


def reach_crossed(rig):
    rig.deliver({"op": "auth1", "from": "b", "na": 41})


def reach_auth2_sent(rig):
    reach_crossed(rig)
    exhaust(rig)  # its own auth1 went unanswered


def reach_open_by_auth2(rig):
    rig.ensure()
    rig.deliver({"op": "auth2", "from": "b", "na": rig.last("auth1", "na", 0),
                 "nb": 42})


def reach_open_by_auth3(rig):
    reach_crossed(rig)
    rig.deliver({"op": "auth3", "from": "b", "nb": rig.last("auth2", "nb", 0)})


REACH = {
    "idle": (reach_idle, IDLE),
    "auth1-sent": (reach_auth1_sent, AUTH1_SENT),
    "auth2-sent": (reach_auth2_sent, AUTH2_SENT),
    "crossed": (reach_crossed, CROSSED),
    "open-by-auth2": (reach_open_by_auth2, OPEN),
    "open-by-auth3": (reach_open_by_auth3, OPEN),
}

#: The frame alphabet; a callable takes the rig (good nonces are read
#: off the frames the channel itself has sent).
ALPHABET = {
    "auth1": lambda rig: {"op": "auth1", "from": "b", "na": 7},
    "auth2-good": lambda rig: {"op": "auth2", "from": "b", "nb": 8,
                               "na": rig.last("auth1", "na", -1)},
    "auth2-bad": lambda rig: {"op": "auth2", "from": "b", "na": 12345, "nb": 8},
    "auth3-good": lambda rig: {"op": "auth3", "from": "b",
                               "nb": rig.last("auth2", "nb", -1)},
    "auth3-bad": lambda rig: {"op": "auth3", "from": "b", "nb": 54321},
    "st_create": lambda rig: {"op": "st_create", "st_id": 9, "port": "p",
                              "fast_ack": False, "capacity": 1, "req": 1},
    "unknown": lambda rig: {"op": "auth9", "from": "b"},
    "auth1-no-na": lambda rig: {"op": "auth1", "from": "b"},
    "auth2-no-nb": lambda rig: {"op": "auth2", "from": "b",
                                "na": rig.last("auth1", "na", -1)},
    "auth3-no-nb": lambda rig: {"op": "auth3", "from": "b"},
    "st_create-no-st_id": lambda rig: {"op": "st_create", "req": 1},
}
#: The symbols that are not dropped in every state.
MAY_PASS = ("auth1", "auth2-good", "auth3-good", "st_create")


class TestTable:
    def test_every_state_reachable_and_every_kind_known(self):
        assert {state for state, _ in TABLE} == set(STATES)
        assert {kind for _, kind in TABLE} == set(REQUIRED)
        assert {row[2] for row in TABLE.values()} <= set(STATES)
        for name, (reach, state) in REACH.items():
            rig = Rig()
            reach(rig)
            assert rig.channel.state == state, name
            rig.check()

    def walk(self, start, symbols, length):
        """Every sequence of ``length`` frames from ``symbols`` into one
        start state, the model compared after each frame (so every
        shorter sequence is checked as a prefix)."""
        reach, _ = REACH[start]
        for sequence in itertools.product(symbols, repeat=length):
            rig = Rig()
            reach(rig)
            for name in sequence:
                channel = rig.channel
                before = (sum(rig.drops().values()), channel.state,
                          channel._nonce, list(channel._issued), len(rig.sent()))
                rig.deliver(ALPHABET[name](rig))
                rig.check()
                dropped = sum(rig.drops().values()) - before[0]
                assert dropped in (0, 1), (start, sequence)
                if dropped:  # a dropped frame changes nothing
                    assert before[1:] == (
                        channel.state, channel._nonce, channel._issued,
                        len(rig.sent())), (start, sequence)
                else:
                    assert name in MAY_PASS, (start, sequence)
            rig.channel.close()
            assert rig.timers.live == 0, (start, sequence)

    @pytest.mark.parametrize("start", REACH)
    def test_every_sequence_of_up_to_three_frames(self, start):
        """Nothing raises; every frame sent, every drop counted and
        ``authenticated`` match the model; the channel authenticates
        only after one of its own challenges came back; each frame
        moves at most one drop counter, and a frame that moves one
        changes nothing else; ``close()`` leaves no live timer."""
        self.walk(start, ALPHABET, 3)

    @pytest.mark.parametrize("start", REACH)
    def test_every_sequence_of_four_frames_that_can_pass(self, start):
        """Seven of the eleven symbols are dropped in every state, and a
        dropped frame changes nothing (asserted above), so a sequence of
        four that contains one is a sequence of three plus a drop: the
        fourth frame is enumerated over the symbols that can pass."""
        self.walk(start, MAY_PASS, 4)

    def test_any_outstanding_nb_is_accepted_and_an_evicted_one_is_not(self):
        """A fresh nb per auth1, retransmitted or not; the last
        ``CONTROL_MAX_RETRIES + 1`` stay answerable."""
        for answer, accepted in ((0, False), (1, True), (2, True)):
            rig = Rig()  # RETRIES = 1: two nbs outstanding
            for _ in range(3):
                rig.deliver({"op": "auth1", "from": "b", "na": 7})
            nbs = [f["nb"] for f in rig.sent() if f["op"] == "auth2"]
            assert len(set(nbs)) == 3
            rig.deliver({"op": "auth3", "from": "b", "nb": nbs[answer]})
            rig.check()
            assert rig.channel.authenticated == accepted
            assert rig.stats.auth_drops == (not accepted)
            if accepted:  # the handshake is over: the others are retired
                rig.deliver({"op": "auth3", "from": "b", "nb": nbs[3 - answer]})
                rig.check()
                assert rig.stats.auth_drops == 1


class TestParentDefects:
    """Three holes the if-chain had; each fails at the parent commit."""

    def test_auth1_without_na_is_a_counted_drop(self):
        rig = Rig()
        rig.deliver({"op": "auth1", "from": "b"})  # KeyError at the parent
        assert rig.stats.control_drops == 1
        assert rig.sent() == []

    def test_auth3_with_an_unissued_nb_does_not_authenticate(self):
        rig = Rig()
        waiter = rig.ensure()
        rig.deliver({"op": "auth3", "from": "b", "nb": 99})  # AUTH1_SENT
        assert not rig.channel.authenticated and not waiter.done
        assert rig.stats.control_drops == 1
        rig.deliver({"op": "auth1", "from": "b", "na": 5})  # now CROSSED
        rig.deliver({"op": "auth3", "from": "b", "nb": 99})
        assert not rig.channel.authenticated and not waiter.done
        assert rig.stats.auth_drops == 1
        rig.deliver({"op": "auth3", "from": "b",
                     "nb": rig.last("auth2", "nb", None)})
        assert rig.channel.authenticated and waiter.done

    def test_unknown_op_is_counted(self):
        rig = Rig()
        for op in ("auth9", "", None, 3, ["auth1"], {"op": "auth1"}):
            before = rig.stats.control_drops
            rig.deliver({"op": op, "na": 1, "nb": 2})
            assert rig.stats.control_drops == before + 1
        assert rig.sent() == [] and rig.channel.state == IDLE

    @pytest.mark.parametrize("kind", sorted(REQUIRED))
    def test_a_missing_or_mistyped_field_is_a_counted_drop(self, kind):
        whole = {"op": kind, "from": "b", **{name: 1 for name in REQUIRED[kind]}}
        for name in REQUIRED[kind]:
            for value in (None, "1", 1.0, True, [1], {}):
                rig = Rig()
                reach_crossed(rig)
                frame = dict(whole)
                if value is None:
                    del frame[name]
                else:
                    frame[name] = value
                before = list(rig.sent())
                rig.deliver(frame)
                assert rig.stats.control_drops == 1, (name, value)
                assert rig.sent() == before and rig.to_layer == []


class TestHandshakeBetweenTwo:
    def test_pair_transcript_matches_the_model(self):
        """Two channels back to back against two model endpoints: the
        six handshake frames, in order, nonce for nonce."""
        a = Rig()
        b = Rig(host="b", peer="a", context=a.context)
        waiter = a.ensure()
        taken = {"a": 0, "b": 0}
        for _ in range(6):  # rounds of "hand over what the other side sent"
            for source, sink in ((a, b), (b, a)):
                name = source.channel.host_name
                while taken[name] < len(source.sent()):
                    index = taken[name]
                    taken[name] += 1
                    sink.take(source.network.messages[index], source.sent()[index])
        wire = reference.run_pair(a.model, b.model)
        assert [kind["op"] for _, kind in wire] == [
            "auth1", "auth2", "auth1", "auth3", "auth2", "auth3"]
        for rig in (a, b):
            rig.check()
            assert rig.channel.authenticated
            assert rig.stats.auth_handshakes == 1
            assert rig.drops() == {"auth": 0, "control": 0}
            assert rig.timers.live == 0  # both retries cancelled by auth2
        assert waiter.done and not waiter.failed

    def test_trusted_medium_sends_nothing(self):
        rig = Rig(trusted=True)
        waiter = rig.ensure()
        assert waiter.done and rig.channel.authenticated
        assert rig.sent() == [] and rig.stats.auth_handshakes == 0
        rig.check()


class TestRetry:
    def test_auth1_and_requests_share_one_back_off(self, monkeypatch):
        """First copy at once, copy k+1 ``timeout * 2**k`` after copy k,
        one limit of copies for both, then a typed failure."""
        monkeypatch.setattr(control, "CONTROL_MAX_RETRIES", 3)
        rig = Rig()
        waiter = rig.ensure()
        reply = rig.channel.request({"op": "st_create", "st_id": 1})
        rig.context.run(until=60.0)
        times = {"auth1": [], "st_create": []}
        for frame, when in zip(rig.sent(), rig.network.times):
            times[frame["op"]].append(round(when, 9))
        assert times["auth1"] == [0.0, 0.3, 0.9, 2.1]
        assert times["st_create"] == [0.0, 0.3, 0.9, 2.1]
        assert len({f["na"] for f in rig.sent() if f["op"] == "auth1"}) == 1
        with pytest.raises(AuthenticationError):
            waiter.result()
        with pytest.raises(TransportError, match="timed out"):
            reply.result()
        assert rig.channel.state == IDLE and not rig.channel.pending
        assert rig.timers.live == 0

    @pytest.mark.parametrize("start, running", [
        ("auth1-sent", AUTH1_SENT), ("crossed", CROSSED),
    ])
    def test_ensure_after_the_retries_ran_out_starts_another_handshake(
            self, start, running):
        """The outgoing RMS outlives an exhausted handshake; a waiter
        appended then must not be left to hang on it."""
        rig = Rig()
        REACH[start][0](rig)
        first = rig.channel.ensure()
        exhaust(rig)
        with pytest.raises(AuthenticationError):
            first.result()
        assert rig.channel.out_state == "ready" and rig.timers.live == 0
        second = rig.ensure()
        assert rig.channel.state == running and not second.done
        exhaust(rig)  # the peer stays deaf: a second budget, then typed
        with pytest.raises(AuthenticationError):
            second.result()
        assert rig.timers.live == 0 and not rig.channel.waiters
        challenges = [f["na"] for f in rig.sent() if f["op"] == "auth1"]
        assert len(challenges) == 2 * (RETRIES + 1)
        assert len(set(challenges)) == 2 and rig.stats.auth_handshakes == 2
        third = rig.ensure()  # and now the peer has started listening
        rig.deliver({"op": "auth2", "from": "b", "nb": 42,
                     "na": rig.last("auth1", "na", 0)})
        rig.settle()
        assert third.result() is None and rig.channel.state == OPEN
        rig.check()

    def test_reply_resolves_the_request_and_stops_its_timer(self):
        rig = Rig()
        reach_open_by_auth2(rig)
        reply = rig.channel.request({"op": "st_create", "st_id": 1})
        req = rig.sent()[-1]["req"]
        rig.deliver({"op": "st_accept", "req": req})
        rig.settle()
        assert reply.result()["op"] == "st_accept"
        assert not rig.channel.pending and rig.timers.live == 0
        rig.deliver({"op": "st_accept", "req": req})  # a duplicate: no drop
        assert rig.drops() == {"auth": 0, "control": 0}

    @pytest.mark.parametrize("start", REACH)
    def test_close_fails_everything_outstanding(self, start):
        rig = Rig()
        REACH[start][0](rig)
        waiter = rig.channel.ensure()
        reply = rig.channel.request({"op": "st_create", "st_id": 1})
        sent = len(rig.sent())
        rig.channel.close()
        assert rig.timers.live == 0
        rig.context.run(until=rig.context.now + 100.0)
        # Nothing comes back to life: an outgoing RMS whose creation was
        # in flight at close() is deleted when it arrives, not adopted.
        assert rig.timers.live == 0 and rig.sent() == rig.sent()[:sent]
        assert rig.channel.state == IDLE and rig.channel.out is None
        assert all(not rms.is_open for rms in rig.network.created)
        assert waiter.done and waiter.failed != start.startswith("open")
        with pytest.raises(TransportError, match="closed"):
            reply.result()
