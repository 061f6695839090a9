"""The oracle RKOM's request / reply / ack discipline (section 3.3) is
checked against.

Written the slow, obvious way and sharing nothing with ``src/``: no
event loop, no timer group, no import from ``repro``.  Pending work is a
plain list of ``(time, order, action, args)`` that is sorted before each
step; channels, calls and the reply cache are dicts.

The world is two hosts.  ``"a"`` calls ``"b"``; ``"b"`` serves ``echo``
(the reply is the request payload, at once) and ``slow`` (the same reply
``handler_delay`` seconds later).  Each host has the outbound half of an
RKOM channel to the other: a low-delay and a high-delay RMS, created one
after the other, each taking ``setup`` seconds, on the first send that
finds no channel.  A frame sent on an open RMS arrives ``latency``
seconds later unless the script drops it or its RMS has failed by then.
The rules:

* a request rides the low RMS once the channel is up and arms the
  call's timer then; a retransmission, an ack and a re-served reply ride
  the high RMS;
* a timer that fires retransmits (through a fresh channel if the old one
  is gone, and only if the call still waits for it then) and re-arms at
  ``backoff`` times the previous timeout, until ``max_retransmits``
  retransmissions have gone unanswered: the call times out;
* a request is executed once; a duplicate is answered from the reply
  cache (nothing while the first execution is still running), and the
  ack of the reply empties its cache entry;
* a failed RMS of the channel in use takes the channel down (the next
  send re-creates it); one of an earlier channel changes nothing;
* a channel that cannot be created fails every call still waiting on
  that host, and drops the sends that waited for it.

A *script* is ``steps`` -- ``(time, step)`` with non-decreasing times,
``step`` one of ``("call", op)``, ``("cancel", call)`` and ``("fail",
host, back, rms)``, the last failing RMS ``rms`` of the host's ``back``-th
most recent complete channel -- plus ``drops``, a set of ``(sender,
kind, call, n)`` (the ``n``-th transmission, from 0, of that kind for that
call), and ``refuse``, ``{(host, attempt): "low" | "high"}``: that channel
creation attempt (from 0) fails when it gets to that RMS.  Calls are
numbered 0, 1, 2... in script order; a call's payload is
:func:`payload_of` its number.
"""

from __future__ import annotations

STATS = ("calls", "replies", "retransmissions", "timeouts",
         "duplicate_requests", "requests_served", "channel_failures")

PEER = {"a": "b", "b": "a"}


def payload_of(call):
    return b"call-%d" % call


class Outcome:
    def __init__(self):
        #: (time, sender, rms, kind, call, n, dropped), in sending order
        self.transmissions = []
        self.executions = {}  # call -> handler executions
        #: call -> ("result", time, reply) | ("timeout" | "cancel" |
        #: "no-channel", time, None); calls still waiting are absent
        self.outcomes = {}
        self.channel_events = []  # (time, host, "ready" | "failed")
        self.stats = {host: dict.fromkeys(STATS, 0) for host in PEER}
        self.cached = []  # calls left in b's reply cache at the end


def run_script(steps, drops=frozenset(), refuse=None, *, latency, setup,
               handler_delay, timeout, backoff, max_retransmits):
    """Play the script; return its :class:`Outcome`."""
    refuse = refuse or {}
    out = Outcome()
    agenda = []
    counter = [0]
    channels = {host: {"state": "none", "attempts": 0, "current": None,
                       "complete": [], "waiting": []} for host in PEER}
    open_rms = {}  # (host, attempt, rms) -> still open
    ops = []  # call -> op
    pending = {}  # call -> {"timeout", "retries", "timer"}
    cache = {}  # call -> reply, or None while executing (b's cache)
    sent = {}  # (sender, kind, call) -> transmissions so far

    def at(time, action, *args):
        counter[0] += 1
        agenda.append((time, counter[0], action, args))

    def resolve(call, what, now, value=None):
        out.outcomes[call] = (what, now, value)

    def arm(now, call):
        record = pending[call]
        counter[0] += 1
        record["timer"] = counter[0]
        at(now + record["timeout"], timer, call, counter[0])

    def transmit(now, sender, rms, kind, call):
        attempt = channels[sender]["current"]
        if not open_rms[(sender, attempt, rms)]:
            return  # sending on a failed RMS raises; RKOM shrugs it off
        n = sent.get((sender, kind, call), 0)
        sent[(sender, kind, call)] = n + 1
        dropped = (sender, kind, call, n) in drops
        out.transmissions.append((now, sender, rms, kind, call, n, dropped))
        if not dropped:
            at(now + latency, arrive, sender, attempt, rms, kind, call)

    def perform(now, sender, rms, kind, call):
        if kind == "request":
            if call not in pending:
                return  # answered, timed out or cancelled meanwhile
            transmit(now, sender, rms, kind, call)
            if rms == "low":
                arm(now, call)
        else:
            transmit(now, sender, rms, kind, call)

    def send(now, sender, rms, kind, call):
        channel = channels[sender]
        if channel["state"] == "ready":
            perform(now, sender, rms, kind, call)
            return
        channel["waiting"].append((rms, kind, call))
        if channel["state"] == "none":
            channel["state"] = "creating"
            attempt = channel["attempts"]
            channel["attempts"] += 1
            at(now + setup, created, sender, attempt, "low")

    def created(now, host, attempt, rms):
        channel = channels[host]
        if refuse.get((host, attempt)) == rms:
            channel["state"], channel["waiting"] = "none", []
            if host == "a":
                for call in list(pending):
                    del pending[call]
                    out.stats["a"]["timeouts"] += 1
                    resolve(call, "no-channel", now)
            out.channel_events.append((now, host, "failed"))
            return
        open_rms[(host, attempt, rms)] = True
        if rms == "low":
            at(now + setup, created, host, attempt, "high")
            return
        channel["complete"].append(attempt)
        channel["state"], channel["current"] = "ready", attempt
        out.channel_events.append((now, host, "ready"))
        waiting, channel["waiting"] = channel["waiting"], []
        for rms_name, kind, call in waiting:
            perform(now, host, rms_name, kind, call)

    def arrive(now, sender, attempt, rms, kind, call):
        if not open_rms[(sender, attempt, rms)]:
            return  # lost with its RMS
        if kind == "request":
            serve(now, call)
        elif kind == "reply":
            if call not in pending:
                return
            del pending[call]
            out.stats["a"]["replies"] += 1
            resolve(call, "result", now, payload_of(call))
            send(now, "a", "high", "ack", call)
        else:
            cache.pop(call, None)

    def serve(now, call):
        stats = out.stats["b"]
        if call in cache:
            stats["duplicate_requests"] += 1
            if cache[call] is not None:
                send(now, "b", "high", "reply", call)
            return
        cache[call] = None
        stats["requests_served"] += 1
        out.executions[call] = out.executions.get(call, 0) + 1
        if ops[call] == "slow":
            at(now + handler_delay, served, call)
        else:
            served(now, call)

    def served(now, call):
        cache[call] = payload_of(call)
        send(now, "b", "low", "reply", call)

    def timer(now, call, timer_id):
        record = pending.get(call)
        if record is None or record["timer"] != timer_id:
            return  # cancelled
        record["retries"] += 1
        if record["retries"] > max_retransmits:
            del pending[call]
            out.stats["a"]["timeouts"] += 1
            resolve(call, "timeout", now)
            return
        out.stats["a"]["retransmissions"] += 1
        send(now, "a", "high", "request", call)
        record["timeout"] *= backoff
        arm(now, call)

    def step(now, what, *args):
        if what == "call":
            call = len(ops)
            ops.append(args[0])
            out.stats["a"]["calls"] += 1
            pending[call] = {"timeout": timeout, "retries": 0, "timer": None}
            send(now, "a", "low", "request", call)
        elif what == "cancel":
            if pending.pop(args[0], None) is not None:
                resolve(args[0], "cancel", now)
        else:  # fail
            host, back, rms = args
            channel = channels[host]
            if len(channel["complete"]) <= back:
                return
            attempt = channel["complete"][-1 - back]
            if not open_rms[(host, attempt, rms)]:
                return
            open_rms[(host, attempt, rms)] = False
            if attempt == channel["current"] and channel["state"] == "ready":
                channel["state"] = "none"
                out.stats[host]["channel_failures"] += 1
                out.channel_events.append((now, host, "failed"))

    for time, what in steps:
        at(time, step, *what)
    while agenda:
        agenda.sort(key=lambda entry: entry[:2])
        time, _, action, args = agenda.pop(0)
        action(time, *args)
    out.cached = sorted(cache)
    return out
