"""The oracle one session's establishment loop is checked against.

Written the slow, obvious way and sharing nothing with ``src/``: no
event loop, no future, no import from ``repro``.  A session is a handful
of plain values, lists and one dict; an event is a string; what the
loop does with an event is written out once per event below.

The loop: an attempt is in flight until it succeeds (with the desired
parameters, or below them: *degraded*) or fails.  ``AdmissionError``
walks one rung down the degradation ladder and tries again at once while
a rung is left; any other failure, or admission on the last rung, counts
one consecutive failure and either waits out a backoff or gives up.  A
lost channel is re-established from the top rung, the stream kind first
putting back in front of the queue what the lost channel carried.  The
ST kind with a policy steers each attempt to the first network that is
not the one that failed last, and counts a *failover* when that differs
from the network it was on.  Without a policy the session has one rung,
one attempt and no queue: the first failure and the first loss end it.

Events:

* ``"ok"`` / ``"ok_degraded"`` -- the attempt in flight succeeds, with
  or below the desired set (``ok_degraded`` only for the ST kind);
* ``"admission"`` / ``"negotiation"`` / ``"error"`` -- it fails with
  ``AdmissionError``, ``NegotiationError`` or anything else;
* ``"lost"`` -- the established channel fails;
* ``"fire"`` -- the backoff timer runs out;
* ``"send"`` -- the client sends the next payload (sizes alternate
  :data:`SIZES`);
* ``"close"`` -- the client closes the session.

``recovered`` counts re-establishments only, like ``recoveries``.
"""

from __future__ import annotations

#: The two networks the ST kind can be steered between, in the order
#: the ST lists them.
NETWORKS = ("n0", "n1")

#: Payload sizes of successive sends.
SIZES = (400, 600)

OUTCOMES = ("ok", "ok_degraded", "admission", "negotiation", "error")


class Model:
    """One session.  ``policy`` is None or a dict with ``max_attempts``,
    ``initial``, ``factor`` and ``cap`` (the backoff schedule, no jitter)."""

    def __init__(self, kind, policy, rungs, limit):
        self.kind = kind  # "st" or "stream"
        self.policy = policy
        self.rungs = rungs if policy is not None else 1
        self.limit = limit
        self.state = "establishing"
        self.established = "pending"  # -> "done" / "failed"
        self.failures = 0
        self.rung = 0
        self.network = None  # where the ST kind was last steered / bound
        self.avoid = None  # the network that failed last
        self.queue = []  # sizes waiting for a channel
        self.channel = None  # sizes sent on the live channel, or None
        self.in_flight = False  # an attempt is waiting for its outcome
        self.backoff = None  # seconds the pending retry waits, or None
        self.attempts = []  # (rung, preferred network) of every attempt
        self.closed_channels = 0
        self.sends = 0
        self.transitions = {}
        self.stats = dict(messages_sent=0, messages_queued=0, queue_drops=0,
                          recoveries=0, degradations=0, failovers=0)
        self._attempt()

    # -- what can happen next ------------------------------------------

    def events(self):
        """The events that can happen in the current state."""
        possible = []
        if self.in_flight:
            possible += [e for e in OUTCOMES
                         if e != "ok_degraded" or self.kind == "st"]
        if self.channel is not None:
            possible.append("lost")
        if self.backoff is not None:
            possible.append("fire")
        return possible + ["send", "close"]

    @property
    def queued_bytes(self):
        return sum(self.queue)

    @property
    def live_timers(self):
        return 0 if self.backoff is None else 1

    def step(self, event):
        """Apply one event; ``send`` returns ``"raised"`` / ``"sent"`` /
        ``"queued"`` / ``"dropped"``."""
        if event == "send":
            return self._send()
        if event == "close":
            self._close()
        elif event == "fire":
            self.backoff = None
            self._attempt()
        elif event == "lost":
            self._lost()
        elif event in ("ok", "ok_degraded"):
            self.in_flight = False
            if self.state == "closed":
                self.closed_channels += 1  # closed as soon as it arrives
            else:
                self._up(degraded=event == "ok_degraded")
        elif event == "admission" and self.state != "closed" \
                and self.rung < self.rungs - 1:
            self.in_flight = False
            self.rung += 1
            self._count("degrade")
            self._attempt()
        else:  # a failed attempt
            self.in_flight = False
            if self.state != "closed":
                self._failed()
        return None

    # -- the loop --------------------------------------------------------

    def _count(self, kind):
        self.transitions[kind] = self.transitions.get(kind, 0) + 1

    def _attempt(self):
        preferred = None
        if self.kind == "st" and self.policy is not None:
            preferred = NETWORKS[0]
            for network in NETWORKS:
                if network != self.avoid:
                    preferred = network
                    break
            if self.network is not None and preferred != self.network:
                self.stats["failovers"] += 1
                self._count("failover")
            self.network = preferred
        self.attempts.append((self.rung, preferred))
        self.in_flight = True

    def _up(self, degraded):
        self.failures = 0
        self.avoid = None
        self.network = self.attempts[-1][1] or NETWORKS[0]
        self.channel = []
        if self.established == "done":
            self.stats["recoveries"] += 1
            self._count("recovered")
        if degraded:
            self.stats["degradations"] += 1
            self.state = "degraded"
        else:
            self.state = "up"
        self.established = "done"
        while self.queue:
            self.channel.append(self.queue.pop(0))
            self.stats["messages_sent"] += 1

    def _failed(self):
        self.failures += 1
        self.avoid = self.network
        policy = self.policy
        if policy is None or self.failures >= policy["max_attempts"]:
            if policy is not None:
                self._count("gave_up")
            self._fail()
            return
        delay = policy["initial"] * policy["factor"] ** (self.failures - 1)
        self.backoff = max(min(policy["cap"], delay), 1e-3)
        self._count("retry")

    def _fail(self):
        self.stats["queue_drops"] += len(self.queue)
        self.queue = []
        self.state = "failed"
        if self.established == "pending":
            self.established = "failed"

    def _lost(self):
        carried, self.channel = self.channel, None
        if self.policy is None:
            self._fail()
            return
        self.avoid = self.network
        self.rung = 0
        if self.kind == "stream":  # nothing is known delivered: resend all
            self.queue = carried + self.queue
        while self.queued_bytes > self.limit:
            self.queue.pop()
            self.stats["queue_drops"] += 1
        self._count("reestablishing")
        self.state = "re-establishing"
        self._attempt()

    def _send(self):
        if self.state in ("failed", "closed"):
            return "raised"
        size = SIZES[self.sends % len(SIZES)]
        self.sends += 1
        if self.channel is not None:
            self.channel.append(size)
            self.stats["messages_sent"] += 1
            return "sent"
        if self.policy is not None and self.queued_bytes + size <= self.limit:
            self.queue.append(size)
            self.stats["messages_queued"] += 1
            return "queued"
        self.stats["queue_drops"] += 1
        return "dropped"

    def _close(self):
        if self.state == "closed":
            return
        self.backoff = None
        if self.channel is not None:
            self.closed_channels += 1
            self.channel = None
        self.stats["queue_drops"] += len(self.queue)
        self.queue = []
        if self.established == "pending":
            self.established = "failed"
        self.state = "closed"


def sequences(model_factory, length):
    """Every event sequence of exactly ``length`` events the model allows
    (a shorter one is a prefix of some of these: ``send`` and ``close``
    can always happen)."""
    found = []

    def walk(prefix):
        if len(prefix) == length:
            found.append(prefix)
            return
        model = model_factory()
        for event in prefix:
            model.step(event)
        for event in model.events():
            walk(prefix + [event])

    walk([])
    return found
