"""The oracle the three flow-control rules of section 4.4 are checked against.

Written the slow, obvious way and sharing nothing with ``src/``: no
deque, no timer, no event loop, no import from ``repro``.  Every byte
ever admitted stays in a plain list and "how much counts against the
limit right now" is recomputed from that list each time it is asked.

A *script* is a list of ``(time, op, size)`` steps with non-decreasing
times; ``op`` is ``"request"``, ``"acknowledge"`` (window rule),
``"grant"`` (credit rule) or ``"advance"`` (only moves the clock).
Requests are tagged 0, 1, 2... in script order.  The three rules:

* ``"rate"``   -- in any period of ``window`` seconds at most ``limit``
  bytes are admitted: bytes admitted less than ``window`` ago count;
* ``"window"`` -- admitted and not yet acknowledged bytes count;
* ``"credit"`` -- admitted and not yet granted-back bytes count.

Common to all: first come, first served -- a request is admitted at
once only if nobody waits and it fits; otherwise it waits, and the head
of the line is looked at again whenever room may have appeared (an
``acknowledge`` / ``grant``, a new ``request``, or, for the rate rule,
:data:`HAIR` seconds after the oldest counted bytes age out).  A request
larger than ``limit`` can never fit and is refused outright.  A request
is *delayed* when it was seen at the head of the line without room.
"""

from __future__ import annotations

#: How long after bytes age out the rate rule looks again ("a hair past
#: the eviction instant"); part of the behaviour, the benches' simulated
#: figures depend on it.
HAIR = 1e-9

RETURNS = {"window": "acknowledge", "credit": "grant", "rate": None}


class Outcome:
    def __init__(self):
        self.order = []  # tags, in admission order
        self.times = {}  # tag -> admission time
        self.delayed = set()  # tags seen blocked at the head of the line
        self.refused = []  # tags larger than the limit
        self.waiting = []  # tags never admitted when the script ended
        self.in_use = []  # bytes counted against the limit after each step


def run_script(rule, limit, script, window=None):
    """Play ``script`` through ``rule``; return its :class:`Outcome`."""
    outcome = Outcome()
    admitted = []  # (time, size) of everything ever admitted
    returned = [0]  # bytes acknowledged / granted back, after clamping
    line = []  # (tag, size) waiting, first come first
    look_again = [None]  # when the rate rule next looks by itself

    def in_use(now):
        if rule == "rate":
            return sum(size for time, size in admitted if now - time < window)
        return sum(size for _, size in admitted) - returned[0]

    def look(now):
        while line and in_use(now) + line[0][1] <= limit:
            tag, size = line.pop(0)
            admitted.append((now, size))
            outcome.order.append(tag)
            outcome.times[tag] = now
        look_again[0] = None
        if line:
            outcome.delayed.add(line[0][0])
            if rule == "rate":  # the other rules wait to be given room
                counted = [time for time, _ in admitted if now - time < window]
                look_again[0] = (min(counted) + window) + HAIR

    def pass_time(until):
        while look_again[0] is not None and look_again[0] <= until:
            look(look_again[0])

    now, tag = 0.0, 0
    for time, op, size in script:
        pass_time(time)
        now = time
        if op == "request":
            if size > limit:
                outcome.refused.append(tag)
            else:
                line.append((tag, size))
                look(now)
            tag += 1
        elif op == RETURNS[rule]:
            returned[0] += min(size, in_use(now))
            look(now)
        elif op != "advance":
            raise ValueError(f"{op!r} is not a step of the {rule} rule")
        outcome.in_use.append(in_use(now))
    pass_time(float("inf"))
    outcome.waiting = [tag for tag, _ in line]
    return outcome
