"""The oracle a reliable stream's retransmit and ack discipline (sections
2.5 and 4.4) is checked against.

Written the slow, obvious way and sharing nothing with ``src/``: no
event loop, no timer, no import from ``repro``.  Pending work is a plain
list of ``(time, order, action, args)`` that is sorted before each step;
the unacknowledged records and the receive buffer are dicts.

The world is one simplex stream from a sender to a receiver.  A frame
arrives ``latency`` seconds after it is sent unless the script drops it:
records go forward, acknowledgements come back.  Nothing gates a send:
an offered record goes on the wire at once.  The sender:

* numbers each offered record and keeps it until it is acknowledged;
  sending it starts the retransmission timer unless the timer runs;
* the timer runs ``timeout`` seconds.  When it expires with records
  unacknowledged, that is one more timeout without progress: past
  ``max_retransmits`` of them the stream fails and sends nothing more;
  otherwise the oldest unacknowledged record is sent again and the
  timer starts again;
* progress resets the count: a cumulative ack above every earlier one,
  or any fast ack;
* an ack that leaves nothing unacknowledged stops the timer; one that
  leaves records starts it unless it runs (a running timer is never
  restarted);
* a cumulative ack ``c`` retires every record up to ``c``; the ``k``-th
  fast ack (from 1) retires record ``k - 1``, whatever arrived.

The receiver:

* a record below the next expected number, or one already buffered, is
  a duplicate: counted, and acknowledged at once;
* any other record is buffered, every record now in order is delivered,
  and an ack goes out once ``ack_every`` deliveries have gathered since
  the last ack;
* an ack carries the highest in-order number;
* with fast acks the stream sends no acks of its own: the layer below
  answers each arriving record, duplicate or not, with one fast ack.

A *script* is ``steps`` -- ``(time, count)`` with non-decreasing times:
offer ``count`` records then -- plus ``drops``, a set of ``("data", seq,
n)`` (the ``n``-th transmission, from 0, of record ``seq``), ``("ack",
i)`` and ``("fast", i)`` (the ``i``-th ack / fast ack sent, from 0).
"""

from __future__ import annotations

STATS = ("messages_sent", "messages_delivered", "retransmissions",
         "acks_sent", "duplicates_discarded")


class Outcome:
    def __init__(self):
        #: (time, kind, key, n, dropped) in sending order: key is the
        #: record number of a "data" frame, the ack's index (from 0) for
        #: "ack" and "fast"; n counts a record's transmissions from 0
        #: (always 0 for an ack)
        self.transmissions = []
        self.deliveries = []  # (time, seq)
        self.failed_at = None
        self.stats = dict.fromkeys(STATS, 0)
        self.unacked = []  # records still unacknowledged at the end


def run_script(steps, drops=frozenset(), *, latency, timeout,
               max_retransmits, ack_every, fast_ack):
    """Play the script; return its :class:`Outcome`."""
    out = Outcome()
    agenda = []
    counter = [0]
    unacked = {}  # seq -> True, the records not yet acknowledged
    sender = {"next": 0, "cumulative": -1, "count": 0, "timer": None,
              "failed": False, "fast_acks": 0}
    receiver = {"expected": 0, "buffer": set(), "since_ack": 0}
    sent = {}  # seq -> transmissions so far
    acks = {"ack": 0, "fast": 0}  # acks of each kind sent so far

    def at(time, action, *args):
        counter[0] += 1
        agenda.append((time, counter[0], action, args))

    def transmit(now, seq):
        n = sent.get(seq, 0)
        sent[seq] = n + 1
        dropped = ("data", seq, n) in drops
        out.transmissions.append((now, "data", seq, n, dropped))
        if not dropped:
            at(now + latency, data_arrives, seq)

    def acknowledge(now, kind, value):
        index = acks[kind]
        acks[kind] += 1
        dropped = (kind, index) in drops
        out.transmissions.append((now, kind, index, 0, dropped))
        if not dropped:
            at(now + latency, ack_arrives, kind, value)

    def start_timer(now):
        if sender["timer"] is not None or not unacked:
            return
        counter[0] += 1
        sender["timer"] = counter[0]
        at(now + timeout, expired, counter[0])

    def offer(now):
        if sender["failed"]:
            return  # a failed stream refuses the record
        seq = sender["next"]
        sender["next"] += 1
        unacked[seq] = True
        transmit(now, seq)
        out.stats["messages_sent"] += 1
        start_timer(now)

    def expired(now, timer_id):
        if sender["timer"] != timer_id:
            return  # stopped meanwhile
        sender["timer"] = None
        if not unacked or sender["failed"]:
            return
        sender["count"] += 1
        if sender["count"] > max_retransmits:
            sender["failed"] = True
            out.failed_at = now
            return
        out.stats["retransmissions"] += 1
        transmit(now, min(unacked))
        start_timer(now)

    def data_arrives(now, seq):
        if fast_ack:
            acknowledge(now, "fast", None)
        if seq < receiver["expected"] or seq in receiver["buffer"]:
            out.stats["duplicates_discarded"] += 1
            send_ack(now)
            return
        receiver["buffer"].add(seq)
        while receiver["expected"] in receiver["buffer"]:
            receiver["buffer"].discard(receiver["expected"])
            out.deliveries.append((now, receiver["expected"]))
            out.stats["messages_delivered"] += 1
            receiver["expected"] += 1
            receiver["since_ack"] += 1
        if receiver["since_ack"] >= ack_every:
            send_ack(now)

    def send_ack(now):
        if fast_ack:
            return
        receiver["since_ack"] = 0
        out.stats["acks_sent"] += 1
        acknowledge(now, "ack", receiver["expected"] - 1)

    def ack_arrives(now, kind, value):
        if kind == "fast":
            sender["fast_acks"] += 1
            unacked.pop(sender["fast_acks"] - 1, None)
            sender["count"] = 0
        else:
            for seq in list(unacked):
                if seq <= value:
                    del unacked[seq]
            if value > sender["cumulative"]:
                sender["cumulative"] = value
                sender["count"] = 0
        if not unacked:
            sender["timer"] = None
        elif kind == "ack":
            start_timer(now)

    def step(now, count):
        for _ in range(count):
            offer(now)

    for time, count in steps:
        at(time, step, count)
    while agenda:
        agenda.sort(key=lambda entry: entry[:2])
        time, _, action, args = agenda.pop(0)
        action(time, *args)
    out.unacked = sorted(unacked)
    return out
