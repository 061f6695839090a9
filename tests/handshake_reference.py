"""A list-and-dict model of the ST control handshake (section 3.2).

The oracle for ``repro.subtransport.control``: it shares no code with it
(flags and if-chains here, a transition table there) and imports nothing
from ``repro.subtransport``.  One *endpoint* is a dict holding what one
host knows about one peer; the functions below are the events that can
happen to it.  Everything an endpoint does is appended to
``endpoint["did"]``:

``("send", fields)``      a control frame, fields in wire order
``("layer", kind)``       a stream frame handed to the layer
``("reply", req)``        a reply handed to the waiting request
``("drop", "auth")``      ``auth_drops``: a nonce this host never issued
``("drop", "control")``   ``control_drops``: unknown kind, a kind out of
                          its state, a required field missing
``("up",)``               waiters on the channel resolved
``("failed",)``           waiters failed: the auth1 retries ran out

The rules, in prose.  A host's outgoing RMS comes up when it first has
something to send; unless the medium is trusted it then sends ``auth1``
with a fresh ``na`` (once: not while one is out, not when authenticated)
and repeats it on each retry tick, ``max_retries`` times.  When those
run out the waiters fail and the RMS stays up; the layer asking for the
channel again starts another handshake on it, with a fresh ``na``.  Every
``auth1`` received is answered with ``auth2`` echoing ``na`` and
carrying a fresh ``nb``; the last ``max_retries + 1`` of those stay
outstanding.  ``auth2`` echoing this host's ``na`` is answered with
``auth3`` echoing ``nb`` -- every time, the first ``auth3`` may be lost
-- and authenticates the peer.  ``auth3`` carrying an outstanding ``nb``
authenticates the peer and retires the outstanding ones; with none
outstanding and the peer not authenticated it is out of state.  Stream
frames and replies pass in every state.
"""

from __future__ import annotations

REQUIRED = {
    "auth1": ["na"],
    "auth2": ["na", "nb"],
    "auth3": ["nb"],
    "st_create": ["st_id", "req"],
    "st_accept": ["req"],
    "st_reject": ["req"],
    "st_close": ["st_id"],
    "fast_ack": ["st_id", "seq"],
}
REPLIES = ["st_accept", "st_reject"]


def endpoint(name, nonces, trusted=False, max_retries=5):
    """``nonces`` yields the 48-bit values this host will draw, in order."""
    return {
        "name": name,
        "nonces": iter(nonces),
        "trusted": trusted,
        "max_retries": max_retries,
        "connected": False,  # the outgoing RMS exists
        "authenticated": False,
        "initiating": False,  # an auth1 of ours awaits its auth2
        "na": None,
        "retries": 0,
        "outstanding": [],  # nbs awaiting their auth3
        "did": [],
    }


def _send(ep, fields):
    ep["did"].append(("send", fields))
    connect(ep)


def connect(ep):
    """Something needs the outgoing RMS: it comes up, queued frames go
    out (they are in ``did`` already), then the handshake starts."""
    if ep["connected"]:
        return
    ep["connected"] = True
    if ep["trusted"]:
        ep["authenticated"] = True
        ep["did"].append(("up",))
        return
    challenge(ep)


def ensure(ep):
    """The layer asks for the authenticated channel: the outgoing RMS
    comes up at need; on one that is up already a handshake starts."""
    if not ep["connected"]:
        connect(ep)
    elif not ep["trusted"]:
        challenge(ep)


def challenge(ep):
    if ep["initiating"] or ep["authenticated"]:
        return
    ep["initiating"] = True
    ep["retries"] = 0
    ep["na"] = next(ep["nonces"])
    _send(ep, {"op": "auth1", "from": ep["name"], "na": ep["na"]})


def retry_tick(ep):
    """The auth1 retry timer fired."""
    if not ep["initiating"] or ep["authenticated"]:
        return
    ep["retries"] += 1
    if ep["retries"] > ep["max_retries"]:
        ep["initiating"] = False
        ep["did"].append(("failed",))
    else:
        _send(ep, {"op": "auth1", "from": ep["name"], "na": ep["na"]})


def deliver(ep, fields):
    """A frame whose tag verified arrives."""
    kind = fields.get("op")
    if not isinstance(kind, str) or kind not in REQUIRED:
        ep["did"].append(("drop", "control"))
        return
    for name in REQUIRED[kind]:
        value = fields.get(name)
        if not isinstance(value, int) or isinstance(value, bool):
            ep["did"].append(("drop", "control"))
            return
    if kind == "auth1":
        nb = next(ep["nonces"])
        ep["outstanding"] = (ep["outstanding"] + [nb])[-(ep["max_retries"] + 1):]
        _send(ep, {"op": "auth2", "from": ep["name"],
                   "na": fields["na"], "nb": nb})
    elif kind == "auth2":
        if ep["na"] is None or fields["na"] != ep["na"]:
            ep["did"].append(("drop", "auth"))
            return
        _send(ep, {"op": "auth3", "from": ep["name"], "nb": fields["nb"]})
        ep["authenticated"] = True
        ep["initiating"] = False
        ep["did"].append(("up",))
    elif kind == "auth3":
        if not ep["outstanding"] and not ep["authenticated"]:
            ep["did"].append(("drop", "control"))
        elif fields["nb"] not in ep["outstanding"]:
            ep["did"].append(("drop", "auth"))
        else:
            ep["outstanding"] = []
            ep["authenticated"] = True
            ep["did"].append(("up",))
    elif kind in REPLIES:
        ep["did"].append(("reply", fields["req"]))
    else:
        ep["did"].append(("layer", kind))


def run_pair(a, b):
    """Deliver every frame either endpoint sent, in order, until both
    fall silent; returns the frames as ``(sender name, fields)``."""
    wire = []
    cursor = {a["name"]: 0, b["name"]: 0}
    progress = True
    while progress:
        progress = False
        for source, sink in ((a, b), (b, a)):
            sent = [item[1] for item in source["did"] if item[0] == "send"]
            while cursor[source["name"]] < len(sent):
                fields = sent[cursor[source["name"]]]
                cursor[source["name"]] += 1
                wire.append((source["name"], fields))
                deliver(sink, dict(fields))
                progress = True
                sent = [item[1] for item in source["did"] if item[0] == "send"]
    return wire
