"""What a stream asks its two ST RMSs for (section 2.5).

A stream is asked for like every other channel, with ``desired``; the
stream derives the data RMS's desired and acceptable sets and the ack
RMS's from it.  The table pins every call form the experiments, the
example and the end-to-end workloads use against the sets the stream
asked for before ``desired`` was its one way in: literal values, not
values computed by the code under test.
"""

from __future__ import annotations

import pytest

from repro.core.params import DelayBound, DelayBoundType, RmsParams
from repro.dash.system import DashSystem
from repro.errors import ParameterError
from repro.subtransport.st import SubtransportLayer
from repro.transport.flowcontrol import FlowControlMode
from repro.transport.stream import StreamConfig, open_stream

UNBOUNDED = DelayBound(float("inf"), 0.0)


def requested(capacity, max_message_size, delay_bound):
    return RmsParams(
        capacity=capacity, max_message_size=max_message_size,
        delay_bound=delay_bound, delay_bound_type=DelayBoundType.BEST_EFFORT,
    )


def data_row(capacity, max_message_size, desired=UNBOUNDED,
             acceptable=UNBOUNDED, fast_ack=False):
    return ("data",
            requested(capacity, max_message_size, desired),
            requested(capacity, max_message_size, acceptable), fast_ack)


def ack_row(delay):
    return ("ack",
            requested(2048, 256, DelayBound(delay, 1e-6)),
            requested(2048, 256, DelayBound(delay * 4, 1e-5)), False)


GATING_ACKS = ack_row(0.05)
E2E = RmsParams(
    capacity=2048, max_message_size=512, delay_bound=DelayBound(0.5, 1e-4),
    delay_bound_type=DelayBoundType.BEST_EFFORT,
)
E6 = dict(reliable=False, receive_buffer=8 * 1024, sender_port_limit=8)
E13 = dict(reliable=True, flow_control=FlowControlMode.CAPACITY_ONLY,
           ack_every=1)
KB16 = RmsParams(capacity=16 * 1024, max_message_size=8 * 1024)

#: name -> (how the stream is opened, the create_st_rms calls it makes)
TABLE = {
    "e01": (
        dict(desired=RmsParams(capacity=32 * 1024, max_message_size=4000)),
        [data_row(32768, 4000), GATING_ACKS],
    ),
    "e06-end-to-end": (
        dict(desired=KB16, config=StreamConfig(
            flow_control=FlowControlMode.END_TO_END, **E6)),
        [data_row(16384, 8192), GATING_ACKS],
    ),
    "e06-none": (
        dict(desired=KB16, config=StreamConfig(
            flow_control=FlowControlMode.NONE, **E6)),
        [data_row(16384, 8192)],
    ),
    "e13-ack-rms": (
        dict(open_stream=True, desired=KB16, config=StreamConfig(**E13)),
        [data_row(16384, 8192), GATING_ACKS],
    ),
    "e13-fast-ack": (
        dict(open_stream=True, desired=KB16,
             config=StreamConfig(record_size=512, **E13)),
        [data_row(16384, 8192, fast_ack=True)],
    ),
    "e2e": (
        dict(desired=E2E, acceptable=E2E),
        [data_row(2048, 512, DelayBound(0.5, 2e-6), DelayBound(1.0, 1e-5)),
         GATING_ACKS],
    ),
    "default": (dict(), [data_row(65536, 8192), GATING_ACKS]),
    "reliability-acks-only": (
        dict(open_stream=True, config=StreamConfig(
            flow_control=FlowControlMode.NONE)),
        [data_row(65536, 8192), ack_row(1.0)],
    ),
}


def lan(trusted=True):
    system = DashSystem(seed=1)
    system.add_ethernet(trusted=trusted)
    system.add_node("a")
    system.add_node("b")
    return system


@pytest.mark.parametrize("name", sorted(TABLE))
def test_the_stream_asks_what_it_asked_before(name, monkeypatch):
    form, expected = TABLE[name]
    form = dict(form)
    calls = []
    create = SubtransportLayer.create_st_rms

    def recording(st, peer, port, desired, acceptable, fast_ack=False):
        calls.append((port.split("-")[1], desired, acceptable, fast_ack))
        return create(st, peer, port=port, desired=desired,
                      acceptable=acceptable, fast_ack=fast_ack)

    monkeypatch.setattr(SubtransportLayer, "create_st_rms", recording)
    system = lan()
    if form.pop("open_stream", False):
        future = open_stream(system.context, system.nodes["a"].st,
                             system.nodes["b"].st, form.get("desired"),
                             form.get("config"))
    else:
        future = system.connect("a", "b", kind="stream", **form).established
    system.run(until=3.0)
    future.result()
    assert calls == expected


def test_a_stream_keeps_the_security_it_was_asked_for():
    """Privacy and authentication reach the data RMS, authentication the
    ack RMS (a forged ack would open the window), over a medium that
    offers neither."""
    system = lan(trusted=False)
    desired = RmsParams(capacity=16 * 1024, max_message_size=4000,
                        privacy=True, authentication=True)
    session = system.connect("a", "b", kind="stream", desired=desired)
    system.run(until=3.0)
    stream = session.established.result()
    assert stream.data_rms.plan.encrypt and stream.data_rms.plan.mac
    assert stream.ack_rms.plan.mac
    assert session.desired.privacy and session.desired.authentication
    received = []
    session.receive().add_done_callback(
        lambda future: received.append(future.result()))
    session.send(b"sealed" * 100)
    system.run(until=system.now + 2.0)
    assert received == [b"sealed" * 100]


def test_a_stream_refuses_an_acceptable_set_of_its_own():
    """A stream derives its acceptable set; another one would be
    dropped."""
    system = lan()
    with pytest.raises(ParameterError):
        system.connect("a", "b", kind="stream", desired=KB16, acceptable=E2E)
    with pytest.raises(ParameterError):
        system.connect("a", "b", kind="stream", acceptable=E2E)
