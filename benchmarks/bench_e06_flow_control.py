"""E6 -- Figure 5 / section 4.4: factored flow-control options.

Claim: RMS capacity enforcement, receiver flow control, and sender flow
control protect different buffer groups and are independently optional.
"Based on the values of RMS parameters it can be determined what flow
control mechanisms are needed, and unnecessary mechanisms can be
avoided."

Scenario A (fast receiver): capacity enforcement alone suffices; adding
receiver/sender flow control buys nothing.
Scenario B (slow receiver): without receiver flow control the receive
buffer overruns; with it, delivery is lossless.
"""

from __future__ import annotations

from common import Table, bench_main, build_lan, make_run
from repro.core.params import RmsParams
from repro.transport.flowcontrol import FlowControlMode
from repro.transport.stream import StreamConfig

MESSAGES = 60
SIZE = 1000
RECEIVE_BUFFER = 8 * 1024

CONFIGS = [
    ("none", FlowControlMode.NONE),
    ("capacity only", FlowControlMode.CAPACITY_ONLY),
    ("capacity+receiver", FlowControlMode.CAPACITY_AND_RECEIVER),
    ("end-to-end", FlowControlMode.END_TO_END),
]
DATA = RmsParams(capacity=16 * 1024, max_message_size=8 * 1024)


def run_case(label, mode, consume_rate, seed=6):
    system = build_lan(seed=seed)
    config = StreamConfig(
        reliable=False,  # show raw drops rather than masking via retransmit
        flow_control=mode,
        receive_buffer=RECEIVE_BUFFER,
        sender_port_limit=8,
    )
    handle = system.connect("a", "b", kind="stream", desired=DATA,
                            config=config)
    system.run(until=system.now + 2.0)
    session = handle.established.result()
    consumed = []
    finish = {"at": None}
    start = system.now

    def consumer():
        while len(consumed) < MESSAGES:
            message = yield session.receive()
            consumed.append(message)
            if consume_rate is not None:
                yield 1.0 / consume_rate
        finish["at"] = system.now

    system.context.spawn(consumer())

    def producer():
        for index in range(MESSAGES):
            accepted = session.send(bytes([index % 256]) * SIZE)
            if not accepted.done:
                yield accepted

    system.context.spawn(producer())
    horizon = 40.0
    system.run(until=system.now + horizon)
    elapsed = (finish["at"] or system.now) - start
    return {
        "config": label,
        "consumer": "slow" if consume_rate else "fast",
        "delivered": session.stats.messages_delivered,
        "consumed": len(consumed),
        "overflow_drops": session.stats.receiver_overflow_drops,
        "goodput_kBps": len(consumed) * SIZE / max(elapsed, 1e-9) / 1e3,
    }


def run_experiment():
    rows = []
    for label, mode in CONFIGS:
        rows.append(run_case(label, mode, consume_rate=None))
    for label, mode in CONFIGS:
        rows.append(run_case(label, mode, consume_rate=25.0))
    return rows


def render(rows) -> Table:
    table = Table(
        "E6: Figure-5 flow-control options x receiver speed "
        f"(buffer {RECEIVE_BUFFER}B, unreliable stream)",
        ["config", "consumer", "delivered", "consumed", "overflow drops",
         "goodput (kB/s)"],
    )
    for row in rows:
        table.add_row(row["config"], row["consumer"], row["delivered"],
                      row["consumed"], row["overflow_drops"],
                      row["goodput_kBps"])
    return table


def check(rows) -> None:
    fast = {row["config"]: row for row in rows if row["consumer"] == "fast"}
    slow = {row["config"]: row for row in rows if row["consumer"] == "slow"}
    # Fast receiver: every configuration is lossless; the mechanisms
    # beyond capacity enforcement are unnecessary, not harmful.
    for row in fast.values():
        assert row["overflow_drops"] == 0
        assert row["consumed"] == MESSAGES
    # Slow receiver without receiver flow control overruns group-(3)
    # buffers; the receiver-protected configurations stay lossless.
    assert slow["none"]["overflow_drops"] > 0
    assert slow["capacity only"]["overflow_drops"] > 0
    assert slow["capacity+receiver"]["overflow_drops"] == 0
    assert slow["end-to-end"]["overflow_drops"] == 0
    assert slow["capacity+receiver"]["consumed"] == MESSAGES
    assert slow["end-to-end"]["consumed"] == MESSAGES


run = make_run("e06_flow_control", run_experiment, render, check)


if __name__ == "__main__":
    raise SystemExit(bench_main(run))
