#!/usr/bin/env python
"""Flow-control options on a bulk transfer (paper section 4.4, Figure 5).

Moves the same 60 kB through a stream session four times, once per
Figure-5 flow-control configuration, against a deliberately slow
consumer.  Watch the receive buffer overflow when receiver flow control
is missing, and the sender's IPC port push back under end-to-end
control.

Run:  python examples/bulk_transfer_flow_control.py
"""

from repro import DashSystem, FlowControlMode, RmsParams, StreamConfig

MESSAGES = 60
SIZE = 1000
CONSUME_RATE = 30.0  # messages/second -- slower than the network


def run_one(mode: FlowControlMode) -> dict:
    system = DashSystem(seed=33)
    system.add_ethernet(trusted=True)
    system.add_node("src")
    system.add_node("dst")
    config = StreamConfig(
        reliable=False,  # let missing flow control show up as loss
        flow_control=mode,
        receive_buffer=8 * 1024,
        sender_port_limit=8,
    )
    handle = system.connect(
        "src", "dst", kind="stream", config=config,
        desired=RmsParams(capacity=16 * 1024, max_message_size=8 * 1024))
    system.run(until=system.now + 2.0)
    session = handle.established.result()
    consumed = []

    def consumer():
        while len(consumed) < MESSAGES:
            message = yield session.receive()
            consumed.append(message)
            yield 1.0 / CONSUME_RATE

    def producer():
        for index in range(MESSAGES):
            accepted = session.send(bytes([index % 256]) * SIZE)
            if not accepted.done:
                yield accepted  # sender flow control engaged

    system.context.spawn(consumer())
    system.context.spawn(producer())
    system.run(until=system.now + 30.0)
    return {
        "mode": mode.value,
        "consumed": len(consumed),
        "dropped": session.stats.receiver_overflow_drops,
        "sender_blocked": (
            session.tx_port.blocked_puts if session.tx_port is not None else 0
        ),
    }


def main() -> None:
    cases = [
        FlowControlMode.NONE,
        FlowControlMode.CAPACITY_ONLY,
        FlowControlMode.CAPACITY_AND_RECEIVER,
        FlowControlMode.END_TO_END,
    ]
    print(f"slow consumer at {CONSUME_RATE:.0f} msg/s, "
          f"{MESSAGES} x {SIZE} B offered\n")
    print(f"{'configuration':<20} {'consumed':>8} {'dropped':>8} "
          f"{'sender blocked':>14}")
    for mode in cases:
        row = run_one(mode)
        print(f"{row['mode']:<20} {row['consumed']:>8} {row['dropped']:>8} "
              f"{row['sender_blocked']:>14}")
    print("\nwithout receiver flow control the receive buffer overruns;")
    print("end-to-end control also pushes back on the producing process.")


if __name__ == "__main__":
    main()
