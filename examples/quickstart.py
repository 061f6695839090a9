#!/usr/bin/env python
"""Quickstart: build a two-host DASH system and exchange messages.

Demonstrates the core loop of the library:

1. build a simulated system (one Ethernet, two DASH nodes);
2. open a session through ``DashSystem.connect`` with explicit RMS
   parameters;
3. send messages and observe delivery, delays, and failure notification;
4. make a request/reply call through an RKOM session, then close it.

Run:  python examples/quickstart.py
"""

from repro import DashSystem, DelayBound, DelayBoundType, RmsParams
from repro.obs import DelayRecorder


def main() -> None:
    # A deterministic simulation: same seed, same run, every time.
    system = DashSystem(seed=7)
    system.add_ethernet(trusted=True)
    alice = system.add_node("alice")
    bob = system.add_node("bob")

    # Connect the two nodes with explicit RMS parameters: 16 kB
    # capacity, 4 kB messages, 100 ms delay bound, best effort.
    params = RmsParams(
        capacity=16 * 1024,
        max_message_size=4 * 1024,
        delay_bound=DelayBound(0.1, 1e-5),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
    )
    session = system.connect(alice, bob, desired=params, acceptable=params,
                             port="demo")
    system.run(until=1.0)  # let the control channel + setup handshake run
    rms = session.established.result()
    print(f"created {rms.name} ({session.state.value})")
    print(f"  negotiated delay bound: {rms.params.delay_bound}")
    print(f"  implied bandwidth:      "
          f"{rms.params.implied_bandwidth() / 1e3:.1f} kB/s")

    # Receive by handler; messages preserve boundaries and order.  The
    # RMS counts deliveries; a client that wants delays records them.
    delays = DelayRecorder()

    def on_message(message):
        delays.record_message(message)
        print(f"  [{system.now * 1e3:8.3f} ms] bob got {message.size:5d} B "
              f"(delay {message.delay * 1e3:.3f} ms)")

    session.port.set_handler(on_message)

    session.send(b"hello DASH")
    session.send(b"x" * 3000)  # larger than the 1500 B MTU: ST fragments it
    system.run(until=2.0)

    # Request/reply through an RKOM session (section 3.3 of the paper).
    bob.rkom.register_handler("time", lambda payload, src: b"12:00 PST")
    rpc = system.connect(alice, bob, kind="rkom")
    reply = rpc.call("time")
    system.run(until=3.0)
    print(f"RKOM reply: {reply.result().decode()}")
    rpc.close()  # releases alice's two channel RMSs to bob

    # Failure notification is a basic RMS property; without resilience
    # the first failure is terminal.  (Pass resilience=True to connect()
    # for automatic retry, failover, and degradation instead.)
    session.on_state_change.listen(
        lambda s, old, new, reason: print(
            f"session {old.value} -> {new.value}: {reason}"
        )
    )
    system.networks["ether0"].segment.set_down()
    system.run(until=4.0)

    stats = rms.stats
    print(f"totals: sent={stats.messages_sent} "
          f"delivered={stats.messages_delivered} "
          f"mean delay={delays.summary().mean * 1e3:.3f} ms")


if __name__ == "__main__":
    main()
