#!/usr/bin/env python
"""Security parameters in action (paper sections 2.1 and 2.5).

The same private, authenticated ST RMS is created over three network
flavors.  The subtransport layer picks the optimal mechanism each time:
software encryption only where the medium provides nothing.  An
eavesdropper taps the broadcast segment to prove the point, and an
impostor's forged components are rejected: one by the MAC, one with its
security flags stripped by the receiver's negotiated plan.

Run:  python examples/secure_channel.py
"""

from repro.core.params import DelayBound, DelayBoundType, RmsParams
from repro.dash.system import DashSystem

SECRET = b"launch codes: 0000"


def secure_params() -> RmsParams:
    return RmsParams(
        privacy=True,
        authentication=True,
        capacity=16 * 1024,
        max_message_size=2048,
        delay_bound=DelayBound(0.1, 1e-5),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
    )


def run_network(label: str, **net_kwargs) -> None:
    system = DashSystem(seed=5)
    network = system.add_ethernet(**net_kwargs)
    alice = system.add_node("alice")
    bob = system.add_node("bob")

    captured = []
    network.add_sniffer(
        lambda frame: captured.append(bytes(frame.message.payload))
    )

    future = alice.st.create_st_rms("bob", port="secure",
                                    desired=secure_params(),
                                    acceptable=secure_params())
    system.run(until=system.now + 2.0)
    rms = future.result()
    received = []
    rms.port.set_handler(lambda m: received.append(m.payload))
    rms.send(SECRET)
    system.run(until=system.now + 1.0)

    leaked = any(SECRET in blob for blob in captured)
    plan = rms.plan
    print(f"{label:<34} sw-encrypt={str(plan.encrypt):<5} "
          f"sw-mac={str(plan.mac):<5} delivered={received[0] == SECRET} "
          f"sniffer-sees-plaintext={leaked}")


def main() -> None:
    print("the client always asks for privacy + authentication;")
    print("the ST runs crypto only where the medium provides nothing:\n")
    run_network("trusted machine room", trusted=True)
    run_network("link-level encryption hardware", trusted=False,
                link_encryption=True)
    run_network("hostile shared segment", trusted=False)

    # Impersonation attempt on the hostile network: a forged component
    # with a bogus MAC must be discarded, never delivered.
    system = DashSystem(seed=6)
    system.add_ethernet(trusted=False)
    alice = system.add_node("alice")
    bob = system.add_node("bob")
    future = alice.st.create_st_rms("bob", port="secure",
                                    desired=secure_params(),
                                    acceptable=secure_params())
    system.run(until=system.now + 2.0)
    rms = future.result()
    delivered = []
    rms.port.set_handler(lambda m: delivered.append(m.payload))

    from repro.subtransport.wire import encode_bundle
    from repro.core.message import Label, Message

    # A component is (st_rms_id, seq, flags, payload, send_time,
    # frag_offset, frag_total).  The first forgery carries the stream's
    # flags and a wrong MAC tag; the second strips the flags, claiming
    # the plaintext needs nothing undone.  The receiver undoes the plan
    # it negotiated, not what the flags say, so both are dropped.
    evil = b"evil payload"
    forgeries = [
        (rms.rms_id, 999, rms.security.flags, evil + b"\x00" * 8,
         system.now, 0, 0),
        (rms.rms_id, 1000, 0, evil, system.now, 0, 0),
    ]
    # Inject the forgeries straight onto bob's data path.
    for forged in forgeries:
        bob.st._data_arrived(None, Message(encode_bundle([forged]),
                                           source=Label("mallory", "st-data")))
    system.run(until=system.now + 1.0)
    print(f"\nforged message delivered: {len(delivered) > 0} "
          f"(auth drops at bob: {bob.st.stats.auth_drops})")


if __name__ == "__main__":
    main()
