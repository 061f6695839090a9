"""E11 -- Sections 4.4 and 5: congestion control, RMS vs TCP + quench.

Claim: "The capacity parameter of an RMS prevents overrunning buffers in
[the network] ...  In contrast, the flow control of TCP does not protect
gateway buffers; ICMP source quench messages provide an ad hoc and often
ineffective solution."  Four senders share one slow trunk through a
gateway with a small buffer.  Under the RMS stack, deterministic
admission turns excess demand away and admitted streams see no gateway
drops; under TCP-like senders with source quench, everyone is admitted
and the gateway sheds load by dropping packets that must be retransmitted.
"""

from __future__ import annotations

from common import Table, bench_main, build_wan, make_run
from repro.baselines.datagram import DatagramService
from repro.baselines.tcp import TcpConfig, TcpLikeConnection
from repro.core.params import DelayBound, DelayBoundType, RmsParams
from repro.errors import AdmissionError, NegotiationError
from repro.transport.flowcontrol import RateBasedEnforcer

SENDERS = 4
MESSAGES = 120
SIZE = 400
TRUNK_BW = 40_000.0  # bytes/second
TRUNK_BUFFER = 6 * 1024
DURATION = 20.0


def make_wan(seed, quench):
    return build_wan(
        seed=seed,
        senders=tuple(f"s{i}" for i in range(SENDERS)),
        receiver="z",
        trunk_bandwidth=TRUNK_BW,
        trunk_buffer=TRUNK_BUFFER,
        access_bandwidth=2.5e5,
        source_quench=quench,
    )


def run_rms(seed: int = 12):
    system = make_wan(seed, quench=False)
    internet = system.networks["internet0"]
    # Each sender asks for a deterministic stream of ~16 kB/s demand.
    params = RmsParams(
        capacity=1_600,
        max_message_size=SIZE,
        delay_bound=DelayBound(0.25, 5e-5),
        delay_bound_type=DelayBoundType.DETERMINISTIC,
    )
    admitted = []
    rejected = 0
    for index in range(SENDERS):
        st = system.nodes[f"s{index}"].st
        future = st.create_st_rms("z", port="flow", desired=params,
                                  acceptable=params)
        system.run(until=system.now + 1.0)
        if future.done and not future.failed:
            admitted.append(future.result())
        else:
            rejected += 1
            if future.done:
                try:
                    future.result()
                except (AdmissionError, NegotiationError):
                    pass
    start = system.now

    def producer(rms):
        enforcer = RateBasedEnforcer(system.context, rms.params)
        payload = b"\x11" * SIZE
        for _ in range(MESSAGES):
            enforcer.request(SIZE, lambda: rms.send(payload))
            yield rms.params.message_period()

    for rms in admitted:
        system.context.spawn(producer(rms))
    system.run(until=start + DURATION)
    delivered = sum(rms.stats.messages_delivered for rms in admitted)
    sent = sum(rms.stats.messages_sent for rms in admitted)
    return {
        "stack": "RMS (deterministic admission)",
        "flows_admitted": len(admitted),
        "flows_rejected": rejected,
        "gateway_drops": internet.total_gateway_drops(),
        "quenches": internet.quenches_sent,
        "delivered": delivered,
        "delivery_ratio": delivered / max(sent, 1),
        "goodput_kBps": delivered * SIZE / DURATION / 1e3,
    }


def run_tcp(seed: int = 12):
    system = make_wan(seed, quench=True)
    internet = system.networks["internet0"]
    receiver_dgram = DatagramService(
        system.context, system.nodes["z"].host, internet
    )
    connections = []
    for index in range(SENDERS):
        sender_dgram = DatagramService(
            system.context, system.nodes[f"s{index}"].host, internet
        )
        connections.append(
            TcpLikeConnection(
                system.context, sender_dgram, receiver_dgram,
                TcpConfig(mss=SIZE, retransmit_timeout=0.4),
            )
        )
    start = system.now

    def producer(connection):
        for index in range(MESSAGES):
            connection.send(bytes([index % 256]) * SIZE)
            yield 0.01

    for connection in connections:
        system.context.spawn(producer(connection))
    system.run(until=start + DURATION)
    delivered = sum(c.stats.segments_delivered for c in connections)
    sent = sum(c.stats.segments_sent for c in connections)
    retransmissions = sum(c.stats.retransmissions for c in connections)
    return {
        "stack": "TCP-like + source quench",
        "flows_admitted": SENDERS,
        "flows_rejected": 0,
        "gateway_drops": internet.total_gateway_drops(),
        "quenches": internet.quenches_sent,
        "delivered": delivered,
        "delivery_ratio": delivered / max(sent, 1),
        "goodput_kBps": delivered * SIZE / DURATION / 1e3,
        "retransmissions": retransmissions,
    }


def run_experiment():
    return [run_rms(), run_tcp()]


def render(rows) -> Table:
    table = Table(
        f"E11: {SENDERS} senders through a {TRUNK_BW / 1e3:.0f} kB/s trunk "
        f"with {TRUNK_BUFFER}B gateway buffer (section 4.4)",
        ["stack", "admitted", "rejected", "gateway drops", "quenches",
         "delivered", "delivery ratio", "goodput (kB/s)"],
    )
    for row in rows:
        table.add_row(row["stack"], row["flows_admitted"],
                      row["flows_rejected"], row["gateway_drops"],
                      row["quenches"], row["delivered"],
                      row["delivery_ratio"], row["goodput_kBps"])
    return table


def check(rows) -> None:
    rms, tcp = rows
    # RMS admission turns away what the trunk cannot carry, and what it
    # admits flows without a single gateway drop.
    assert rms["flows_rejected"] > 0
    assert rms["gateway_drops"] == 0
    assert rms["delivery_ratio"] > 0.999
    # TCP admits everyone; the gateway sheds load by dropping, quenches
    # fly, and delivered/sent reflects wasted retransmissions.
    assert tcp["gateway_drops"] > 0
    assert tcp["quenches"] > 0
    assert tcp["delivery_ratio"] < rms["delivery_ratio"]


run = make_run("e11_congestion", run_experiment, render, check)


if __name__ == "__main__":
    raise SystemExit(bench_main(run))
