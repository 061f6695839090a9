"""E9 -- Sections 1 and 3.3: RKOM and streams vs the classic baselines.

Two claims:

1. RKOM's channel rides low-delay RMSs, so under load its requests get
   deadline-priority queueing that a datagram RPC (no deadlines) cannot
   have -- "the RMS features serve to optimize request/reply
   performance."
2. "Request/reply communication primitives will not be sufficient,
   because they cannot efficiently provide stream-style communication
   ... on high-delay long-distance networks": a closed-loop
   request/reply carrying media packets is RTT-bound, while an RMS
   stream pipelines.
"""

from __future__ import annotations

from common import Table, bench_main, build_lan, build_wan, make_run, open_st_rms
from repro.apps.rpcload import RpcWorkload
from repro.baselines.datagram import DatagramService
from repro.baselines.rpc import DatagramRpc
from repro.core.params import DelayBound, DelayBoundType, RmsParams


def run_rpc_under_load(kind: str, seed: int = 9):
    """Part 1: RPC latency with a bulk sender congesting the segment."""
    system = build_lan(seed=seed)
    node_a, node_b = system.nodes["a"], system.nodes["b"]
    network = system.networks["ether0"]
    if kind == "rkom":
        service_a = node_a.rkom
        node_b.rkom.register_handler("echo", lambda payload, src: payload)
    else:
        dgram_a = DatagramService(system.context, node_a.host, network)
        dgram_b = DatagramService(system.context, node_b.host, network)
        service_a = DatagramRpc(system.context, dgram_a)
        rpc_b = DatagramRpc(system.context, dgram_b)
        rpc_b.register_handler("echo", lambda payload, src: payload)
    # Warm the path before applying load.
    warm = service_a.call("b", "echo", b"warm")
    system.run(until=system.now + 5.0)
    assert not warm.failed
    # Bulk high-delay traffic from a to b congests the segment.
    bulk_params = RmsParams(
        capacity=96 * 1024,
        max_message_size=4000,
        delay_bound=DelayBound(2.0, 1e-5),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
    )
    bulk = open_st_rms(system, "a", "b", params=bulk_params, port="bulk")

    def bulk_producer():
        # Bursty bulk: saturating bursts with short gaps, so the
        # deadline-less baseline completes (slowly) rather than starving.
        while True:
            for _ in range(20):
                bulk.send(b"\xAA" * 1400)
            yield 0.035

    bulk_process = system.context.spawn(bulk_producer())
    workload = RpcWorkload(system.context, service_a, "b",
                           calls_per_client=40, think_time=0.01)
    system.run(until=system.now + 30.0)
    bulk_process.stop()
    rtt = workload.report().rtt.scaled(1e3)
    return {
        "system": "RKOM (deadline RMS)" if kind == "rkom" else
                  "datagram RPC (no deadlines)",
        "completed": workload.report().calls_completed,
        "p50_ms": rtt.p50,
        "p95_ms": rtt.p95,
    }


VOICE_PACKETS = 150
VOICE_PERIOD = 0.02


def run_media_transport(kind: str, seed: int = 10):
    """Part 2: 50 pkt/s voice over a 100 ms-RTT path, stream vs RPC."""
    system = build_wan(seed=seed, propagation=0.05, senders=("a",),
                       receiver="b")
    node_a, node_b = system.nodes["a"], system.nodes["b"]
    delivered = {"n": 0, "last": None}
    start = None
    if kind == "stream":
        params = RmsParams(
            capacity=16 * 1024,
            max_message_size=512,
            delay_bound=DelayBound(0.3, 1e-4),
            delay_bound_type=DelayBoundType.BEST_EFFORT,
        )
        rms = open_st_rms(system, "a", "b", params=params, port="voice")

        def on_message(message):
            delivered["n"] += 1
            delivered["last"] = system.now

        rms.port.set_handler(on_message)
        start = system.now

        def producer():
            for index in range(VOICE_PACKETS):
                rms.send(bytes([index % 256]) * 160)
                yield VOICE_PERIOD

        system.context.spawn(producer())
    else:
        node_b.rkom.register_handler("pkt", lambda payload, src: b"")
        start = system.now

        def producer():
            # Closed loop: each packet is a request awaiting its reply,
            # as a request/reply-only kernel would deliver a stream.
            for index in range(VOICE_PACKETS):
                try:
                    yield node_a.rkom.call("b", "pkt", bytes([index % 256]) * 160)
                except Exception:
                    continue
                delivered["n"] += 1
                delivered["last"] = system.now

        system.context.spawn(producer())
    system.run(until=system.now + 60.0)
    span = (delivered["last"] or system.now) - start
    achieved = delivered["n"] / max(span, 1e-9)
    return {
        "transport": "RMS stream" if kind == "stream" else "request/reply",
        "delivered": delivered["n"],
        "achieved_pps": achieved,
        "needed_pps": 1.0 / VOICE_PERIOD,
    }


def run_experiment():
    return (
        [run_rpc_under_load("rkom"), run_rpc_under_load("dgram")],
        [run_media_transport("stream"), run_media_transport("rpc")],
    )


def render(results):
    rpc_rows, media_rows = results
    first = Table(
        "E9a: RPC latency under bulk congestion (section 3.3)",
        ["system", "completed", "p50 (ms)", "p95 (ms)"],
    )
    for row in rpc_rows:
        first.add_row(row["system"], row["completed"], row["p50_ms"],
                      row["p95_ms"])
    second = Table(
        "E9b: 50 pkt/s voice over a ~100 ms-RTT path (section 1)",
        ["transport", "delivered", "achieved pkt/s", "needed pkt/s"],
    )
    for row in media_rows:
        second.add_row(row["transport"], row["delivered"],
                       row["achieved_pps"], row["needed_pps"])
    return first, second


def check(results) -> None:
    rpc_rows, media_rows = results
    rkom, dgram = rpc_rows
    # Deadline-scheduled RKOM stays fast under congestion; the
    # deadline-less baseline queues behind bulk.
    assert rkom["completed"] == 40
    assert dgram["completed"] >= 30
    assert dgram["p95_ms"] > 0
    assert rkom["p95_ms"] < 0.6 * dgram["p95_ms"]
    stream, rpc = media_rows
    # The stream sustains the media rate; closed-loop request/reply is
    # RTT-bound far below it.
    assert stream["achieved_pps"] > 0.9 * stream["needed_pps"]
    assert rpc["achieved_pps"] < 0.5 * rpc["needed_pps"]


run = make_run("e09_rkom_vs_baselines", run_experiment, render, check)


if __name__ == "__main__":
    raise SystemExit(bench_main(run))
