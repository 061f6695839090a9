"""E1 -- Figure 1: one network-independent stack over multiple networks.

Claim: the DASH stack above the network-dependent interface is identical
for every network type; the same RKOM and stream client code runs over
the Ethernet simulator and the internetwork simulator, with performance
differences explained entirely by the media.
"""

from __future__ import annotations

from common import Table, bench_main, build_lan, build_wan, make_run
from repro.apps.rpcload import RpcWorkload
from repro.core.params import RmsParams


def run_network(kind: str, seed: int = 1):
    if kind == "ethernet":
        system = build_lan(seed=seed)
    else:
        system = build_wan(seed=seed, senders=("a",), receiver="b",
                           propagation=0.02)
    node_a, node_b = system.nodes["a"], system.nodes["b"]
    node_b.rkom.register_handler("echo", lambda payload, src: payload)

    rpc = RpcWorkload(system.context, node_a.rkom, "b",
                      calls_per_client=20, think_time=0.01)
    handle = system.connect("a", "b", kind="stream", desired=RmsParams(
        capacity=32 * 1024, max_message_size=4000))
    system.run(until=system.now + 5.0)
    session = handle.established.result()

    received = []
    finish = {"at": None}
    start = system.now

    def consumer():
        for _ in range(40):
            message = yield session.receive()
            received.append(message)
        finish["at"] = system.now

    system.context.spawn(consumer())
    for index in range(40):
        session.send(bytes([index % 256]) * 1000)
    system.run(until=system.now + 60.0)
    rpc_report = rpc.report()
    elapsed = (finish["at"] or system.now) - start
    return {
        "network": kind,
        "rpc_completed": rpc_report.calls_completed,
        "rpc_mean_ms": rpc_report.rtt.mean * 1e3,
        "stream_delivered": len(received),
        "goodput_kBps": session.stats.bytes_delivered / max(elapsed, 1e-9) / 1e3,
    }


def run_experiment():
    return [run_network("ethernet"), run_network("internet")]


def render(rows) -> Table:
    table = Table(
        "E1: identical workload over both network types (Figure 1)",
        ["network", "RPC done", "RPC mean (ms)", "stream msgs", "goodput (kB/s)"],
    )
    for row in rows:
        table.add_row(
            row["network"], row["rpc_completed"], row["rpc_mean_ms"],
            row["stream_delivered"], row["goodput_kBps"],
        )
    return table


def check(rows) -> None:
    ether, inet = rows
    # Both networks carry the full workload to completion.
    assert ether["rpc_completed"] == inet["rpc_completed"] == 20
    assert ether["stream_delivered"] == inet["stream_delivered"] == 40
    # The long-haul network is slower, as the media dictate.
    assert inet["rpc_mean_ms"] > ether["rpc_mean_ms"]
    assert inet["goodput_kBps"] < ether["goodput_kBps"]


run = make_run("e01_portability", run_experiment, render, check)


if __name__ == "__main__":
    raise SystemExit(bench_main(run))
