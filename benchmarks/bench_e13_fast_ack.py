"""E13 -- Section 3.2: the ST fast-acknowledgement service.

Claim: "the subtransport layer provides a 'fast acknowledgement' service
to reduce response time and RMS establishment overhead."  A reliable
record stream that uses fast acks needs no reverse ack RMS (fewer
network RMS setups) and sees acknowledgements sooner, shortening the
time until the sender knows everything arrived.
"""

from __future__ import annotations

from common import Table, bench_main, build_lan, make_run, report
from repro.core.params import RmsParams
from repro.transport.flowcontrol import FlowControlMode
from repro.transport.stream import StreamConfig, open_stream

RECORDS = 40
RECORD_SIZE = 512


def run_case(fast_ack: bool, seed: int = 14):
    system = build_lan(seed=seed)
    network = system.networks["ether0"]
    config = StreamConfig(
        reliable=True,
        flow_control=FlowControlMode.CAPACITY_ONLY,
        # A record size turns on fast acks.
        record_size=RECORD_SIZE if fast_ack else None,
        ack_every=1,
    )
    desired = RmsParams(capacity=16 * 1024, max_message_size=8 * 1024)
    future = open_stream(system.context, system.nodes["a"].st,
                         system.nodes["b"].st, desired, config)
    system.run(until=system.now + 3.0)
    session = future.result()
    setups_before_traffic = network.setup_count

    consumed = []

    def consumer():
        for _ in range(RECORDS):
            message = yield session.receive()
            consumed.append(message)

    system.context.spawn(consumer())
    start = system.now
    for index in range(RECORDS):
        session.send(bytes([index % 256]) * RECORD_SIZE)
    all_acked_at = {"t": None}

    def watcher():
        while not session.all_acked:
            yield 0.001
        all_acked_at["t"] = system.now

    system.context.spawn(watcher())
    system.run(until=system.now + 20.0)
    return {
        "mode": "fast ack" if fast_ack else "ack RMS",
        "st_rms_used": 1 if fast_ack else 2,
        "network_setups": setups_before_traffic,
        "consumed": len(consumed),
        "all_acked_ms": ((all_acked_at["t"] or system.now) - start) * 1e3,
    }


def run_experiment():
    return [run_case(False), run_case(True)]


def render(rows) -> Table:
    table = Table(
        f"E13: reliable {RECORD_SIZE}B record stream, reverse ack RMS vs "
        "ST fast acknowledgements (section 3.2)",
        ["mode", "ST RMSs", "net setups at open", "records",
         "all-acked (ms)"],
    )
    for row in rows:
        table.add_row(row["mode"], row["st_rms_used"], row["network_setups"],
                      row["consumed"], row["all_acked_ms"])
    return table


def test_e13_fast_ack(run_once):
    rows = run_once(run_experiment)
    report("e13_fast_ack", render(rows))
    ack_rms, fast = rows
    assert ack_rms["consumed"] == fast["consumed"] == RECORDS
    # Fast acks eliminate the reverse stream and its establishment work.
    assert fast["st_rms_used"] < ack_rms["st_rms_used"]
    assert fast["network_setups"] < ack_rms["network_setups"]
    # And the sender learns of delivery at least as fast.
    assert fast["all_acked_ms"] <= ack_rms["all_acked_ms"] * 1.1


run = make_run("e13_fast_ack", run_experiment, render)


if __name__ == "__main__":
    raise SystemExit(bench_main(run))
