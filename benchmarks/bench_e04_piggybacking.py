"""E4 -- Figure 4 / sections 4.2-4.3.1: multiplexing and piggybacking.

Claim: multiplexing several ST RMSs onto one network RMS lets the ST
piggyback messages -- "combined and sent as a single network message,
with a possible reduction in overhead" -- while the deadline rules keep
every message within its ST delay bound.
"""

from __future__ import annotations

from common import Table, bench_main, build_lan, make_run, open_st_rms
from repro.core.params import DelayBound, DelayBoundType, RmsParams
from repro.obs.stats import DelayRecorder
from repro.subtransport.config import StConfig

STREAMS = 6
MESSAGES_PER_STREAM = 100
SIZE = 64
PERIOD = 0.01


def run_case(piggyback: bool, window: float = 0.02, seed: int = 4):
    config = StConfig(
        piggyback_enabled=piggyback,
        piggyback_window_cap=window,
    )
    system = build_lan(seed=seed, st_config=config)
    params = RmsParams(
        capacity=4096,
        max_message_size=512,
        delay_bound=DelayBound(0.08, 1e-5),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
    )
    streams = [
        open_st_rms(system, "a", "b", params=params, port=f"pb{i}")
        for i in range(STREAMS)
    ]
    recorders = [DelayRecorder() for _ in streams]
    for rms, recorder in zip(streams, recorders):
        rms.port.set_handler(recorder.record_message)
    network = system.networks["ether0"]
    frames_before = network.segment.stats.frames_transmitted
    bytes_before = network.segment.stats.bytes_transmitted

    def producer(rms, offset):
        yield offset  # desynchronize slightly
        for index in range(MESSAGES_PER_STREAM):
            rms.send(bytes([index % 256]) * SIZE)
            yield PERIOD

    for index, rms in enumerate(streams):
        system.context.spawn(producer(rms, index * 0.0005))
    system.run(until=system.now + MESSAGES_PER_STREAM * PERIOD + 2.0)

    st = system.nodes["a"].st
    total_delivered = sum(r.stats.messages_delivered for r in streams)
    total_late = sum(r.stats.messages_late for r in streams)
    delays = [d for recorder in recorders for d in recorder.delays]
    return {
        "piggyback": piggyback,
        "delivered": total_delivered,
        "late": total_late,
        "frames": network.segment.stats.frames_transmitted - frames_before,
        "wire_bytes": network.segment.stats.bytes_transmitted - bytes_before,
        "components_per_bundle": st.stats.components_per_bundle,
        "mean_delay_ms": 1e3 * sum(delays) / max(len(delays), 1),
    }


def run_experiment():
    return [run_case(False), run_case(True)]


def render(rows) -> Table:
    table = Table(
        "E4: piggybacking small messages from 6 ST RMSs (Figure 4)",
        ["piggyback", "delivered", "late", "frames on wire", "wire bytes",
         "msgs/bundle", "mean delay (ms)"],
    )
    for row in rows:
        table.add_row(
            "on" if row["piggyback"] else "off", row["delivered"],
            row["late"], row["frames"], row["wire_bytes"],
            row["components_per_bundle"], row["mean_delay_ms"],
        )
    return table


def check(rows) -> None:
    off, on = rows
    total = STREAMS * MESSAGES_PER_STREAM
    assert off["delivered"] == on["delivered"] == total
    # Piggybacking bundles messages and cuts frames and wire bytes.
    assert on["components_per_bundle"] > 1.5
    assert on["frames"] < 0.7 * off["frames"]
    assert on["wire_bytes"] < off["wire_bytes"]
    # The deadline rules keep everything within the ST delay bound.
    assert on["late"] == 0
    # Queueing for companions costs some latency, but bounded by the
    # piggyback window.
    assert on["mean_delay_ms"] < off["mean_delay_ms"] + 25.0


run = make_run("e04_piggybacking", run_experiment, render, check)


if __name__ == "__main__":
    raise SystemExit(bench_main(run))
