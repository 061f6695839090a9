"""E10 -- Section 4.3: choosing the ST maximum message size.

Claim: "A maximum message size is chosen with the object of maximizing
potential throughput based on the combination of network RMS error rate
and context switch time."  Small ST messages pay per-message protocol
and context-switch overhead; large ones amplify loss because the ST does
not retransmit fragments -- one corrupted fragment discards the whole
message.  Throughput therefore peaks at an intermediate size.
"""

from __future__ import annotations

from common import Table, bench_main, build_lan, make_run, open_st_rms
from repro.core.params import DelayBound, DelayBoundType, RmsParams

TOTAL_BYTES = 600_000
BIT_ERROR_RATE = 4e-6  # ~4.6% per 1500B frame
SIZES = [250, 1_000, 3_000, 6_000, 12_000]


def run_size(message_size: int, seed: int = 11):
    system = build_lan(
        seed=seed,
        link_checksum=False,  # ST must checksum in software
        bit_error_rate=BIT_ERROR_RATE,
    )
    params = RmsParams(
        capacity=64 * 1024,
        max_message_size=message_size,
        delay_bound=DelayBound(0.5, 1e-5),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
    )
    rms = open_st_rms(system, "a", "b", params=params,
                      port=f"frag{message_size}")
    messages = TOTAL_BYTES // message_size
    delivered = {"bytes": 0, "last": None}

    def on_message(message):
        delivered["bytes"] += message.size
        delivered["last"] = system.now

    rms.port.set_handler(on_message)
    start = system.now
    sender_cpu_before = system.nodes["a"].cpu.busy_time
    switches_before = system.nodes["a"].cpu.context_switches

    def producer():
        # Paced by *wire* bytes just below the 1.25 MB/s line rate, so
        # per-message overhead and corruption -- not congestion -- set
        # the goodput.  Each fragment costs a subheader plus framing.
        frag_payload = 1500 - 2 - 22 - 8
        fragments = -(-message_size // frag_payload)
        wire_bytes = message_size + fragments * 50
        pace = wire_bytes / 1.1e6
        for index in range(messages):
            rms.send(bytes([index % 256]) * message_size)
            yield pace

    system.context.spawn(producer())
    system.run(until=system.now + 60.0)
    span = (delivered["last"] or system.now) - start
    st_b = system.nodes["b"].st
    return {
        "size": message_size,
        "sent": messages,
        "goodput_kBps": delivered["bytes"] / max(span, 1e-9) / 1e3,
        "loss_fraction": 1.0 - delivered["bytes"] / TOTAL_BYTES,
        "checksum_drops": st_b.stats.checksum_drops,
        "partials_discarded": st_b.stats.partials_discarded,
        "sender_cpu_ms": (system.nodes["a"].cpu.busy_time - sender_cpu_before)
        * 1e3,
    }


def run_experiment():
    return [run_size(size) for size in SIZES]


def render(rows) -> Table:
    table = Table(
        f"E10: throughput vs ST maximum message size at BER "
        f"{BIT_ERROR_RATE:g} (section 4.3, no fragment retransmission)",
        ["ST msg size (B)", "goodput (kB/s)", "loss frac", "checksum drops",
         "partials discarded", "sender CPU (ms)"],
    )
    for row in rows:
        table.add_row(row["size"], row["goodput_kBps"], row["loss_fraction"],
                      row["checksum_drops"], row["partials_discarded"],
                      row["sender_cpu_ms"])
    return table


def check(rows) -> None:
    by_size = {row["size"]: row for row in rows}
    goodputs = [row["goodput_kBps"] for row in rows]
    best = max(range(len(rows)), key=lambda i: goodputs[i])
    # The optimum is interior: neither the smallest nor the largest size.
    assert 0 < best < len(rows) - 1
    # Small messages burn more sender CPU per byte (per-message costs).
    assert by_size[250]["sender_cpu_ms"] > by_size[3000]["sender_cpu_ms"]
    # Large messages lose more data (loss amplification across fragments).
    assert by_size[12_000]["loss_fraction"] > by_size[1_000]["loss_fraction"]


run = make_run("e10_fragmentation", run_experiment, render, check)


if __name__ == "__main__":
    raise SystemExit(bench_main(run))
