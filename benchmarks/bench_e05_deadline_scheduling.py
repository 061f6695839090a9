"""E5 -- Section 4.1: deadline-based scheduling vs FIFO.

Claim: using RMS deadlines to order both protocol processing (CPU) and
interface transmission queues lets low-delay traffic meet its bounds in
the presence of bulk traffic.  "Compared to systems that use only
priorities (or no information at all), this optimizes usage and makes
real-time communication possible."

Workload: a 20 ms-period low-delay message stream shares a host pair
with a bulk sender that keeps the segment busy.  We compare EDF against
FIFO at the interface and CPU, measuring the low-delay class's late
fraction and delay percentiles.
"""

from __future__ import annotations

from common import Table, bench_main, build_lan, make_run, open_st_rms
from repro.core.params import DelayBound, DelayBoundType, RmsParams
from repro.obs.stats import DelayRecorder

RT_MESSAGES = 150
RT_PERIOD = 0.02
RT_BOUND = 0.05
BULK_SIZE = 1400
BULK_PERIOD = 0.0007  # ~2 MB/s offered on a 1.25 MB/s segment


def run_policy(policy: str, seed: int = 5):
    system = build_lan(seed=seed, queue_policy=policy, cpu_policy=policy)
    rt_params = RmsParams(
        capacity=8192,
        max_message_size=512,
        delay_bound=DelayBound(RT_BOUND, 1e-6),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
    )
    bulk_params = RmsParams(
        capacity=96 * 1024,
        max_message_size=4000,
        delay_bound=DelayBound(2.0, 1e-5),  # high-delay class
        delay_bound_type=DelayBoundType.BEST_EFFORT,
    )
    rt_rms = open_st_rms(system, "a", "b", params=rt_params, port="rt")
    bulk_rms = open_st_rms(system, "a", "b", params=bulk_params, port="bulk")
    rt_delays = DelayRecorder()
    rt_rms.port.set_handler(rt_delays.record_message)

    def rt_producer():
        for index in range(RT_MESSAGES):
            rt_rms.send(bytes([index % 256]) * 160)
            yield RT_PERIOD

    def bulk_producer():
        while True:
            bulk_rms.send(b"\xAA" * BULK_SIZE)
            yield BULK_PERIOD

    system.context.spawn(rt_producer())
    bulk = system.context.spawn(bulk_producer())
    system.run(until=system.now + RT_MESSAGES * RT_PERIOD + 1.0)
    bulk.stop()
    system.run(until=system.now + 1.0)

    delays = rt_delays.summary().scaled(1e3)
    delivered = rt_rms.stats.messages_delivered
    return {
        "policy": policy,
        "delivered": delivered,
        "late": rt_rms.stats.messages_late,
        "late_fraction": rt_rms.stats.messages_late / max(delivered, 1),
        "p50_ms": delays.p50,
        "p95_ms": delays.p95,
        "max_ms": delays.maximum,
        "bulk_delivered": bulk_rms.stats.messages_delivered,
    }


def run_experiment():
    return [run_policy("fifo"), run_policy("edf")]


def render(rows) -> Table:
    table = Table(
        "E5: low-delay class under bulk load, FIFO vs EDF (section 4.1); "
        f"bound = {RT_BOUND * 1e3:.0f} ms",
        ["policy", "delivered", "late", "late frac", "p50 (ms)", "p95 (ms)",
         "max (ms)", "bulk msgs"],
    )
    for row in rows:
        table.add_row(row["policy"], row["delivered"], row["late"],
                      row["late_fraction"], row["p50_ms"], row["p95_ms"],
                      row["max_ms"], row["bulk_delivered"])
    return table


def check(rows) -> None:
    fifo, edf = rows
    # EDF meets the real-time bound; FIFO leaves the class behind bulk.
    assert edf["late_fraction"] < 0.02
    assert fifo["late_fraction"] > 5 * max(edf["late_fraction"], 0.01)
    assert edf["p95_ms"] < fifo["p95_ms"]
    # The bulk class still makes progress under EDF (no starvation).
    assert edf["bulk_delivered"] > 0.5 * fifo["bulk_delivered"]


run = make_run("e05_deadline_scheduling", run_experiment, render, check)


if __name__ == "__main__":
    raise SystemExit(bench_main(run))
