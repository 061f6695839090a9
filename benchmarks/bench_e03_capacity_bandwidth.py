"""E3 -- Section 2.2: the capacity/delay-bound bandwidth identity.

Claim: an RMS with capacity C and worst-case delay D for a maximum-size
message implicitly guarantees about C/D bytes per second -- a client
sending a max-size message every D*M/C seconds never violates the
capacity rule.  We sweep C with fixed D and check measured goodput of a
rate-enforced sender tracks C/D until the medium saturates.
"""

from __future__ import annotations

from common import Table, bench_main, build_lan, make_run, open_st_rms
from repro.core.params import DelayBound, DelayBoundType, RmsParams
from repro.transport.flowcontrol import RateBasedEnforcer

DELAY = 0.05  # seconds
MESSAGE = 1000  # bytes
DURATION = 4.0


def run_capacity(capacity: int, seed: int = 3, observe: bool = False):
    system = build_lan(seed=seed, observe=observe)
    params = RmsParams(
        capacity=capacity,
        max_message_size=MESSAGE,
        delay_bound=DelayBound(DELAY, 0.0),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
    )
    rms = open_st_rms(system, "a", "b", params=params, port=f"cap{capacity}")
    enforcer = RateBasedEnforcer(system.context, rms.params)
    delivered = {"bytes": 0, "last": None}
    start = system.now

    def on_message(message):
        delivered["bytes"] += message.size
        delivered["last"] = system.now

    rms.port.set_handler(on_message)
    payload = b"\x55" * MESSAGE

    def producer():
        while system.now - start < DURATION:
            enforcer.request(MESSAGE, lambda: rms.send(payload))
            yield rms.params.message_period() / 4  # offer faster than allowed
        return None

    system.context.spawn(producer())
    system.run(until=start + DURATION + 2.0)
    span = (delivered["last"] or system.now) - start
    goodput = delivered["bytes"] / max(span, 1e-9)
    return {
        "capacity": rms.params.capacity,
        "predicted_kBps": rms.params.implied_bandwidth() / 1e3,
        "measured_kBps": goodput / 1e3,
        "violations": rms.stats.capacity_violations,
        "system": system,  # for E16's observability overhead probe
    }


def run_experiment():
    return [run_capacity(c) for c in (2_000, 4_000, 8_000, 16_000, 32_000)]


def render(rows) -> Table:
    table = Table(
        "E3: implied bandwidth ~ C/D (section 2.2); D = 50 ms",
        ["capacity (B)", "predicted C/D (kB/s)", "measured (kB/s)",
         "ratio", "capacity violations"],
    )
    for row in rows:
        ratio = row["measured_kBps"] / max(row["predicted_kBps"], 1e-9)
        table.add_row(row["capacity"], row["predicted_kBps"],
                      row["measured_kBps"], ratio, row["violations"])
    return table


def check(rows) -> None:
    # Measured goodput tracks C/D within 25% across the sweep, and the
    # rate-enforced client never violates the capacity rule.
    for row in rows:
        assert row["violations"] == 0
        ratio = row["measured_kBps"] / row["predicted_kBps"]
        assert 0.7 < ratio <= 1.1
    # Monotone in capacity.
    measured = [row["measured_kBps"] for row in rows]
    assert measured == sorted(measured)


run = make_run("e03_capacity_bandwidth", run_experiment, render, check)


if __name__ == "__main__":
    raise SystemExit(bench_main(run))
