"""E8 -- Section 2.3: the three delay-bound types under offered load.

Claim: deterministic RMSs reserve worst-case resources, so admission
stops early but every admitted stream meets its bound; statistical RMSs
reserve effective bandwidth, admitting more streams with a small,
bounded late fraction; best-effort RMSs are never rejected and their
delays degrade without limit as load grows.
"""

from __future__ import annotations

from common import Table, bench_main, build_lan, make_run
from repro.core.params import DelayBound, DelayBoundType, RmsParams, StatisticalSpec
from repro.errors import AdmissionError, NegotiationError

OFFERED = 26  # streams offered per type
PACKET = 500
PERIOD = 0.01  # 50 kB/s per stream; segment = 1.25 MB/s
BOUND = 0.05
DURATION = 3.0


def stream_params(bound_type: DelayBoundType) -> RmsParams:
    statistical = None
    if bound_type == DelayBoundType.STATISTICAL:
        statistical = StatisticalSpec(
            average_load=PACKET / PERIOD, burstiness=1.5, delay_probability=0.95
        )
    return RmsParams(
        capacity=3000,
        max_message_size=PACKET,
        delay_bound=DelayBound(BOUND, 1e-6),
        delay_bound_type=bound_type,
        statistical=statistical,
    )


def run_type(bound_type: DelayBoundType, seed: int = 8):
    system = build_lan(seed=seed)
    params = stream_params(bound_type)
    st = system.nodes["a"].st
    admitted = []
    rejected = 0
    for index in range(OFFERED):
        future = st.create_st_rms("b", port=f"{bound_type.name}-{index}",
                                  desired=params, acceptable=params)
        system.run(until=system.now + 0.5)
        if future.done and not future.failed:
            admitted.append(future.result())
        else:
            rejected += 1
            if future.done:
                try:
                    future.result()
                except (AdmissionError, NegotiationError):
                    pass

    def producer(rms, offset):
        yield offset
        while True:
            rms.send(b"\x33" * PACKET)
            yield PERIOD

    rng = system.context.rng.stream("offsets")
    producers = [
        system.context.spawn(producer(rms, rng.uniform(0, PERIOD)))
        for rms in admitted
    ]
    system.run(until=system.now + DURATION)
    for process in producers:
        process.stop()
    system.run(until=system.now + 0.5)

    delivered = sum(rms.stats.messages_delivered for rms in admitted)
    late = sum(rms.stats.messages_late for rms in admitted)
    dropped = sum(rms.stats.messages_dropped for rms in admitted)
    sent = sum(rms.stats.messages_sent for rms in admitted)
    return {
        "type": bound_type.name.lower(),
        "offered": OFFERED,
        "admitted": len(admitted),
        "rejected": rejected,
        "sent": sent,
        "late_fraction": late / max(delivered, 1),
        "loss_fraction": dropped / max(sent, 1),
    }


def run_experiment():
    return [
        run_type(DelayBoundType.DETERMINISTIC),
        run_type(DelayBoundType.STATISTICAL),
        run_type(DelayBoundType.BEST_EFFORT),
    ]


def render(rows) -> Table:
    table = Table(
        f"E8: admission + delivered quality per delay-bound type "
        f"({OFFERED} x 50 kB/s streams offered on a 1.25 MB/s segment, "
        f"bound {BOUND * 1e3:.0f} ms)",
        ["type", "offered", "admitted", "rejected", "late frac", "loss frac"],
    )
    for row in rows:
        table.add_row(row["type"], row["offered"], row["admitted"],
                      row["rejected"], row["late_fraction"],
                      row["loss_fraction"])
    return table


def check(rows) -> None:
    deterministic, statistical, best_effort = rows
    # Best-effort is never rejected (section 2.3).
    assert best_effort["admitted"] == OFFERED
    # Deterministic reserves worst case, so it admits the fewest.
    assert deterministic["admitted"] < statistical["admitted"] <= OFFERED
    # Admitted deterministic streams never miss their bound.
    assert deterministic["late_fraction"] == 0.0
    # Statistical misses stay within the 1-p tolerance (p = 0.95).
    assert statistical["late_fraction"] <= 0.05
    # Best-effort, overcommitted, degrades the most.
    assert best_effort["late_fraction"] >= statistical["late_fraction"]


run = make_run("e08_admission", run_experiment, render, check)


if __name__ == "__main__":
    raise SystemExit(bench_main(run))
