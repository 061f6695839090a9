"""E16 -- Observability overhead and telemetry export.

Claim: the observability layer is free when disabled and cheap when
enabled.  The simulator is deterministic and instrumentation consumes no
simulated time, so goodput of the E3 capacity workload must agree within
3% between observability off and on (in practice: exactly).  Wall-clock
cost is reported for the record but not asserted -- it depends on the
machine running the bench.

The enabled run also exercises the full export path: the registry
snapshot, span summary, and flight recorder land in
``e16_observability.metrics.json``, and the check round-trips the same
snapshot through JSON and validates it.
"""

from __future__ import annotations

import json
import math
import time

from bench_e03_capacity_bandwidth import run_capacity
from common import Table, bench_main, make_run
from repro.obs.export import metrics_payload

CAPACITY = 8_000  # bytes; one point of the E3 sweep


def run_experiment():
    started = time.perf_counter()
    off = run_capacity(CAPACITY, observe=False)
    wall_off = time.perf_counter() - started

    started = time.perf_counter()
    on = run_capacity(CAPACITY, observe=True)
    wall_on = time.perf_counter() - started

    obs = on["system"].obs
    return {
        "off_kBps": off["measured_kBps"],
        "on_kBps": on["measured_kBps"],
        "wall_off_s": wall_off,
        "wall_on_s": wall_on,
        "traces": sum(1 for _ in obs.spans.traces()),
        "events": len(obs.spans),
        "obs": obs,
    }


def render(result) -> Table:
    table = Table(
        "E16: observability overhead (E3 workload, capacity 8 kB)",
        ["mode", "goodput (kB/s)", "wall clock (s)", "traces", "events"],
    )
    table.add_row("off", result["off_kBps"], result["wall_off_s"], 0, 0)
    table.add_row(
        "on", result["on_kBps"], result["wall_on_s"],
        result["traces"], result["events"],
    )
    return table


def check(result) -> None:
    # Disabled observability must not change what the simulation does:
    # goodput off vs on agrees within 3% (deterministic seed -> exact).
    assert math.isclose(result["off_kBps"], result["on_kBps"], rel_tol=0.03)
    # The enabled run recorded spans for the workload's messages.
    assert result["traces"] > 0
    assert result["events"] > 0
    # The exported snapshot is valid, machine-readable JSON.
    payload = json.loads(
        json.dumps(metrics_payload(obs=result["obs"]), default=str))
    assert payload["schema"] == 1
    assert "rms_messages_delivered" in payload["metrics"]
    assert payload["spans"]["events"] == result["events"]


run = make_run("e16_observability", run_experiment, render, check)


if __name__ == "__main__":
    raise SystemExit(bench_main(run))
