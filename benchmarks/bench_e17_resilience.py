"""E17 -- Resilience: supervised goodput under injected faults.

Claim: a supervised session (retry + failover + degradation, PR-2
resilience layer) keeps a periodic workload flowing through scripted and
seeded-random network faults, while an unsupervised session dies at the
first failure.  Both nodes are multi-homed: a fast Ethernet (the
preferred network) and a routed internetwork standing by as the
failover target.

Four runs, one seed:

* ``baseline``     -- supervised, no chaos: the reference goodput;
* ``supervised``   -- chaos on the Ethernet segment (periodic flaps, a
  seeded-random flap process, one receiver pause); the session fails
  over to the internetwork and re-queues what the client
  sent during the gap.  Goodput must stay >= 80% of baseline;
* ``unsupervised`` -- same chaos, no policy: the session fails
  terminally and goodput collapses;
* ``supervised2``  -- the supervised run repeated with the same seed;
  delivered bytes must match exactly (determinism).

The supervised run exports its metrics snapshot; the
``rms_failovers_total`` family must be present and nonzero.
"""

from __future__ import annotations

import json
import os

from common import RESULTS_DIR, Table, bench_main, make_run, report

from repro.core.params import DelayBound, DelayBoundType, RmsParams
from repro.dash.system import DashSystem
from repro.errors import CapacityError, RmsFailedError
from repro.netsim.chaos import ChaosSchedule
from repro.resilience import SessionState

SEED = 17
RECORD = 480  # bytes per record
PERIOD = 0.01  # seconds between records
DURATION = 10.0  # seconds of workload
WARMUP = 2.0
GRACE = 4.0  # post-workload time for recovery queues to flush


def build_system(seed: int, observe: bool) -> DashSystem:
    """Two multi-homed nodes: Ethernet primary, internetwork secondary."""
    system = DashSystem(seed=seed, observe=observe)
    system.add_ethernet(name="lan", trusted=True)
    wan = system.add_internet(name="wan", trusted=True)
    system.add_node("a")
    system.add_node("b")
    wan.add_router("g1")
    wan.add_link("a", "g1", bandwidth=2.5e5, propagation_delay=0.002)
    wan.add_link("g1", "b", bandwidth=2.5e5, propagation_delay=0.002)
    return system


def run_variant(chaos: bool, supervised: bool, seed: int = SEED):
    system = build_system(seed, observe=True)
    params = RmsParams(
        capacity=8192,
        max_message_size=512,
        delay_bound=DelayBound(0.5, 1e-4),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
    )
    session = system.connect(
        "a", "b", desired=params, acceptable=params,
        port="e17", resilience=supervised, name="e17",
    )
    system.run(until=system.now + WARMUP)
    start = system.now
    delivered = {"bytes": 0, "records": 0}

    def on_message(message):
        delivered["bytes"] += message.size
        delivered["records"] += 1

    session.port.set_handler(on_message)

    schedule = ChaosSchedule(system.context, name="e17")
    if chaos:
        segment = system.networks["lan"].segment
        schedule.flap_periodic(
            segment, first_down=start + 1.0, period=2.5,
            down_time=0.6, count=3,
        )
        schedule.random_flaps(
            segment, mean_uptime=1.5, mean_downtime=0.3,
            until=start + DURATION, start=start + 1.5,
        )
        schedule.pause_host_at(system.nodes["b"].host, start + 6.0, 0.2)

    def feed():
        end = start + DURATION
        while system.now < end:
            try:
                session.send(b"\x55" * RECORD)
            except (RmsFailedError, CapacityError):
                pass
            yield PERIOD

    system.context.spawn(feed(), name="e17:feed")
    system.run(until=start + DURATION + GRACE)
    return {
        "bytes": delivered["bytes"],
        "records": delivered["records"],
        "goodput_kBps": delivered["bytes"] / DURATION / 1e3,
        "state": session.state.value,
        "recoveries": session.stats.recoveries,
        "failovers": session.stats.failovers,
        "queue_drops": session.stats.queue_drops,
        "chaos_events": len(schedule.log),
        "session": session,
        "system": system,
    }


def run_experiment():
    results = {
        "baseline": run_variant(chaos=False, supervised=True),
        "supervised": run_variant(chaos=True, supervised=True),
        "unsupervised": run_variant(chaos=True, supervised=False),
        "supervised2": run_variant(chaos=True, supervised=True),
    }
    # The supervised run's telemetry is what the exporters snapshot.
    results["obs"] = results["supervised"]["system"].obs
    return results


def render(results) -> Table:
    table = Table(
        "E17: goodput under injected faults (480 B / 10 ms for 10 s)",
        ["variant", "records", "goodput (kB/s)", "final state",
         "recoveries", "failovers", "queue drops", "chaos events"],
    )
    for variant, row in results.items():
        if variant == "obs":
            continue
        table.add_row(
            variant, row["records"], row["goodput_kBps"], row["state"],
            row["recoveries"], row["failovers"], row["queue_drops"],
            row["chaos_events"],
        )
    return table


def _failover_total(payload) -> float:
    family = payload["metrics"].get("rms_failovers_total", {})
    return sum(series["value"] for series in family.get("series", []))


def test_e17_resilience(run_once):
    results = run_once(run_experiment)
    baseline = results["baseline"]
    supervised = results["supervised"]
    unsupervised = results["unsupervised"]
    report(
        "e17_resilience",
        render(results),
        obs=supervised["system"].obs,
        extra={
            "recovery_ratio": supervised["bytes"] / max(baseline["bytes"], 1),
            "seed": SEED,
        },
    )
    # Supervision keeps goodput within 80% of the no-fault baseline.
    assert supervised["bytes"] >= 0.8 * baseline["bytes"]
    assert supervised["recoveries"] >= 1
    # Without supervision the first fault is terminal.
    assert unsupervised["state"] == SessionState.FAILED.value
    assert unsupervised["bytes"] < 0.5 * baseline["bytes"]
    # Same seed, same faults, same delivery: the run is deterministic.
    assert results["supervised2"]["bytes"] == supervised["bytes"]
    assert results["supervised2"]["records"] == supervised["records"]
    # The exported snapshot carries the failover metric family.
    path = os.path.join(RESULTS_DIR, "e17_resilience.metrics.json")
    with open(path) as handle:
        payload = json.load(handle)
    assert payload["schema"] == 1
    assert _failover_total(payload) > 0
    assert "chaos_events_total" in payload["metrics"]


run = make_run("e17_resilience", run_experiment, render)


if __name__ == "__main__":
    raise SystemExit(bench_main(run))
