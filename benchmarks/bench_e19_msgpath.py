"""E19 -- message-path throughput: coalesced timers + cached contexts.

E18 established that the event loop itself runs ~840k events/sec, yet
the message path it measured delivered only ~9.8k msgs/sec -- roughly 85
loop events and 2.36 allocations per delivered client message.  This
bench measures the message path built to close that gap: per-peer
``TimerGroup`` deadline coalescing, security contexts cached at
negotiation time, and per-size memos of the stage costs and deadlines.

The headline workload is the one the paper's piggybacking argument is
about: sustained bursts of small messages on a trusted LAN, where
bundling -- not a faster scheduler -- is what lifts messages/sec.  The
claim, asserted by ``test_e19_msgpath``:

* >= 2x msgs/sec over the PR 3 message-path baseline (the committed
  ``BENCH_e18.json`` figure of 9,816.4 msgs/sec, embedded below), and
* <= 20 loop events per delivered message (down from ~85),
* with timer events per message reported (TimerGroup loop-timer fires).

There is one message path, so there is no in-process ablation: the
reference is the recorded cross-PR baseline.  Results go to the
repo-root ``BENCH_e19.json`` for the CI perf-smoke job; see DESIGN.md's
"Performance" section for the schema.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict

from common import Table, bench_main, build_lan, make_run, open_st_rms, report

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_JSON_SCHEMA = "dash-bench-e19/2"

#: The PR 3 message-path baseline: ``msgs_per_sec`` from BENCH_e18.json
#: as committed by the fast-path-engine PR (its LAN end-to-end row, the
#: figure the ISSUE's "85 loop events per message" derives from).
PR3_MSGS_PER_SEC = 9816.4

SEED = 19
#: Sustained piggybacked traffic: bursts of small messages that the
#: piggyback queue bundles ~12:1 into 1500-byte Ethernet frames.
BURSTS = 400
BURST_WIDTH = 40
SMALL_PAYLOAD = 100
#: A no-bundling control row: each message fills most of an MTU, so the
#: path runs one frame per message (the E18 message shape, sustained).
#: Bursts stay narrow enough to fit the 20 ms window at wire speed.
BIG_PAYLOAD = 1400
BIG_BURSTS = 300
BIG_BURST_WIDTH = 10


def _timer_fires(system) -> int:
    """Loop-timer firings of every TimerGroup in the system (ST per-peer
    groups and the RKOM services' timeout groups)."""
    fires = 0
    for node in system.nodes.values():
        for peer in node.st._peers.values():
            fires += peer.timers.fires
        fires += node.rkom._timers.fires
    return fires


def _run_workload(
    seed: int, payload_bytes: int, bursts: int, burst_width: int
) -> Dict[str, float]:
    """Push ``bursts * burst_width`` messages a->b; return rates."""
    system = build_lan(seed=seed)
    rms = open_st_rms(system, "a", "b", port="e19")
    delivered = [0]
    rms.port.set_handler(lambda message: delivered.__setitem__(0, delivered[0] + 1))
    payload = b"\xe1" * payload_bytes
    loop = system.context.loop
    send = rms.send
    run = system.run

    # One warm-up burst so pools and caches are populated before the
    # allocation measurement starts.
    for _ in range(burst_width):
        send(payload)
    run(until=system.now + 0.05)

    total = bursts * burst_width
    delivered[0] = 0
    events_before = loop._events_run
    timer_before = _timer_fires(system)
    get_blocks = getattr(sys, "getallocatedblocks", lambda: 0)
    blocks_before = get_blocks()
    started = time.perf_counter()
    for _ in range(bursts):
        for _ in range(burst_width):
            send(payload)
        run(until=system.now + 0.02)
    run(until=system.now + 0.5)
    elapsed = time.perf_counter() - started
    blocks_after = get_blocks()
    events = loop._events_run - events_before
    timer_fires = _timer_fires(system) - timer_before
    assert delivered[0] == total, (delivered[0], total)
    return {
        "msgs_per_sec": total / max(elapsed, 1e-9),
        "loop_events_per_msg": events / total,
        "timer_events_per_msg": timer_fires / total,
        "allocs_per_msg": max(0, blocks_after - blocks_before) / total,
        "messages": total,
    }


def run_experiment(seed: int = SEED):
    rows = []
    for name, size, bursts, width in (
        ("small bursts (bundled)", SMALL_PAYLOAD, BURSTS, BURST_WIDTH),
        ("MTU-filling (unbundled)", BIG_PAYLOAD, BIG_BURSTS, BIG_BURST_WIDTH),
    ):
        row = _run_workload(seed, size, bursts, width)
        row["workload"] = name
        rows.append(row)
    headline = rows[0]
    result = {
        "rows": rows,
        "msgs_per_sec": headline["msgs_per_sec"],
        "pr3_recorded_msgs_per_sec": PR3_MSGS_PER_SEC,
        "speedup_vs_pr3_recorded": headline["msgs_per_sec"] / PR3_MSGS_PER_SEC,
        "loop_events_per_msg": headline["loop_events_per_msg"],
        "timer_events_per_msg": headline["timer_events_per_msg"],
        "allocs_per_msg": headline["allocs_per_msg"],
        "seed": seed,
    }
    _write_bench_json(result)
    return result


def _write_bench_json(result) -> None:
    payload = {
        "schema": BENCH_JSON_SCHEMA,
        "msgs_per_sec": round(result["msgs_per_sec"], 1),
        "pr3_recorded_msgs_per_sec": result["pr3_recorded_msgs_per_sec"],
        "speedup_vs_pr3_recorded": round(result["speedup_vs_pr3_recorded"], 3),
        "loop_events_per_msg": round(result["loop_events_per_msg"], 2),
        "timer_events_per_msg": round(result["timer_events_per_msg"], 3),
        "allocs_per_msg": round(result["allocs_per_msg"], 2),
        "seed": result["seed"],
    }
    with open(os.path.join(REPO_ROOT, "BENCH_e19.json"), "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def render(result) -> Table:
    table = Table(
        "E19: message-path throughput",
        ["workload", "msgs", "msg/s", "ev/msg", "timer-ev/msg", "allocs/msg"],
    )
    for row in result["rows"]:
        table.add_row(
            row["workload"], row["messages"],
            round(row["msgs_per_sec"]),
            round(row["loop_events_per_msg"], 2),
            round(row["timer_events_per_msg"], 3),
            round(row["allocs_per_msg"], 2),
        )
    table.add_row(
        f"PR 3 recorded (x{result['speedup_vs_pr3_recorded']:.2f})", "",
        round(result["pr3_recorded_msgs_per_sec"]),
        "", "", "",
    )
    return table


def test_e19_msgpath(run_once):
    result = run_once(run_experiment)
    report("e19_msgpath", render(result))
    # The tentpole claim: >= 2x msgs/sec over the PR 3 message-path
    # baseline, at <= 20 loop events per delivered message.
    assert result["speedup_vs_pr3_recorded"] >= 2.0
    assert result["loop_events_per_msg"] <= 20.0
    assert result["timer_events_per_msg"] >= 0.0


run = make_run("e19_msgpath", run_experiment, render)


if __name__ == "__main__":
    raise SystemExit(bench_main(run))
