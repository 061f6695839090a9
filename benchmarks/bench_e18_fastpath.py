"""E18 -- fast-path engine: the event loop vs the seed loop.

Claim: the event loop (repro.sim.events: a now-deque beside one heap of
``(time, seq, handle)`` tuples, pooled handles) executes the event mixes
the DASH stack generates -- call_soon chains, same-instant bursts,
schedule/cancel timer churn, mixed delays -- at least twice as fast as
the seed's heapq loop, which sifts handle objects through a Python-level
``__lt__``; and the zero-copy ST datapath keeps per-message allocations
bounded.

The four legs and their TOTAL queue every timer before the clock starts,
120,000 deep in the two timer legs, and time only the drain.  The end-
to-end ledger's ``sim.events.queue_depth_max`` is 1-78 on the six e2e
workloads, so one more row runs the ``mixed delays`` mix at that depth
-- at most 64 timers outstanding, each rescheduling itself, schedule
and dispatch both inside the timed region.  It is reported beside the
TOTAL, not in it, so the committed ratio stays comparable.

The seed loop is embedded below verbatim (modulo names) so the
comparison stays honest as the real loop evolves.  Results are written
to the repo-root ``BENCH_e18.json`` for the CI perf-smoke job; see
DESIGN.md's "Performance" section for the schema.
"""

from __future__ import annotations

import heapq
import itertools
import json
import os
import random
import sys
import time
from typing import Callable, List, Optional, Tuple

from common import Table, bench_main, build_lan, make_run, open_st_rms, report
from repro.sim.events import EventLoop

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_JSON_SCHEMA = "dash-bench-e18/1"

SOON_CHAIN = 150_000
BURSTS = 400
BURST_WIDTH = 250
CHURN_TIMERS = 120_000
MIXED_TIMERS = 120_000
SHALLOW_DEPTH = 64
LAN_MESSAGES = 300


# -- the seed's event loop, embedded for comparison -------------------------


class _LegacyHandle:
    __slots__ = ("time", "_seq", "_callback", "_args", "_cancelled")

    def __init__(self, time: float, seq: int, callback, args) -> None:
        self.time = time
        self._seq = seq
        self._callback = callback
        self._args = args
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True
        self._callback = _noop
        self._args = ()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def _run(self) -> None:
        self._callback(*self._args)

    def __lt__(self, other: "_LegacyHandle") -> bool:
        return (self.time, self._seq) < (other.time, other._seq)


def _noop() -> None:
    return None


class _LegacyEventLoop:
    """The seed's pure-heapq scheduler (one handle object per event,
    Python-level ``__lt__`` on every sift)."""

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: List[_LegacyHandle] = []
        self._seq = itertools.count()
        self._running = False
        self._events_run = 0

    @property
    def now(self) -> float:
        return self._now

    def call_at(self, when: float, callback, *args) -> _LegacyHandle:
        handle = _LegacyHandle(when, next(self._seq), callback, args)
        heapq.heappush(self._queue, handle)
        return handle

    def call_after(self, delay: float, callback, *args) -> _LegacyHandle:
        return self.call_at(self._now + delay, callback, *args)

    def call_soon(self, callback, *args) -> _LegacyHandle:
        return self.call_at(self._now, callback, *args)

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        self._running = True
        executed = 0
        try:
            while self._queue:
                if max_events is not None and executed >= max_events:
                    break
                handle = self._queue[0]
                if handle.cancelled:
                    heapq.heappop(self._queue)
                    continue
                if until is not None and handle.time > until:
                    break
                heapq.heappop(self._queue)
                self._now = handle.time
                handle._run()
                self._events_run += 1
                executed += 1
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return self._now


# -- microbench workloads ----------------------------------------------------
#
# Each takes a fresh loop and returns the number of callbacks it will
# execute; the driver times loop.run().


def _load_soon_chain(loop) -> int:
    """One callback rescheduling itself: the instant-bucket fast path."""
    remaining = [SOON_CHAIN]

    def step() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            loop.call_soon(step)

    loop.call_soon(step)
    return SOON_CHAIN


def _load_same_time_bursts(loop) -> int:
    """Many events at identical timestamps (piggyback/mux patterns)."""
    sink = _Counter()
    for burst in range(BURSTS):
        when = loop.now + burst * 0.0007
        for _ in range(BURST_WIDTH):
            loop.call_at(when, sink)
    return BURSTS * BURST_WIDTH


def _load_timer_churn(loop, rng: random.Random) -> int:
    """Schedule/cancel churn: retransmission timers that rarely fire."""
    sink = _Counter()
    handles = []
    for _ in range(CHURN_TIMERS):
        handles.append(loop.call_after(rng.uniform(0.0, 0.4), sink))
    cancelled = 0
    for index, handle in enumerate(handles):
        if index % 2 == 0:
            handle.cancel()
            cancelled += 1
    return CHURN_TIMERS - cancelled


def _load_mixed_delays(loop, rng: random.Random) -> int:
    """Delays from microseconds to half a second, all queued up front."""
    sink = _Counter()
    for _ in range(MIXED_TIMERS):
        loop.call_after(rng.expovariate(1 / 0.05), sink)
    return MIXED_TIMERS


def _load_shallow_mixed(loop, rng: random.Random) -> int:
    """The same delays at the depth the stack runs at: SHALLOW_DEPTH
    timers outstanding, each rescheduling itself until the delays run
    out (drawn up front, so the generator is not in the timed region)."""
    delays = [rng.expovariate(1 / 0.05) for _ in range(MIXED_TIMERS)]

    def step() -> None:
        if delays:
            loop.call_after(delays.pop(), step)

    for _ in range(SHALLOW_DEPTH):
        loop.call_after(delays.pop(), step)
    return MIXED_TIMERS


class _Counter:
    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0

    def __call__(self) -> None:
        self.n += 1


WORKLOADS: List[Tuple[str, Callable[..., int], bool]] = [
    ("call_soon chain", _load_soon_chain, False),
    ("same-time bursts", _load_same_time_bursts, False),
    ("timer churn (50% cancel)", _load_timer_churn, True),
    ("mixed delays", _load_mixed_delays, True),
]


def _time_workload(make_loop, load, needs_rng: bool, seed: int) -> Tuple[int, float]:
    loop = make_loop()
    if needs_rng:
        events = load(loop, random.Random(seed))
    else:
        events = load(loop)
    started = time.perf_counter()
    loop.run()
    return events, time.perf_counter() - started


def _compare(name: str, load, needs_rng: bool, seed: int) -> dict:
    """One table row: the same load on the seed loop and on the loop."""
    events, legacy_s = _time_workload(_LegacyEventLoop, load, needs_rng, seed)
    _, fast_s = _time_workload(EventLoop, load, needs_rng, seed)
    return {
        "workload": name,
        "events": events,
        "legacy_s": legacy_s,
        "fast_s": fast_s,
        "legacy_eps": events / max(legacy_s, 1e-9),
        "fast_eps": events / max(fast_s, 1e-9),
        "speedup": legacy_s / max(fast_s, 1e-9),
    }


def _lan_throughput(seed: int) -> Tuple[float, float]:
    """End-to-end ST messages/sec of simulated work, plus allocations
    per message (heap blocks, via sys.getallocatedblocks)."""
    system = build_lan(seed=seed)
    rms = open_st_rms(system, "a", "b", port="e18")
    delivered = _Counter()
    rms.port.set_handler(lambda message: delivered())
    payload = b"\xa5" * 1400

    get_blocks = getattr(sys, "getallocatedblocks", lambda: 0)
    started = time.perf_counter()
    blocks_before = get_blocks()
    for _ in range(LAN_MESSAGES):
        rms.send(payload)
        system.run(until=system.now + 0.02)
    blocks_after = get_blocks()
    elapsed = time.perf_counter() - started
    assert delivered.n == LAN_MESSAGES
    msgs_per_sec = LAN_MESSAGES / max(elapsed, 1e-9)
    allocs_per_msg = max(0, blocks_after - blocks_before) / LAN_MESSAGES
    return msgs_per_sec, allocs_per_msg


def run_experiment(seed: int = 18):
    rows = [_compare(*workload, seed) for workload in WORKLOADS]
    events = sum(row["events"] for row in rows)
    events_per_sec = events / max(sum(row["fast_s"] for row in rows), 1e-9)
    legacy_eps = events / max(sum(row["legacy_s"] for row in rows), 1e-9)
    shallow = _compare(f"mixed delays, <= {SHALLOW_DEPTH} outstanding",
                       _load_shallow_mixed, True, seed)
    msgs_per_sec, allocs_per_msg = _lan_throughput(seed)
    result = {
        "rows": rows,
        "shallow": shallow,
        "events_per_sec": events_per_sec,
        "legacy_events_per_sec": legacy_eps,
        "speedup_vs_legacy": events_per_sec / max(legacy_eps, 1e-9),
        "msgs_per_sec": msgs_per_sec,
        "allocs_per_msg": allocs_per_msg,
        "seed": seed,
    }
    _write_bench_json(result)
    return result


def _write_bench_json(result) -> None:
    payload = {
        "schema": BENCH_JSON_SCHEMA,
        "events_per_sec": round(result["events_per_sec"], 1),
        "legacy_events_per_sec": round(result["legacy_events_per_sec"], 1),
        "speedup_vs_legacy": round(result["speedup_vs_legacy"], 3),
        "shallow_events_per_sec": round(result["shallow"]["fast_eps"], 1),
        "msgs_per_sec": round(result["msgs_per_sec"], 1),
        "allocs_per_msg": round(result["allocs_per_msg"], 2),
        "seed": result["seed"],
    }
    with open(os.path.join(REPO_ROOT, "BENCH_e18.json"), "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def render(result) -> Table:
    table = Table(
        "E18: event loop vs the seed's __lt__-handle heapq loop",
        ["workload", "events", "legacy ev/s", "fast ev/s", "speedup"],
    )

    def add(row) -> None:
        table.add_row(row["workload"], row["events"],
                      round(row["legacy_eps"]), round(row["fast_eps"]),
                      round(row["speedup"], 2))

    for row in result["rows"]:
        add(row)
    table.add_row("TOTAL", "",
                  round(result["legacy_events_per_sec"]),
                  round(result["events_per_sec"]),
                  round(result["speedup_vs_legacy"], 2))
    add(result["shallow"])  # the depth the stack runs at; not in TOTAL
    table.add_row("LAN end-to-end", LAN_MESSAGES,
                  f"{result['msgs_per_sec']:.0f} msg/s",
                  f"{result['allocs_per_msg']:.1f} allocs/msg", "")
    return table


def test_e18_fastpath(run_once):
    result = run_once(run_experiment)
    report("e18_fastpath", render(result))
    # The tentpole claim: >= 2x events/sec over the seed loop.
    assert result["speedup_vs_legacy"] >= 2.0
    assert result["msgs_per_sec"] > 0


run = make_run("e18_fastpath", run_experiment, render)


if __name__ == "__main__":
    raise SystemExit(bench_main(run))
