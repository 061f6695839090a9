"""Reps, timing and the end-to-end metrics.

Method.  A run measures one workload in one process, single-threaded.
It makes ``reps`` reps; each builds a fresh system from the seed (timed
as set-up, together with establishing every channel and one warm-up
round), calls ``gc.collect()`` -- the collector stays *enabled* while
timing, allocation pressure is a real cost -- and then issues rounds
until the rep's share of ``--seconds`` has passed.  A rep's rate is
everything it delivered over all the time it took, so a cost that lands
in a few rounds only (a collector pause, a periodic rebuild, a batch
flush) counts in full; a run reports the median over reps.

Every rep runs at least the workload's fixed *prefix* of rounds.  The
``sim_`` metrics and the delivery digest cover exactly that prefix, so
they do not depend on how many rounds the host managed: they repeat
exactly for a fixed seed, in every rep and on every machine.

Reference seconds.  The sandbox this benchmark was built in is a shared
host that runs the same bytecode up to twice as slowly for seconds at a
time (``time.process_time`` slows with the wall clock, so it is no
help).  Per raw host second the rates of one commit differ by 9-34%
between the quartiles of ten runs, depending on the hour, against 1-6%
in reference seconds; ``raw_msgs_per_s`` in a run's notes is the raw
rate, so both figures can be checked from any set of runs.  A fixed
pure-Python *probe* therefore runs between blocks of rounds, every
:data:`BLOCK_S` of host time, and each block's host time is multiplied
by ``REFERENCE_PROBE_S / (mean probe time around the block)``.  All
host-time metrics are in these *reference seconds*: one is the host time
in which the probe completes ``1 / REFERENCE_PROBE_S`` times, a second
of the sandbox at full speed.  The probe touches no ``repro`` code and
allocates no collector-tracked object, so no change to the stack or to
the collector's settings can move it, and its time is no part of any
block.  ``host_speed`` in the notes is raw over reference time.
"""

from __future__ import annotations

import gc
import resource
import struct
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, List, Optional

from . import metrics

perf_counter = time.perf_counter

#: The probe: a loop of integer arithmetic and a loop of the object
#: traffic a protocol stack makes (dictionary and attribute access, method
#: calls, packing, byte-string building).  The slow spells do not slow
#: every kind of bytecode alike; the sum of the two loops tracked the six
#: workloads within 3-4% where either loop alone was off by 7-12%.
PROBE_ARITHMETIC = 8000
PROBE_TRAFFIC = 1200
#: The probe's duration on the sandbox at full speed, and the host time
#: between probes.
REFERENCE_PROBE_S = 780e-6
BLOCK_S = 0.020


class _Cell:
    __slots__ = ("base", "level", "steps")

    def __init__(self) -> None:
        self.base = 1
        self.level = 2.0
        self.steps = 0

    def step(self, value: int) -> int:
        self.steps += 1
        return self.base + value


_CELL = _Cell()
_TABLE = {index: index * 2 for index in range(64)}
_ROW = list(range(64))
_HEADER = struct.Struct("<IId")
_BODY = b"x" * 84


def probe() -> float:
    """Host seconds the reference work takes right now."""
    cell, table, row, pack, body = _CELL, _TABLE, _ROW, _HEADER.pack, _BODY
    started = perf_counter()
    total = 0
    for i in range(PROBE_ARITHMETIC):
        total += i * i
    for i in range(PROBE_TRAFFIC):
        slot = i & 63
        total += table[slot] + row[slot]
        total += cell.step(slot)
        cell.level = cell.level * 1.0000001 + 0.5
        packed = pack(slot, i, cell.level) + body
        total += len(packed) + packed[3]
    return perf_counter() - started


@dataclass
class Rep:
    """What one rep measured."""

    #: Set-up, timed region and rounds in reference seconds.
    setup_s: float = 0.0
    elapsed_s: float = 0.0
    round_s: List[float] = field(default_factory=list)
    #: The timed region in raw host seconds, probes excluded, and the
    #: host seconds its probes took.
    raw_s: float = 0.0
    probe_s: float = 0.0
    attempted: int = 0
    delivered: int = 0
    payload_bytes: int = 0
    #: The fixed prefix: ascending simulated delays, delivery digest,
    #: payload bytes delivered and simulated seconds spanned.
    prefix_delays: List[float] = field(default_factory=list)
    prefix_digest: int = 0
    prefix_payload_bytes: int = 0
    prefix_sim_s: float = 0.0
    #: ``ru_maxrss`` of the process when the prefix ended.
    prefix_rss_mb: float = 0.0
    errors: List[str] = field(default_factory=list)
    #: Counter snapshots around the timed region, when asked for.
    before: Optional[dict] = None
    after: Optional[dict] = None
    workload: object = None

    @property
    def msgs_per_s(self) -> float:
        return self.delivered / self.elapsed_s

    @property
    def payload_mb_per_s(self) -> float:
        return self.payload_bytes / 1e6 / self.elapsed_s

    def sim_metrics(self) -> dict:
        delays = self.prefix_delays
        return {
            "sim_delay_ms_p50": 1e3 * metrics.percentile(delays, 50),
            "sim_delay_ms_p95": 1e3 * metrics.percentile(delays, 95),
            "sim_goodput_mb_per_sim_s":
                self.prefix_payload_bytes / 1e6 / self.prefix_sim_s,
        }


def timed_setup(workload_cls, seed: int):
    """Build a fresh system, establish its channels and warm it up;
    returns the workload and the reference seconds that took."""
    gc.collect()
    before = probe()
    started = perf_counter()
    workload = workload_cls(seed)
    workload.build()
    workload.warmup()
    raw = perf_counter() - started
    return workload, raw * 2 * REFERENCE_PROBE_S / (before + probe())


def run_rep(
    workload_cls,
    seed: int,
    budget_s: float,
    prefix_rounds: int,
    tracer=None,
    snapshot: Optional[Callable[[object], dict]] = None,
) -> Rep:
    """Build, warm up and time one rep.  ``budget_s`` of 0 stops at the
    prefix, which makes the amount of work fixed."""
    rep = Rep()
    workload, rep.setup_s = timed_setup(workload_cls, seed)
    workload.start_measuring()
    tally = workload.tally
    loop = workload.loop
    gc.collect()
    if snapshot is not None:
        rep.before = snapshot(workload)
    sim_started = loop.now
    before = probe()
    if tracer is not None:
        tracer.start()
    started = block_started = last = perf_counter()
    deadline = started + budget_s
    rounds = block_first = 0
    round_s = rep.round_s
    while True:
        workload.round()
        now = perf_counter()
        round_s.append(now - last)
        last = now
        rounds += 1
        if rounds == prefix_rounds:
            rep.prefix_delays = tally.delays[:]
            rep.prefix_digest = tally.digest
            rep.prefix_payload_bytes = tally.payload_bytes
            rep.prefix_sim_s = loop.now - sim_started
            rep.prefix_rss_mb = peak_rss_mb()
        done = rounds >= prefix_rounds and now >= deadline
        if done:
            workload.drain()
            now = perf_counter()
        if done or now - block_started >= BLOCK_S:
            # Close the block: rescale its host time to reference speed.
            after = probe()
            scale = 2 * REFERENCE_PROBE_S / (before + after)
            rep.raw_s += now - block_started
            rep.elapsed_s += (now - block_started) * scale
            rep.probe_s += after
            for index in range(block_first, rounds):
                round_s[index] *= scale
            before = after
            block_first = rounds
            block_started = last = perf_counter()
            if done:
                break
    if tracer is not None:
        tracer.stop()
    if snapshot is not None:
        rep.after = snapshot(workload)
    rep.prefix_delays.sort()
    rep.attempted = tally.attempted
    rep.delivered = tally.delivered
    rep.payload_bytes = tally.payload_bytes
    rep.errors = workload.leftover_errors()
    rep.workload = workload
    return rep


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (kilobytes on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def consistency_errors(reps: List[Rep], quick: bool) -> List[str]:
    """Checks across reps: the simulated prefix must repeat exactly."""
    errors = []
    for index, rep in enumerate(reps):
        errors.extend(f"rep {index}: {text}" for text in rep.errors)
        if rep.delivered != rep.attempted:
            errors.append(
                f"rep {index}: {rep.attempted} attempted, "
                f"{rep.delivered} delivered intact and in order"
            )
    first = reps[0]
    for index, rep in enumerate(reps[1:], 1):
        if rep.prefix_digest != first.prefix_digest:
            errors.append(
                f"rep {index}: sim_digest {rep.prefix_digest:08x} differs "
                f"from rep 0's {first.prefix_digest:08x}"
            )
        if rep.sim_metrics() != first.sim_metrics():
            errors.append(f"rep {index}: sim_ metrics differ from rep 0's")
    samples = len(first.prefix_delays)
    supported = metrics.supported_percentile(samples)
    if not quick and (supported is None or supported < 95):
        errors.append(
            f"{samples} delay samples do not support a 95th percentile"
        )
    return errors


def end_to_end(workload_cls, seed: int, seconds: float, reps: int,
               quick: bool = False) -> dict:
    """Run the untraced reps of one workload and reduce them."""
    prefix_rounds = (workload_cls.quick_prefix_rounds if quick
                     else workload_cls.prefix_rounds)
    done = []
    for _ in range(reps):
        rep = run_rep(workload_cls, seed, seconds / reps, prefix_rounds)
        rep.workload = None  # let the system go before the next build
        done.append(rep)
    rounds = sorted(s for rep in done for s in rep.round_s)
    attempted = sum(rep.attempted for rep in done)
    delivered = sum(rep.delivered for rep in done)
    per_rep = {
        "msgs_per_s": [rep.msgs_per_s for rep in done],
        "payload_mb_per_s": [rep.payload_mb_per_s for rep in done],
        "round_ms_p50": [1e3 * median(rep.round_s) for rep in done],
        "setup_s": [rep.setup_s for rep in done],
    }
    values = {name: median(series) for name, series in per_rep.items()}
    values["round_ms_p50"] = 1e3 * metrics.percentile(rounds, 50)
    # After the first rep's prefix: a fixed amount of work, where the
    # process total would grow with however many rounds the host managed.
    values["peak_rss_mb"] = done[0].prefix_rss_mb
    values["delivered_share"] = delivered / attempted
    values.update(done[0].sim_metrics())
    spreads = {name: 0.0 for name in values}
    spreads.update(
        (name, metrics.spread(series)) for name, series in per_rep.items()
    )
    return {
        "values": values,
        "spreads": spreads,
        "attempted": attempted,
        "failed": attempted - delivered,
        "errors": consistency_errors(done, quick),
        "sim_digest": f"{done[0].prefix_digest:08x}",
        "notes": {
            "reps": reps,
            "rounds": len(rounds),
            "timed_raw_s": [round(rep.raw_s, 3) for rep in done],
            "host_speed": round(median(rep.raw_s / rep.elapsed_s
                                       for rep in done), 3),
            "raw_msgs_per_s": round(median(rep.delivered / rep.raw_s
                                           for rep in done), 1),
            "delay_samples": len(done[0].prefix_delays),
        },
    }
