"""Metric declarations and the statistics the benchmark reports with.

This module is the single source of the metric names: ``BENCHMARK.json``
at the repo root is :func:`manifest` written out, and the self-tests
check both that the file matches and that every declared name is
emitted.

Two clocks.  *Host time* is ``time.perf_counter()`` of the benchmark
process; *simulated time* is ``DashSystem.now``.  A metric whose name
starts with ``sim_`` is in simulated time and repeats exactly for a
fixed seed; every other metric is in host time.
"""

from __future__ import annotations

import math
from statistics import median
from typing import List, Optional, Sequence

from .trace import LAYERS

COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]
#: Host seconds one run spends in timed regions, split over ``REPS`` reps.
RUN_SECONDS = 15
REPS = 5

#: (name, unit, better, bound).  ``bound`` is the share of the parent's
#: median by which the metric may get worse before a change is a
#: regression.  It is set from the run-to-run spread: between the
#: quartiles of ten runs the three host-time rates moved by 1-5% of their
#: median, one cell by 6% in a busy hour (README.md has a table); the
#: bound is three times the usual spread.  ``setup_s`` gets the widest.
END_TO_END = [
    ("msgs_per_s", "1/s", "higher", 0.15),
    ("payload_mb_per_s", "MB/s", "higher", 0.15),
    ("round_ms_p50", "ms", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("delivered_share", "fraction", "higher", 0.001),
    ("sim_delay_ms_p50", "sim_ms", "lower", 0.03),
    ("sim_delay_ms_p95", "sim_ms", "lower", 0.03),
    ("sim_goodput_mb_per_sim_s", "MB/sim_s", "higher", 0.03),
]

#: (name, unit, better) beyond the two figures every layer reports.
_LAYER_EXTRAS = [
    ("sim.events.events_per_msg", "count", "lower"),
    ("sim.events.dispatch_ns_per_event", "ns", "lower"),
    ("sim.events.queue_depth_max", "count", "lower"),
    ("sim.timers.fires_per_msg", "count", "lower"),
    ("sim.timers.live_after_close", "count", "lower"),
    ("sched.cpu.items_per_msg", "count", "lower"),
    ("netsim.link.frames_per_msg", "count", "lower"),
    ("netsim.link.hop_events_per_msg", "count", "lower"),
    ("netsim.link.drops", "count", "lower"),
    ("netsim.link.max_queue_bytes", "B", "lower"),
    ("netsim.routing.resolutions_per_msg", "count", "lower"),
    ("netsim.routing.table_builds_per_flap", "count", "lower"),
    ("netsim.routing.plan_compiles_per_flap", "count", "lower"),
    ("netsim.routing.scoped_drops_per_flap", "count", "lower"),
    ("netsim.routing.full_invalidations", "count", "lower"),
    ("netsim.routing.dag_prunes", "count", "lower"),
    ("netsim.routing.flow_pins", "count", "higher"),
    ("netsim.routing.flap_ms_p50", "ms", "lower"),
    ("netsim.routing.can_reach_us", "us", "lower"),
    ("subtransport.piggyback.components_per_bundle", "count", "higher"),
    ("subtransport.st.fragments_per_msg", "count", "lower"),
    ("subtransport.st.control_msgs_per_setup", "count", "lower"),
    ("subtransport.st.establish_ms_p50", "ms", "lower"),
    ("subtransport.st.netrms_cache_hit_share", "fraction", "higher"),
    ("security.seal_ns_per_byte", "ns/B", "lower"),
    ("security.mac_ns_per_byte", "ns/B", "lower"),
    ("security.bytes_per_msg", "B", "lower"),
    ("transport.rkom.events_per_call", "count", "lower"),
    ("transport.rkom.retransmissions", "count", "lower"),
    ("transport.rkom.timeouts", "count", "lower"),
    ("transport.flowcontrol.capacity_violations", "count", "lower"),
    ("transport.flowcontrol.refused_share", "fraction", "lower"),
    ("core.alloc_blocks_per_msg", "count", "lower"),
    ("core.gc_collections_per_kmsg", "count", "lower"),
    ("driver.self_share", "fraction", "lower"),
    ("driver.round_ms_p90", "ms", "lower"),
    ("driver.rep_spread", "fraction", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_share", "fraction", "lower"),
    ("trace.span_overhead_ns", "ns", "lower"),
    ("trace.spans_per_msg", "count", "lower"),
]

PER_LAYER = [
    entry
    for layer in LAYERS
    for entry in (
        (f"{layer}.self_ns_per_msg", "ns", "lower"),
        (f"{layer}.calls_per_msg", "count", "lower"),
    )
] + _LAYER_EXTRAS

#: Health limits of the benchmark itself, checked on every traced run.
DRIVER_SELF_SHARE_MAX = 0.15
UNATTRIBUTED_SHARE_MAX = 0.10

#: Printed in place of a counter the stack no longer exposes.  Counts
#: are never negative, so the sentinel cannot be mistaken for a reading.
MISSING = -1


def manifest(workloads) -> dict:
    """The content of ``BENCHMARK.json`` for the given workload classes."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": workload.name, "why": workload.why}
            for workload in workloads
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


# -- statistics --------------------------------------------------------------

#: Percentiles a timing may be reported at.
PERCENTILES = (50, 90, 95, 99, 99.9)
#: Samples that must lie beyond a percentile for it to be reported.
SAMPLES_BEYOND = 10


def supported_percentile(count: int) -> Optional[float]:
    """The highest of :data:`PERCENTILES` with at least
    :data:`SAMPLES_BEYOND` of ``count`` samples beyond it."""
    best = None
    for candidate in PERCENTILES:
        if count * (100 - candidate) / 100 >= SAMPLES_BEYOND - 1e-9:
            best = candidate
    return best


def percentile(ordered: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not ordered:
        return math.nan
    rank = math.ceil(len(ordered) * share / 100) - 1
    return ordered[min(max(rank, 0), len(ordered) - 1)]


def spread(values: Sequence[float]) -> float:
    """(max - min) / median: the rep spread recorded per cell."""
    middle = median(values)
    if not values or not middle:
        return 0.0
    return (max(values) - min(values)) / middle


def finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def names(declared) -> List[str]:
    return [entry[0] for entry in declared]
