"""The per-layer ledger: counts from public counters, times from spans.

A ``--trace 1`` run makes three untraced reps of fixed work (the
workload's prefix) and one traced rep of the same work.  Counts are
differences of the stack's public counters around the first untraced
rep's timed region; times are span self times of the traced rep;
``trace.overhead_ratio`` is traced over untraced wall time for the same
work.  None of it feeds the end-to-end numbers.

Counters are read defensively: one that a later change removes reads as
:data:`metrics.MISSING` instead of breaking the benchmark.
"""

from __future__ import annotations

import gc
import sys
from statistics import median
from typing import Dict, Iterable, List, Optional

from . import metrics
from .harness import Rep, consistency_errors, run_rep
from .trace import LAYERS, UNATTRIBUTED, Tracer, layer_report

#: How many untraced reps a traced run makes (the first is counted).
UNTRACED_REPS = 3


def _instances(*classes) -> Dict[type, list]:
    """Live instances of ``classes``: timer groups, links and forwarding
    engines hang off private attributes, the collector finds them."""
    found = {cls: [] for cls in classes}
    for obj in gc.get_objects():
        bucket = found.get(type(obj))
        if bucket is not None:
            bucket.append(obj)
    return found


def _total(objects: Iterable, path: str) -> Optional[float]:
    """Sum of ``obj.<path>`` over ``objects``; None when the attribute is
    gone."""
    total = 0
    for obj in objects:
        for part in path.split("."):
            obj = getattr(obj, part, None)
            if obj is None:
                return None
        total += obj
    return total


def snapshot(workload) -> dict:
    """Read every public counter the ledger uses."""
    from repro.netsim.routing import ForwardingEngine
    from repro.netsim.topology import Link
    from repro.sim.events import TimerGroup

    system = workload.system
    context = system.context
    found = _instances(TimerGroup, Link, ForwardingEngine)
    links = [link for link in found[Link] if link.context is context]
    engines = [
        engine for engine in found[ForwardingEngine]
        if engine.network.context is context
    ]
    nodes = list(system.nodes.values())
    networks = list(system.networks.values())
    st = [node.st for node in nodes]
    rkom = [node.rkom for node in nodes]
    # The ST RMS of every data channel: a byte stream holds its own.
    channels = [
        getattr(session.established.result(), "data_rms",
                session.established.result())
        for session in workload.sessions
        if session.kind != "rkom" and session.established.done
        and not session.established.failed
    ]
    snap = {
        "events": context.loop.events_run,
        "timer_fires": _total(found[TimerGroup], "fires"),
        "timers_live": _total(found[TimerGroup], "live"),
        "cpu_items": _total(nodes, "cpu.items_run"),
        "frames": _total(networks, "frames_delivered"),
        "hop_frames": _total(links, "stats.frames_transmitted"),
        "drops_overrun": _total(links, "stats.frames_dropped_overrun"),
        "drops_loss": _total(links, "stats.frames_dropped_loss"),
        "max_queue_bytes": max(
            (link.stats.max_queue_bytes for link in links), default=0
        ),
        "resolutions": _total(
            [n for n in networks if hasattr(n, "route_resolutions")],
            "route_resolutions",
        ),
        "capacity_violations": _total(channels, "stats.capacity_violations"),
        "alloc_blocks": sys.getallocatedblocks(),
        "gc_collections": sum(gen["collections"] for gen in gc.get_stats()),
    }
    for name in ("table_builds", "plan_compiles", "scoped_table_drops",
                 "scoped_plan_drops", "full_invalidations", "dag_prunes",
                 "flow_pins"):
        snap[name] = _total(engines, name)
    for name in ("bundles_sent", "components_sent", "fragments_sent",
                 "control_messages", "st_rms_created", "cache_hits",
                 "network_rms_created"):
        snap[name] = _total(st, f"stats.{name}")
    for name in ("calls", "retransmissions", "timeouts"):
        snap[f"rkom_{name}"] = _total(rkom, f"stats.{name}")
    return snap


def _sum(*parts):
    return None if None in parts else sum(parts)


def _ratio(top, bottom):
    if top is None or bottom is None:
        return metrics.MISSING
    return top / bottom if bottom else 0.0


def count_metrics(rep: Rep, live_after_close) -> dict:
    """The ledger's count columns, from one counted rep."""
    before, after = rep.before, rep.after
    workload = rep.workload

    def delta(key):
        if None in (before[key], after[key]):
            return None
        return after[key] - before[key]

    def reading(value):
        return metrics.MISSING if value is None else value

    msgs = rep.delivered
    flaps = workload.flaps
    # The workloads time their own phases in raw host seconds; the rep's
    # overall correction brings them to reference speed.
    speed = rep.elapsed_s / rep.raw_s
    calls = delta("rkom_calls")
    drops = _sum(delta("drops_overrun"), delta("drops_loss"))
    scoped = _sum(delta("scoped_table_drops"), delta("scoped_plan_drops"))
    # Set-up figures cover the whole life of the system, not the timed
    # region: channels are established before it (and again on churn).
    setups = after["st_rms_created"]
    lookups = _sum(after["cache_hits"], after["network_rms_created"])
    rounds = sorted(rep.round_s)
    top = metrics.supported_percentile(len(rounds))
    return {
        "sim.events.events_per_msg": _ratio(delta("events"), msgs),
        "sim.events.queue_depth_max": workload.queue_depth_max,
        "sim.timers.fires_per_msg": _ratio(delta("timer_fires"), msgs),
        "sim.timers.live_after_close": reading(live_after_close),
        "sched.cpu.items_per_msg": _ratio(delta("cpu_items"), msgs),
        "netsim.link.frames_per_msg": _ratio(delta("frames"), msgs),
        "netsim.link.hop_events_per_msg": _ratio(delta("hop_frames"), msgs),
        "netsim.link.drops": reading(drops),
        "netsim.link.max_queue_bytes": after["max_queue_bytes"],
        "netsim.routing.resolutions_per_msg":
            _ratio(delta("resolutions"), msgs),
        "netsim.routing.table_builds_per_flap":
            _ratio(delta("table_builds"), flaps),
        "netsim.routing.plan_compiles_per_flap":
            _ratio(delta("plan_compiles"), flaps),
        "netsim.routing.scoped_drops_per_flap": _ratio(scoped, flaps),
        "netsim.routing.full_invalidations":
            reading(delta("full_invalidations")),
        "netsim.routing.dag_prunes": reading(delta("dag_prunes")),
        "netsim.routing.flow_pins": reading(after["flow_pins"]),
        "netsim.routing.flap_ms_p50":
            1e3 * speed
            * median(getattr(workload, "transition_s", None) or [0.0]),
        "netsim.routing.can_reach_us":
            1e6 * speed
            * median(getattr(workload, "sweep_s", None) or [0.0])
            / max(len(getattr(workload, "probes", ())), 1),
        "subtransport.piggyback.components_per_bundle":
            _ratio(delta("components_sent"), delta("bundles_sent")),
        "subtransport.st.fragments_per_msg":
            _ratio(delta("fragments_sent"), msgs),
        "subtransport.st.control_msgs_per_setup":
            _ratio(after["control_messages"], setups),
        "subtransport.st.establish_ms_p50":
            1e3 * speed * median(workload.establish_s or [0.0]),
        "subtransport.st.netrms_cache_hit_share":
            _ratio(after["cache_hits"], lookups),
        # Loop events per call only where every operation is a call.
        "transport.rkom.events_per_call":
            _ratio(delta("events"), calls) if calls == rep.attempted else 0.0,
        "transport.rkom.retransmissions":
            reading(delta("rkom_retransmissions")),
        "transport.rkom.timeouts": reading(delta("rkom_timeouts")),
        "transport.flowcontrol.capacity_violations":
            reading(delta("capacity_violations")),
        "core.alloc_blocks_per_msg":
            max(0.0, _ratio(delta("alloc_blocks"), msgs)),
        "core.gc_collections_per_kmsg":
            _ratio(delta("gc_collections"), msgs / 1e3),
        "driver.round_ms_p90":
            1e3 * metrics.percentile(rounds, min(top or 50, 90)),
    }


def span_metrics(report: dict, msgs: int, events, untraced_s: float,
                 span_overhead_ns: float) -> dict:
    """The ledger's time columns, from the traced rep's spans (already in
    reference nanoseconds)."""
    layers = report["layers"]
    names = report["names"]
    wall_ns = report["wall_ns"]
    values = {}
    for layer in LAYERS:
        cell = layers[layer]
        values[f"{layer}.self_ns_per_msg"] = cell["self_ns"] / msgs
        values[f"{layer}.calls_per_msg"] = cell["calls"] / msgs
    ledger_ns = sum(cell["self_ns"] for cell in layers.values())
    values["sim.events.dispatch_ns_per_event"] = _ratio(
        layers["sim.events"]["self_ns"], events)

    def family(suffixes):
        cells = [cell for name, cell in names.items()
                 if cell["layer"] == "security" and name.endswith(suffixes)]
        return (sum(cell["self_ns"] for cell in cells),
                sum(cell["bytes"] for cell in cells))

    seal_ns, seal_bytes = family((".seal", ".open", ".transform"))
    mac_ns, mac_bytes = family((".mac", ".verify", ".mac_tag", ".mac_ok"))
    values["security.seal_ns_per_byte"] = _ratio(seal_ns, seal_bytes)
    values["security.mac_ns_per_byte"] = _ratio(mac_ns, mac_bytes)
    values["security.bytes_per_msg"] = (seal_bytes + mac_bytes) / msgs
    admits = [cell for name, cell in names.items()
              if name.endswith(".try_admit")]
    values["transport.flowcontrol.refused_share"] = _ratio(
        sum(cell["refused"] for cell in admits),
        sum(cell["calls"] for cell in admits))
    values["driver.self_share"] = layers["driver"]["self_ns"] / ledger_ns
    values["trace.unattributed_share"] = (
        layers[UNATTRIBUTED]["self_ns"] / ledger_ns)
    values["trace.overhead_ratio"] = wall_ns / 1e9 / untraced_s
    values["trace.span_overhead_ns"] = span_overhead_ns
    values["trace.spans_per_msg"] = report["spans"] / msgs
    return values


def per_layer(workload_cls, seed: int, quick: bool = False,
              spans_path: Optional[str] = None) -> dict:
    """Run the counted, untraced and traced reps of one workload."""
    prefix_rounds = (workload_cls.quick_prefix_rounds if quick
                     else workload_cls.prefix_rounds)
    untraced: List[Rep] = []
    counted = run_rep(workload_cls, seed, 0.0, prefix_rounds,
                      snapshot=snapshot)
    counted.workload.close()
    live_after_close = snapshot(counted.workload)["timers_live"]
    values = count_metrics(counted, live_after_close)
    counted.workload = None
    untraced.append(counted)
    for _ in range(0 if quick else UNTRACED_REPS - 1):
        rep = run_rep(workload_cls, seed, 0.0, prefix_rounds)
        rep.workload = None
        untraced.append(rep)
    untraced_s = median(rep.elapsed_s for rep in untraced)
    values["driver.rep_spread"] = metrics.spread(
        [rep.msgs_per_s for rep in untraced])

    tracer = Tracer()
    tracer.install()
    try:
        traced = run_rep(workload_cls, seed, 0.0, prefix_rounds,
                         tracer=tracer)
    finally:
        tracer.uninstall()
    traced.workload = None
    # What one span costs: the traced rep did the same work as the
    # untraced ones, so the extra time is the wrappers'.
    span_overhead_ns = max(
        0.0, (traced.elapsed_s - untraced_s) * 1e9 / len(tracer.starts))
    report = layer_report(
        tracer, span_overhead_ns,
        scale=traced.elapsed_s / traced.raw_s,
        root_excluded_ns=int(traced.probe_s * 1e9),
    )
    events = None
    if counted.before["events"] is not None:
        events = counted.after["events"] - counted.before["events"]
    values.update(span_metrics(report, traced.delivered, events, untraced_s,
                               span_overhead_ns))
    if spans_path is not None:
        tracer.write_jsonl(spans_path)

    reps = untraced + [traced]
    errors = consistency_errors(reps, quick)
    if not quick:
        if values["driver.self_share"] > metrics.DRIVER_SELF_SHARE_MAX:
            errors.append(
                f"driver.self_share {values['driver.self_share']:.3f} exceeds "
                f"{metrics.DRIVER_SELF_SHARE_MAX}"
            )
        if values["trace.unattributed_share"] > metrics.UNATTRIBUTED_SHARE_MAX:
            errors.append(
                f"trace.unattributed_share "
                f"{values['trace.unattributed_share']:.3f} exceeds "
                f"{metrics.UNATTRIBUTED_SHARE_MAX}"
            )
    attempted = sum(rep.attempted for rep in reps)
    return {
        "values": values,
        "attempted": attempted,
        "failed": attempted - sum(rep.delivered for rep in reps),
        "errors": errors,
        "sim_digest": f"{counted.prefix_digest:08x}",
        "notes": {
            "untraced_s": [round(rep.elapsed_s, 3) for rep in untraced],
            "traced_s": round(traced.elapsed_s, 3),
            "spans": report["spans"],
            "top_names": sorted(
                ((name, cell["layer"],
                  round(cell["self_ns"] / traced.delivered),
                  round(cell["calls"] / traced.delivered, 3))
                 for name, cell in report["names"].items()),
                key=lambda row: -row[2],
            )[:12],
        },
    }
