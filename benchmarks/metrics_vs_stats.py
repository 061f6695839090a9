"""Every exported metric series against the counter the layer itself keeps.

The oracle of PR 23 (metrics read on demand).  It uses only what both
the push registry of the parent tree and the pull registry have in
common -- ``obs.metrics.snapshot()`` on one side, the layers' own
``*Stats`` objects and counter attributes on the other -- so the same
file runs on either tree::

    PYTHONPATH=src python benchmarks/metrics_vs_stats.py            # compare
    PYTHONPATH=src python benchmarks/metrics_vs_stats.py \
        --recover OLD.metrics.json NEW.metrics.json                  # recover

*compare* runs three observed scenarios (a lossy, fragmenting, secured
LAN stream; eight closed-loop RKOM callers; E17's supervised failover
under chaos) and prints, per metric family, how many ``(labels, value)``
pairs the layers' own counters give and how many of them the snapshot
disagrees with.  The native side is gathered from every counted object the
scenario built, never from the registry: ``__init__`` of each counted
class is wrapped from outside for the length of the run, because a push
registry outlives the streams and queues a failover discards.  The
delays behind ``rms_delay_seconds`` are recorded the same way, at each
RMS's delivery (``Rms._deliver``): a delivered message's ``delay``.

*recover* checks that every series of an old ``.metrics.json`` ``metrics``
section can be read back from a new one: the new series whose labels
contain the old labels sum to the old value; histograms agree in
``count``, ``sum`` and bucket counts.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import importlib.util
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Dict, Iterable, List, Tuple

from repro import DashSystem, DelayBound, DelayBoundType, RmsParams
from repro.core.rms import Rms
from repro.netsim.chaos import ChaosSchedule
from repro.netsim.network import Network
from repro.obs.registry import DEFAULT_LATENCY_BUCKETS
from repro.resilience.session import Session
from repro.sched.cpu import HostCpu
from repro.subtransport.piggyback import PiggybackQueue
from repro.subtransport.st import SubtransportLayer
from repro.transport.flowcontrol import (
    RateBasedEnforcer,
    ReceiverCredit,
    WindowEnforcer,
)
from repro.transport.rkom import RkomService
from repro.transport.stream import StreamConfig

Labels = Tuple[Tuple[str, Any], ...]
RMS_FIELDS = ("messages_sent", "messages_delivered", "messages_dropped",
              "messages_late", "bytes_sent", "bytes_delivered",
              "capacity_violations")
ST_FIELDS = ("st_rms_created", "network_rms_created", "cache_hits",
             "mux_joins", "bundles_sent", "components_sent",
             "fragments_sent", "fragments_received", "partials_discarded",
             "fast_acks_sent", "orphan_components", "control_messages")
RKOM_FIELDS = ("calls", "replies", "retransmissions", "timeouts",
               "duplicate_requests", "requests_served")
FLUSH_REASONS = ("timer", "overflow", "immediate", "forced")
MECHANISMS = (RateBasedEnforcer, WindowEnforcer, ReceiverCredit)


COUNTED = (Rms, HostCpu, Network, SubtransportLayer, PiggybackQueue,
           RkomService, Session, ChaosSchedule, *MECHANISMS)


def _key(**labels: Any) -> Labels:
    return tuple(sorted(labels.items()))


@contextlib.contextmanager
def retained():
    """Every instance of a counted class built inside the block (the
    classes are bases that define ``__init__``: a subclass is listed once,
    by its ``super().__init__``), and per RMS the delay of each message
    it delivered inside the block."""
    built: List[Any] = []
    delays: Dict[Any, List[float]] = defaultdict(list)
    originals = {cls: cls.__dict__["__init__"] for cls in COUNTED}
    deliver = Rms._deliver

    def recording(original):
        def __init__(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)
        return __init__

    def _deliver(self, message, order):
        delivered = self.stats.messages_delivered
        deliver(self, message, order)
        if self.stats.messages_delivered > delivered and message.delay is not None:
            delays[self].append(message.delay)

    for cls, original in originals.items():
        cls.__init__ = recording(original)
    Rms._deliver = _deliver
    try:
        yield built, delays
    finally:
        for cls, original in originals.items():
            cls.__init__ = original
        Rms._deliver = deliver


# -- scenarios ---------------------------------------------------------------

def secured_lossy_lan(seed: int = 7) -> DashSystem:
    """Untrusted LAN at 5% frame loss, privacy + authentication, 4,000 B
    messages (three sealed fragments each) mixed with 64 B ones that
    bundle; the stream is closed at the end."""
    system = DashSystem(seed=seed, observe=True)
    system.add_ethernet(trusted=False, frame_loss_rate=0.05)
    system.add_node("a")
    system.add_node("b")
    params = RmsParams(
        capacity=64 * 1024, max_message_size=4_000,
        delay_bound=DelayBound(0.1, 1e-5),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
        privacy=True, authentication=True,
    )
    session = system.connect("a", "b", port="sec", desired=params)
    system.run(until=2.0)
    rms = session.established.result()
    rms.port.set_handler(lambda message: None)
    for index in range(48):
        size = 4_000 if index % 3 == 0 else 64
        rms.send(bytes([index % 251]) * size)
        if index % 8 == 7:
            system.run(until=system.now + 0.05)
    system.run(until=system.now + 2.0)
    session.close()
    system.run(until=system.now + 0.5)
    return system


def rkom_closed_loop(seed: int = 1) -> DashSystem:
    """Eight closed-loop callers echoing 64 B over a 2%-lossy trusted LAN
    (retransmissions and duplicate requests), then two byte streams of
    8 KB capacity, one ack-windowed and one rate-enforced, each offered
    64 KB at once so all three flow-control mechanisms hold sends."""
    system = DashSystem(seed=seed, observe=True)
    system.add_ethernet(trusted=True, frame_loss_rate=0.02)
    system.add_node("a")
    system.add_node("b")
    system.nodes["b"].rkom.register_handler(
        "echo", lambda payload, sender: payload)
    sessions = [system.connect("a", "b", kind="rkom") for _ in range(8)]
    left = [192]

    def issue(session) -> None:
        left[0] -= 1
        session.call("echo", bytes(64)).add_done_callback(
            lambda handle: left[0] > 0 and issue(session))

    for session in sessions:
        issue(session)
    system.run(until=system.now + 5.0)
    streams = [
        system.connect("a", "b", kind="stream", config=StreamConfig(
            capacity_mode=mode, data_capacity=8 * 1024, receive_buffer=buffer,
            data_max_message=1_024, data_delay_bound=0.05))
        for mode, buffer in (("ack", 32 * 1024), ("rate", 4 * 1024))
    ]
    system.run(until=system.now + 1.0)

    def consume(stream):
        while True:
            yield stream.receive()

    for stream in streams:
        system.context.spawn(consume(stream))
        for _ in range(64):
            stream.send(bytes(1_000))
    system.run(until=system.now + 10.0)
    return system


def failover(seed: int = 17) -> DashSystem:
    """E17's supervised variant, imported from the bench that defines it."""
    path = Path(__file__).resolve().parent / "bench_e17_resilience.py"
    sys.path.insert(0, str(path.parent))
    try:
        spec = importlib.util.spec_from_file_location("bench_e17", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(path.parent))
    return module.run_variant(chaos=True, supervised=True, seed=seed)["system"]


SCENARIOS = {
    "secured_lossy_lan": secured_lossy_lan,
    "rkom_closed_loop": rkom_closed_loop,
    "failover": failover,
}


# -- the native side ---------------------------------------------------------

def native_view(built: List[Any], delays: Dict[Any, List[float]]):
    """``{family: {labels: value}}`` and ``{family: {labels: [samples]}}``
    from the counters of the objects in ``built`` and the ``delays`` their
    deliveries had.  A family the layers cannot give (it exists only in
    the registry) is absent here and reported as such."""
    counters: Dict[str, Dict[Labels, float]] = defaultdict(
        lambda: defaultdict(float))
    samples: Dict[str, Dict[Labels, List[float]]] = defaultdict(
        lambda: defaultdict(list))
    waits: Dict[Labels, int] = {}
    for obj in built:
        if isinstance(obj, Rms):
            key = _key(layer=obj.layer, rms=obj.name)
            for name in RMS_FIELDS:
                counters[f"rms_{name}"][key] += getattr(obj.stats, name)
            counters["rms_messages_out_of_order"][key] += obj.stats.out_of_order
            samples["rms_delay_seconds"][key].extend(delays.get(obj, ()))
        elif isinstance(obj, HostCpu):
            key = _key(cpu=obj.name)
            counters["cpu_items_run"][key] += obj.items_run
            counters["cpu_deadline_misses"][key] += obj.deadline_misses
            waits[key] = obj.items_run
        elif isinstance(obj, Network):
            key = _key(network=obj.name)
            counters["net_setup_count"][key] += obj.setup_count
            counters["net_frames_delivered"][key] += obj.frames_delivered
            counters["net_frames_corrupted"][key] += obj.frames_corrupted_delivered
            for kind, count in getattr(obj, "control_drops", {}).items():
                counters["net_control_drops"][
                    _key(network=obj.name, kind=kind)] += count
        elif isinstance(obj, SubtransportLayer):
            key = _key(host=obj.host.name)
            for name in ST_FIELDS:
                family = name if name.startswith("st_") else f"st_{name}"
                counters[family][key] += getattr(obj.stats, name)
            for network, count in getattr(
                    obj.stats, "peer_retargets", {}).items():
                counters["st_peer_retargets"][
                    _key(host=obj.host.name, network=network)] += count
        elif isinstance(obj, PiggybackQueue):
            flushes = getattr(obj, "flushes", None) or {
                reason: getattr(obj, f"flushes_{reason}")
                for reason in FLUSH_REASONS
            }
            for reason, count in flushes.items():
                counters["st_piggyback_flushes"][_key(reason=reason)] += count
            for size, count in getattr(obj, "bundle_components", {}).items():
                counters["st_bundle_components"][_key(components=size)] += count
        elif isinstance(obj, RkomService):
            key = _key(host=obj.st.host.name)
            for name in RKOM_FIELDS:
                counters[f"rkom_{name}"][key] += getattr(obj.stats, name)
            for name in ("channel_failures", "stray_replies"):
                if hasattr(obj.stats, name):
                    counters[f"rkom_{name}"][key] += getattr(obj.stats, name)
        elif isinstance(obj, MECHANISMS):
            counters["fc_sends_delayed"][
                _key(mechanism=obj.mechanism)] += obj.sends_delayed
        elif isinstance(obj, Session):
            counters["session_queue_drops"][
                _key(session=obj.name)] += obj.stats.queue_drops
            for kind, count in getattr(obj.stats, "transitions", {}).items():
                counters["rms_failovers_total"][
                    _key(session=obj.name, kind=kind)] += count
        elif isinstance(obj, ChaosSchedule):
            for kind, count in Counter(e.kind for e in obj.log).items():
                counters["chaos_events_total"][
                    _key(schedule=obj.name, kind=kind)] += count
    return counters, samples, waits


# -- the comparison ----------------------------------------------------------

def _matching(series: Iterable[dict], key: Labels) -> List[dict]:
    wanted = dict(key)
    return [
        entry for entry in series
        if all(entry["labels"].get(name) == value
               for name, value in wanted.items())
    ]


def _bucketed(values: List[float]) -> List[int]:
    counts = [0] * (len(DEFAULT_LATENCY_BUCKETS) + 1)
    for value in values:
        counts[bisect.bisect_left(DEFAULT_LATENCY_BUCKETS, value)] += 1
    return counts


def compare(build) -> Tuple[List[str], List[str]]:
    """(report lines, disagreement lines) of one observed scenario."""
    with retained() as (built, delays):
        system = build()
    snapshot = json.loads(json.dumps(system.obs.metrics.snapshot(), default=str))
    counters, samples, waits = native_view(built, delays)
    lines: List[str] = []
    wrong: List[str] = []
    covered = set()
    if "session_queue_drops" not in snapshot:  # its name on the PR 22 tree
        counters["session_requeue_drops"] = counters.pop("session_queue_drops")
    for family in sorted(counters):
        series = snapshot.get(family, {}).get("series", [])
        bad = 0
        for key, value in sorted(counters[family].items(), key=repr):
            found = _matching(series, key)
            exported = sum(entry["value"] for entry in found)
            if exported != value:
                bad += 1
                wrong.append(
                    f"{family}{dict(key)}: snapshot {exported:g} "
                    f"({len(found)} series), the layer says {value:g}")
        covered.add(family)
        lines.append(
            f"  {family:<30}{len(counters[family]):>4} native values, "
            f"{len(series):>3} series, {bad} disagree")
    for family in sorted(samples):
        series = snapshot.get(family, {}).get("series", [])
        bad = 0
        for key, values in sorted(samples[family].items(), key=repr):
            found = _matching(series, key)
            count = sum(entry["count"] for entry in found)
            total = sum(entry["sum"] for entry in found)
            buckets = [
                sum(column) for column in
                zip(*(entry["buckets"]["counts"] for entry in found))
            ] or _bucketed([])
            if (count, buckets) != (len(values), _bucketed(values)) or abs(
                    total - sum(values)) > 1e-9 * max(1.0, abs(total)):
                bad += 1
                wrong.append(
                    f"{family}{dict(key)}: snapshot count {count} sum "
                    f"{total!r}, the layer says {len(values)} / "
                    f"{sum(values)!r}")
        covered.add(family)
        lines.append(
            f"  {family:<30}{len(samples[family]):>4} sample lists,  "
            f"{len(series):>3} series, {bad} disagree")
    family = "cpu_queue_wait_seconds"
    series = snapshot.get(family, {}).get("series", [])
    bad = 0
    for key, items in sorted(waits.items()):
        count = sum(entry["count"] for entry in _matching(series, key))
        if count != items:
            bad += 1
            wrong.append(
                f"{family}{dict(key)}: snapshot count {count}, the CPU ran "
                f"{items} items")
    covered.add(family)
    lines.append(
        f"  {family:<30}{len(waits):>4} item counts,   {len(series):>3} "
        f"series, {bad} disagree (count only: the waits have no native list)")
    only = sorted(set(snapshot) - covered)
    if only:
        lines.append(
            "  exported but not compared here (this file names no counter "
            "of the layer's own for it): " + ", ".join(only))
    return lines, wrong


def recover(old: dict, new: dict) -> List[str]:
    """Series of ``old`` that ``new`` does not give back; [] when none."""
    lost: List[str] = []
    for family, body in sorted(old.items()):
        series = new.get(family, {}).get("series", [])
        for entry in body["series"]:
            found = _matching(series, _key(**entry["labels"]))
            where = f"{family}{entry['labels']}"
            if not found:
                lost.append(f"{where}: no series")
            elif body["kind"] == "histogram":
                counts = [sum(column) for column in zip(
                    *(item["buckets"]["counts"] for item in found))]
                got = (sum(item["count"] for item in found), counts)
                total = sum(item["sum"] for item in found)
                if got != (entry["count"], entry["buckets"]["counts"]) or abs(
                        total - entry["sum"]) > 1e-9 * max(1.0, abs(total)):
                    lost.append(f"{where}: histogram differs")
            elif sum(item["value"] for item in found) != entry["value"]:
                lost.append(
                    f"{where}: {sum(item['value'] for item in found):g} "
                    f"!= {entry['value']:g}")
    return lost


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--recover", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.recover:
        old, new = (
            json.loads(Path(path).read_text())["metrics"]
            for path in args.recover
        )
        lost = recover(old, new)
        total = sum(len(body["series"]) for body in old.values())
        print(f"{args.recover[0]} -> {args.recover[1]}: {total} series in "
              f"{len(old)} families, {len(lost)} unrecovered")
        for line in lost:
            print(f"  LOST {line}")
        return 1 if lost else 0
    failed = 0
    for name, build in SCENARIOS.items():
        lines, wrong = compare(build)
        print(f"# {name}: {len(wrong)} disagreements")
        print("\n".join(lines))
        for line in wrong:
            print(f"  DIFF {line}")
        failed += len(wrong)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
