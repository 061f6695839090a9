"""Tests for the observability metrics registry.

The registry holds no counter of its own: it reads what the layers count
(``repro.obs.registry``).  ``TestSnapshotIsTheStats`` is the oracle that
was run against the push registry of PR 22 first
(``benchmarks/metrics_vs_stats.py``,
``benchmarks/results/pr23_metrics_vs_parent.txt``), kept as a test.
"""

from __future__ import annotations

import gc
import importlib.util
import json
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import pytest

from repro import DashSystem, DelayBound, DelayBoundType, RmsParams
from repro.core.rms import RmsStats
from repro.errors import ParameterError
from repro.obs import NullObservability, Observability
from repro.obs.registry import Histogram, MetricsRegistry, families
from repro.sim.context import SimContext
from repro.subtransport.st import StStats

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "metrics_vs_stats.py"
spec = importlib.util.spec_from_file_location("metrics_vs_stats", SCRIPT)
metrics_vs_stats = importlib.util.module_from_spec(spec)
spec.loader.exec_module(metrics_vs_stats)


@dataclass
class Stats:
    sent: int = 0
    delays: List[float] = field(default_factory=list)
    drops: Dict[str, int] = field(default_factory=dict)


FAMILIES = families("x", Stats, delays="x_delay_seconds", drops="x_drops{kind}")


class TestInstruments:
    def test_histogram_buckets_and_mean(self):
        histogram = Histogram(bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 100.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.mean == pytest.approx(26.25)
        assert histogram.bucket_counts == [1, 1, 1, 1]

    def test_histogram_quantile_interpolates(self):
        histogram = Histogram(bounds=(1.0, 2.0))
        for _ in range(10):
            histogram.observe(1.5)  # all in the (1, 2] bucket
        q = histogram.quantile(0.5)
        assert 1.0 <= q <= 2.0

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ParameterError):
            Histogram(bounds=(2.0, 1.0))

    def test_quantile_rejects_bad_fraction(self):
        with pytest.raises(ParameterError):
            Histogram().quantile(1.5)

    def test_histogram_absorbs_samples_and_histograms(self):
        one, two = Histogram(bounds=(1.0, 2.0)), Histogram(bounds=(1.0, 2.0))
        one.absorb([0.5, 1.5])
        two.absorb([1.5, 9.0])
        one.absorb(two)
        assert (one.count, one.sum, one.bucket_counts) == (4, 12.5, [1, 2, 1])
        with pytest.raises(ParameterError):
            one.absorb(Histogram(bounds=(1.0,)))


class TestFamilies:
    def test_prefix_rename_and_key_label(self):
        assert FAMILIES == {
            "sent": ("x_sent", None, "counter"),
            "delays": ("x_delay_seconds", None, "counter"),
            "drops": ("x_drops", "kind", "counter"),
        }
        assert families("t", ("live",), kind="gauge") == {
            "live": ("t_live", None, "gauge")
        }

    def test_a_rename_of_nothing_is_refused(self):
        with pytest.raises(ParameterError):
            families("x", ("sent",), send="x_sent_total")


class TestRegistry:
    def test_same_labels_same_instrument(self):
        """Sources under one label set (in any order) are one series: the
        incarnations of a re-established stream add up."""
        registry = MetricsRegistry()
        first, second = Stats(sent=1, delays=[0.25]), Stats(sent=2, delays=[0.5])
        registry.watch(first, FAMILIES, layer="st", rms="r1")
        registry.watch(second, FAMILIES, rms="r1", layer="st")
        assert registry.get("x_sent", layer="st", rms="r1") == 3
        first.sent += 10
        assert registry.get("x_sent", rms="r1", layer="st") == 13
        merged = registry.get("x_delay_seconds", layer="st", rms="r1")
        assert (merged.count, merged.sum) == (2, 0.75)
        assert len(registry.snapshot()["x_sent"]["series"]) == 1

    def test_distinct_labels_distinct_series(self):
        registry = MetricsRegistry()
        registry.watch(Stats(sent=1), FAMILIES, rms="r1")
        registry.watch(Stats(sent=2), FAMILIES, rms="r2")
        series = {
            entry["labels"]["rms"]: entry["value"]
            for entry in registry.snapshot()["x_sent"]["series"]
        }
        assert series == {"r1": 1, "r2": 2}

    def test_a_dict_is_one_series_per_key(self):
        registry = MetricsRegistry()
        stats = Stats()
        registry.watch(stats, FAMILIES, rms="r1")
        assert registry.snapshot()["x_sent"]["series"][0]["value"] == 0
        assert "x_drops" not in registry.snapshot()  # no key yet, no series
        stats.drops["lost"] = 2
        assert registry.get("x_drops", rms="r1", kind="lost") == 2
        with pytest.raises(ParameterError):  # the key label was not named
            unlabeled = MetricsRegistry()
            unlabeled.watch(stats, families("x", ("drops",)))
            unlabeled.snapshot()

    def test_a_method_is_called_and_an_owned_histogram_exports_as_is(self):
        class Source:
            def __init__(self):
                self.wait = Histogram(bounds=(1.0,))

            def sizes(self):
                return {"a": 1, "b": 2}

        source = Source()
        source.wait.observe(0.5)
        registry = MetricsRegistry()
        registry.watch(source, families(
            "y", ("wait", "sizes"), kind="gauge", sizes="y_size{index}"))
        snapshot = registry.snapshot()
        assert snapshot["y_size"]["kind"] == "gauge"
        assert registry.get("y_size", index="b") == 2
        assert snapshot["y_wait"]["kind"] == "histogram"
        assert snapshot["y_wait"]["series"][0]["buckets"] == {
            "le": [1.0], "counts": [1, 0]}

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.watch(Stats(), FAMILIES, rms="r1")
        registry.watch(Stats(), families("x", ("delays",), delays="x_sent"), rms="r2")
        with pytest.raises(ParameterError):
            registry.snapshot()

    def test_label_name_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.watch(Stats(), FAMILIES, rms="r1")
        registry.watch(Stats(), FAMILIES, host="a")
        with pytest.raises(ParameterError):
            registry.snapshot()

    def test_what_cannot_be_a_series_is_refused(self):
        registry = MetricsRegistry()
        registry.watch(Stats(sent="many"), FAMILIES)
        with pytest.raises(ParameterError):
            registry.snapshot()

    def test_get_existing_and_missing(self):
        registry = MetricsRegistry()
        registry.watch(Stats(sent=4), FAMILIES, rms="r1")
        assert registry.get("x_sent", rms="r1") == 4
        assert registry.get("x_sent", rms="r2") is None
        assert registry.get("x_sent") is None
        assert registry.get("y") is None

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.watch(Stats(sent=3, delays=[0.01]), FAMILIES, layer="st", rms="r1")
        parsed = json.loads(json.dumps(registry.snapshot()))
        assert parsed["x_sent"]["kind"] == "counter"
        assert parsed["x_sent"]["series"][0]["value"] == 3
        histogram = parsed["x_delay_seconds"]["series"][0]
        assert parsed["x_delay_seconds"]["kind"] == "histogram"
        assert histogram["count"] == 1
        assert "p50" in histogram and "p99" in histogram
        assert "buckets" in histogram


class TestNullRegistry:
    """The registry of an unobserved context: the off facade itself."""

    def test_disabled_and_stateless(self):
        obs = SimContext().obs
        assert not obs.enabled
        assert obs.metrics is obs
        assert obs.metrics.watch(Stats(sent=100), FAMILIES, rms="r1") is None
        assert vars(obs) == {"metrics": obs}

    def test_two_instances_share_nothing_mutable(self):
        one, two = SimContext().obs, SimContext().obs
        assert one is not two
        assert [
            name for name, value in vars(NullObservability).items()
            if isinstance(value, (dict, list, set))
        ] == []

    @pytest.mark.parametrize("make", [RmsStats, StStats])
    def test_watch_retains_nothing(self, make):
        """Obs-off ``peak_rss_mb`` depends on it: a closed stream's stats
        must be collectable although they were registered."""
        context = SimContext()
        stats = make()
        context.obs.metrics.watch(stats, FAMILIES, rms="r1")
        assert not any(
            referrer is context.obs.metrics or referrer is context.obs
            for referrer in gc.get_referrers(stats)
        )

        class Probe:
            pass

        probe = Probe()
        context.obs.metrics.watch(probe, FAMILIES)
        gone = weakref.ref(probe)
        del probe
        gc.collect()
        assert gone() is None


class TestObservabilityFacade:
    def test_context_defaults_to_null(self):
        context = SimContext()
        assert not context.obs.enabled
        assert isinstance(context.obs, NullObservability)
        # The whole disabled path is one attribute check: no tracer.
        assert context.obs.spans is None

    def test_observe_flag_enables(self):
        context = SimContext(observe=True)
        assert context.obs.enabled
        assert isinstance(context.obs, Observability)
        assert context.obs.spans.new_trace() == 1


class TestSnapshotIsTheStats:
    """Every exported value is the attribute it was read from."""

    @pytest.mark.parametrize("scenario", sorted(metrics_vs_stats.SCENARIOS))
    def test_every_series_equals_the_layers_own_counter(self, scenario):
        lines, wrong = metrics_vs_stats.compare(metrics_vs_stats.SCENARIOS[scenario])
        assert wrong == []
        assert len(lines) > 30

    def test_by_identity_of_source(self):
        """RMS / ST / RKOM / CPU / link / network / flow control /
        resilience: bump the layer's attribute, the registry says so."""
        system = DashSystem(seed=3, observe=True)
        lan = system.add_ethernet(name="lan", trusted=True)
        a, b = system.add_node("a"), system.add_node("b")
        b.rkom.register_handler("echo", lambda payload, sender: payload)
        st_session = system.connect("a", "b", port="p", name="s1",
                                    resilience=True)
        call = system.connect("a", "b", kind="rkom").call("echo", b"x")
        stream = system.connect("a", "b", kind="stream", name="s3")
        system.run(until=2.0)
        rms = st_session.established.result()
        assert call.result() == b"x"
        get = system.obs.metrics.get
        channel = stream.established.result()
        mechanisms = [
            (gate, "sends_delayed", "fc_sends_delayed",
             dict(mechanism=gate.mechanism))
            for gate in (channel._window, channel._credit)
            if gate is not None
        ]
        assert mechanisms
        sources = [
            (rms.stats, "messages_sent", "rms_messages_sent",
             dict(layer="st", rms=rms.name)),
            (a.st.stats, "control_messages", "st_control_messages", dict(host="a")),
            (a.st.stats, "garbled_bundles", "st_garbled_bundles", dict(host="a")),
            (a.rkom.stats, "calls", "rkom_calls", dict(host="a")),
            (a.rkom.stats, "channel_failures", "rkom_channel_failures",
             dict(host="a")),
            (a.cpu, "items_run", "cpu_items_run", dict(cpu="a.cpu")),
            (lan.segment.stats, "frames_transmitted", "link_frames_transmitted",
             dict(link=lan.segment.name)),
            (lan, "setup_count", "net_setup_count", dict(network="lan")),
            (st_session.stats, "recoveries", "session_recoveries",
             dict(host="a", session="s1")),
            (channel.stats, "retransmissions", "stream_retransmissions",
             dict(stream=f"stream{channel.session_id}")),
            *mechanisms,
        ]
        for source, attr, family, labels in sources:
            before = getattr(source, attr)
            assert get(family, **labels) == before, family
            setattr(source, attr, before + 7)
            assert get(family, **labels) == before + 7, family
            setattr(source, attr, before)
        lan.control_drops["setup"] = 2
        assert get("net_control_drops", network="lan", kind="setup") == 2
        st_session.stats.transitions["failover"] = 5
        assert get("rms_failovers_total", host="a", session="s1",
                   kind="failover") == 5
        waits = get("cpu_queue_wait_seconds", cpu="a.cpu")
        assert waits.count == a.cpu.items_run == a.cpu.queue_wait.count

    def test_zero_is_exported(self):
        system = DashSystem(seed=3, observe=True)
        system.add_ethernet(trusted=True)
        system.add_node("a")
        snapshot = system.obs.metrics.snapshot()
        for family in ("st_rms_created", "st_auth_drops", "cpu_deadline_misses",
                       "net_frames_corrupted", "rkom_timeouts"):
            assert [e["value"] for e in snapshot[family]["series"]] == [0], family

    def test_piggybacking_off_counts_its_immediate_sends(self):
        """At the parent ``flushes_immediate`` counted these and the
        registry's ``st_piggyback_flushes`` did not."""
        from repro.subtransport.config import StConfig

        system = DashSystem(
            seed=3, observe=True, st_config=StConfig(piggyback_enabled=False))
        system.add_ethernet(trusted=True)
        system.add_node("a")
        system.add_node("b")
        session = system.connect("a", "b")
        system.run(until=1.0)
        for _ in range(5):
            session.send(b"x" * 32)
        system.run(until=2.0)
        series = system.obs.metrics.snapshot()["st_piggyback_flushes"]["series"]
        immediate = [e["value"] for e in series if e["labels"]["reason"] == "immediate"]
        assert immediate == [5]

    def test_queue_drops_at_teardown_are_exported(self):
        """The parent's ``session_requeue_drops`` saw refusals only; the
        exported family is now ``SessionStats.queue_drops`` itself."""
        system = DashSystem(seed=3, observe=True)
        system.add_ethernet(trusted=True)
        system.add_node("a")
        system.add_node("b")
        session = system.connect("a", "b", name="s", resilience=True)
        session.send(b"queued before establishment")
        session.close()
        assert session.stats.queue_drops == 1
        assert system.obs.metrics.get(
            "session_queue_drops", host="a", session="s") == 1


class TestCoverage:
    """What was added since PR 1 and the registry never had."""

    def test_routing_engine_and_timer_groups_after_a_flap(self):
        system = DashSystem(seed=5, observe=True)
        network, mesh = system.add_mesh(
            "grid", rows=2, cols=2, hosts_per_router=1,
            network_kwargs=dict(trusted=True))
        hosts = sorted(system.nodes)
        params = RmsParams(
            capacity=16 * 1024, max_message_size=1_000,
            delay_bound=DelayBound(0.5, 1e-5),
            delay_bound_type=DelayBoundType.BEST_EFFORT,
        )
        session = system.connect(
            hosts[0], hosts[-1], desired=params, acceptable=params,
            resilience=True)
        system.run(until=2.0)
        route = session.established.result().binding.network_rms.route
        trunk = network.link(route[1], route[2])
        trunk.set_down()
        system.run(until=system.now + 2.0)
        trunk.set_up()
        system.run(until=system.now + 2.0)
        assert session.stats.recoveries >= 1
        engine = network._engine
        get = system.obs.metrics.get
        assert engine.searches > 1
        for attr in ("searches", "table_builds", "plan_compiles", "dag_prunes",
                     "flow_pins", "scoped_table_drops", "scoped_plan_drops",
                     "full_invalidations"):
            assert get(f"route_{attr}", network=network.name) == getattr(engine, attr)
        assert get("link_frames_transmitted", link=trunk.name) == (
            trunk.stats.frames_transmitted)
        st = system.nodes[hosts[0]].st
        group = f"st:{hosts[0]}->{hosts[-1]}"
        timers = st._peers[hosts[-1]].timers
        assert get("timer_fires", group=group) == timers.fires
        session.send(b"x" * 64)
        system.run(until=system.now + 3e-4)  # past the send stage: queued
        assert get("timers_live", group=group) == timers.live >= 1
        st.close_peer(hosts[-1])
        assert get("timers_live", group=group) == 0
