"""Tests for application workloads and the metrics package."""

from __future__ import annotations

import pytest

from repro.apps import rpcload
from repro.apps.media import VoiceCall, voice_rms_params
from repro.apps.rpcload import RpcWorkload
from repro.apps.sources import PeriodicSource
from repro.apps.window import (
    WindowSystemWorkload,
    event_rms_params,
    graphics_rms_params,
)
from repro.dash.system import DashSystem
from repro.obs.report import Table, format_table
from repro.obs.stats import DelayRecorder, SummaryStats, percentile, summarize


def lan_system(seed=42, **kwargs):
    system = DashSystem(seed=seed)
    system.add_ethernet(trusted=True, **kwargs)
    system.add_node("a")
    system.add_node("b")
    return system


def open_st(system, sender="a", receiver="b", params=None, port="app"):
    node = system.nodes[sender]
    future = node.st.create_st_rms(
        receiver, port=port, desired=params, acceptable=params
    )
    system.run(until=system.now + 2.0)
    return future.result()


class TestMetrics:
    def test_percentile_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 4.0
        assert percentile(values, 0.5) == pytest.approx(2.5)

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    def test_summarize(self):
        stats = summarize([1.0, 2.0, 3.0])
        assert stats.count == 3
        assert stats.mean == pytest.approx(2.0)
        assert stats.minimum == 1.0 and stats.maximum == 3.0

    def test_summarize_empty(self):
        stats = summarize([])
        assert stats.count == 0 and stats.mean == 0.0

    def test_scaled(self):
        stats = summarize([0.001, 0.002]).scaled(1000)
        assert stats.mean == pytest.approx(1.5)

    def test_delay_recorder_jitter(self):
        recorder = DelayRecorder()
        for delay in (0.010, 0.012, 0.010):
            recorder.record(delay)
        assert recorder.jitter() == pytest.approx(0.002)
        assert len(recorder) == 3

    def test_format_table_alignment(self):
        text = format_table(
            ["name", "value"], [["x", 1.5], ["longer", 20000.0]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "-" in lines[2]
        assert len(lines) == 5

    def test_table_class(self):
        table = Table("title", ["a"])
        table.add_row(0.12345)
        assert "0.1235" in str(table)  # rounded to four decimals


class TestMediaWorkloads:
    def test_voice_call_over_lan(self):
        system = lan_system()
        rms = open_st(system, params=voice_rms_params(), port="voice")
        call = VoiceCall(system.context, rms, duration=2.0)
        system.run(until=system.now + 5.0)
        report = call.report()
        assert report.sent == 100  # 2 s at 20 ms per packet
        assert report.delivered == report.sent
        assert report.usable_fraction > 0.99
        assert report.delay.mean < 0.08

    def test_voice_jitter_reported(self):
        system = lan_system()
        rms = open_st(system, params=voice_rms_params(), port="voice")
        call = VoiceCall(system.context, rms, duration=1.0)
        system.run(until=system.now + 3.0)
        assert call.report().jitter >= 0.0


class TestWindowWorkload:
    def test_interactive_round_trips(self):
        system = lan_system()
        events = open_st(system, params=event_rms_params(), port="events")
        graphics = open_st(
            system, sender="b", receiver="a",
            params=graphics_rms_params(), port="graphics",
        )
        workload = WindowSystemWorkload(
            system.context, events, graphics, duration=2.0
        )
        system.run(until=system.now + 5.0)
        report = workload.report()
        assert report.events_sent > 20
        assert report.events_delivered == report.events_sent
        assert report.updates_delivered == report.updates_sent
        # On a quiet LAN everything lands well within perception budget.
        assert report.round_trips_over_budget == 0

    def test_event_messages_are_small(self):
        params = event_rms_params()
        assert params.capacity <= 4096
        assert graphics_rms_params().capacity > params.capacity


class TestRpcWorkload:
    def test_rpc_workload_measures_rtt(self, monkeypatch):
        monkeypatch.setattr(rpcload, "CLIENTS", 2)
        system = lan_system()
        system.nodes["b"].rkom.register_handler(
            "echo", lambda payload, src: payload
        )
        workload = RpcWorkload(
            system.context,
            system.nodes["a"].rkom,
            "b",
            calls_per_client=10,
        )
        system.run(until=system.now + 20.0)
        assert all(p.finished.done for p in workload.processes)
        report = workload.report()
        assert report.calls_completed == 20
        assert report.calls_failed == 0
        assert report.rtt.mean > 0


class TestSources:
    def test_periodic_source_counts(self):
        system = lan_system()
        rms = open_st(system)
        source = PeriodicSource(
            system.context, rms, period=0.01, size=100, count=25
        )
        system.run(until=system.now + 2.0)
        assert source.sent == 25
        assert rms.stats.messages_sent == 25

    def test_source_survives_rms_failure(self):
        system = lan_system()
        rms = open_st(system)
        source = PeriodicSource(system.context, rms, period=0.01, size=100)
        system.run(until=system.now + 0.1)
        rms.fail("induced")
        system.run(until=system.now + 0.5)
        assert source.process.finished.done  # ended cleanly, no crash

