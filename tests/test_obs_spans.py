"""Tests for message-lifecycle spans and the end-to-end delay breakdown."""

from __future__ import annotations

import pytest

from repro.core.message import Message
from repro.core.params import DelayBound, DelayBoundType, RmsParams
from repro.dash.system import DashSystem
from repro.obs import spans
from repro.obs.export import flight_recorder, metrics_payload, span_lines
from repro.obs.spans import NullSpanTracer, SpanBreakdown, SpanEvent, SpanTracer
from repro.sim.events import EventLoop
from repro.subtransport.wire import FLAG_MAC, encode_bundle


def make_tracer() -> SpanTracer:
    return SpanTracer(EventLoop())


class TestSpanTracer:
    def test_event_recording_and_query(self):
        tracer = make_tracer()
        trace = tracer.new_trace()
        tracer.event(trace, "st", "send", size=100)
        tracer.event(trace, "net", "tx")
        assert len(tracer) == 2
        events = tracer.events_for(trace)
        assert [e.event for e in events] == ["send", "tx"]
        assert events[0].fields == {"size": 100}

    def test_none_trace_is_ignored(self):
        tracer = make_tracer()
        tracer.event(None, "st", "send")
        assert len(tracer) == 0

    def test_head_mode_drops_new_events(self, monkeypatch):
        monkeypatch.setattr(spans, "MAX_EVENTS", 2)
        tracer = make_tracer()
        first = tracer.new_trace()
        tracer.event(first, "st", "send")
        tracer.event(first, "st", "deliver")
        second = tracer.new_trace()
        tracer.event(second, "st", "send")
        assert len(tracer) == 2
        assert tracer.dropped == 1
        assert tracer.events_for(second) == []
        assert len(tracer.events_for(first)) == 2

    def test_wire_table_stash_claim(self):
        tracer = make_tracer()
        tracer.stash((7, 3), 42)
        assert tracer.claim((7, 3)) == 42
        assert tracer.claim((7, 3)) is None  # claimed exactly once

    def test_clear_resets_everything(self):
        tracer = make_tracer()
        trace = tracer.new_trace()
        tracer.event(trace, "st", "send")
        tracer.stash((1, 1), trace)
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.dropped == 0
        assert tracer.claim((1, 1)) is None


class TestSpanBreakdown:
    def make_events(self):
        return [
            SpanEvent(1, 0.0, "st", "send"),
            SpanEvent(1, 0.1, "cpu", "enqueue"),
            SpanEvent(1, 0.3, "cpu", "done"),
            SpanEvent(1, 0.5, "st", "deliver"),
        ]

    def test_segments_attributed_to_earlier_layer(self):
        breakdown = SpanBreakdown(1, self.make_events())
        assert [s.layer for s in breakdown.segments] == ["st", "cpu", "cpu"]
        assert breakdown.total == pytest.approx(0.5)
        by_layer = breakdown.by_layer()
        assert by_layer["st"] == pytest.approx(0.1)
        assert by_layer["cpu"] == pytest.approx(0.4)
        assert sum(by_layer.values()) == pytest.approx(breakdown.total)
        assert breakdown.dominant_layer() == "cpu"
        assert breakdown.delivered and not breakdown.dropped

    def test_slowest_orders_by_total(self):
        tracer = make_tracer()
        fast, slow = tracer.new_trace(), tracer.new_trace()
        for trace, end in ((fast, 0.1), (slow, 0.9)):
            tracer.event(trace, "st", "send")
            tracer._traces[trace].append(
                SpanEvent(trace, end, "st", "deliver")
            )
        slowest = tracer.slowest(2)
        assert [b.trace_id for b in slowest] == [slow, fast]


class TestNullSpanTracer:
    def test_all_no_ops(self):
        tracer = NullSpanTracer()
        assert not tracer.enabled
        assert tracer.new_trace() is None
        tracer.event(1, "st", "send")
        assert len(tracer) == 0
        assert tracer.breakdown(1) is None
        assert tracer.slowest() == []


class TestEndToEndBreakdown:
    """The acceptance demo: one message's delay decomposes exactly."""

    def deliver_one(self):
        system = DashSystem(seed=7, observe=True)
        system.add_ethernet(trusted=True)
        system.add_node("a")
        system.add_node("b")
        params = RmsParams(
            capacity=16384,
            max_message_size=1400,
            delay_bound=DelayBound(0.1, 1e-5),
            delay_bound_type=DelayBoundType.BEST_EFFORT,
        )
        params_future = system.nodes["a"].st.create_st_rms(
            "b", port="demo", desired=params, acceptable=params
        )
        system.run(until=2.0)
        rms = params_future.result()
        got = []
        rms.port.set_handler(got.append)
        rms.send(b"\xaa" * 600)
        system.run(until=4.0)
        return system, got

    def test_span_segments_sum_to_observed_delay(self):
        system, got = self.deliver_one()
        assert len(got) == 1
        message = got[0]
        assert message.delay is not None
        assert message.trace_id is not None
        breakdown = system.obs.spans.breakdown(message.trace_id)
        assert breakdown is not None
        assert breakdown.delivered
        # Every per-layer segment sums exactly to the end-to-end delay.
        segment_sum = sum(s.duration for s in breakdown.segments)
        assert segment_sum == pytest.approx(breakdown.total, abs=1e-12)
        assert breakdown.total == pytest.approx(message.delay, abs=1e-12)
        layers = {s.layer for s in breakdown.segments}
        assert {"st", "cpu", "net"} <= layers

    def test_exporters_cover_the_run(self):
        system, _ = self.deliver_one()
        obs = system.obs
        lines = list(span_lines(obs.spans))
        assert lines, "expected span events in the JSONL dump"
        payload = metrics_payload(obs=obs, experiment="demo")
        assert payload["schema"] == 1
        assert payload["spans"]["events"] == len(obs.spans)
        assert "rms_messages_delivered" in payload["metrics"]
        text = flight_recorder(obs)
        assert "flight recorder" in text
        assert "slowest" in text


class TestForgedComponentDrop:
    def test_component_rejoining_no_trace_leaves_a_drop_span(self):
        """A forged component claims no stashed trace id; its drop opens
        a fresh trace so the reason is never invisible."""
        system = DashSystem(seed=7, observe=True)
        system.add_ethernet(trusted=False)
        system.add_node("a")
        system.add_node("b")
        params = RmsParams(
            capacity=16384,
            max_message_size=1400,
            delay_bound=DelayBound(0.1, 1e-5),
            delay_bound_type=DelayBoundType.BEST_EFFORT,
            authentication=True,
        )
        session = system.connect("a", "b", port="forged", desired=params)
        system.run(until=2.0)
        rms = session.established.result()
        rms.send(b"genuine")
        system.run(until=3.0)
        spans = system.obs.spans
        known = set(spans.traces())
        receiver = system.nodes["b"].st
        # Never sent under this (stream, seq): nothing to claim.
        forged = (rms.rms_id, 999, FLAG_MAC, b"\x00" * 40, system.now, 0, 0)
        receiver._data_arrived(None, Message(encode_bundle([forged])))
        assert receiver.stats.auth_drops == 1
        (fresh,) = set(spans.traces()) - known
        (drop,) = [e for e in spans.events_for(fresh) if e.event == "drop"]
        assert drop.fields["reason"] == "authentication failure"
        assert drop.fields["rms"] == rms.name
