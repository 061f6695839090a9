"""Tests for message-lifecycle spans and the end-to-end delay breakdown."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.core.message import Message
from repro.core.params import DelayBound, DelayBoundType, RmsParams
from repro.dash.system import DashSystem
from repro.obs import spans
from repro.obs.export import flight_recorder, metrics_payload, span_lines
from repro.obs.spans import SpanBreakdown, SpanEvent, SpanTracer
from repro.sim.events import EventLoop
from repro.subtransport.wire import FLAG_MAC, encode_bundle


SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


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


class TestLossyObservedRun:
    def test_wire_table_stops_growing_once_the_tracer_is_full(self, monkeypatch):
        """A component whose frame is lost is never claimed, so every
        stash of a lossy run past :data:`spans.MAX_EVENTS` would stay."""
        monkeypatch.setattr(spans, "MAX_EVENTS", 2000)
        system = DashSystem(seed=5, observe=True)
        system.add_ethernet(trusted=True, frame_loss_rate=0.2)
        system.add_node("a")
        system.add_node("b")
        params = RmsParams(
            capacity=16384,
            max_message_size=1400,
            delay_bound=DelayBound(0.1, 1e-5),
            delay_bound_type=DelayBoundType.BEST_EFFORT,
        )
        session = system.connect("a", "b", port="lossy", desired=params)
        system.run(until=2.0)
        rms = session.established.result()
        tracer = system.obs.spans
        link = system.networks["ether0"].segment

        def send(count):
            for _ in range(count):
                rms.send(bytes(100))
                system.run(until=system.now + 0.005)
            system.run(until=system.now + 1.0)

        send(400)
        assert tracer.dropped > 0
        held, lost = len(tracer._wire), link.stats.frames_dropped_loss
        send(800)
        assert link.stats.frames_dropped_loss > lost
        assert len(tracer._wire) == held


def _tests_enabled(test: ast.expr) -> bool:
    return any(
        (isinstance(node, ast.Attribute) and node.attr == "enabled")
        or (isinstance(node, ast.Name) and node.id == "enabled")
        for node in ast.walk(test)
    )


def unguarded_span_calls(source: str):
    """Line of each ``<x>.spans.<method>(...)`` call not in the body of
    an ``if`` or conditional expression that tests ``enabled``."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        if not (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "spans"):
            continue
        child, parent = node, parents.get(node)
        while parent is not None:
            body = (parent.body if isinstance(parent, ast.If)
                    else [parent.body] if isinstance(parent, ast.IfExp)
                    else ())
            if any(child is part for part in body) and _tests_enabled(parent.test):
                break
            child, parent = parent, parents.get(parent)
        else:
            yield node.lineno


class TestSpanSitesAreGuarded:
    """An unobserved context has no tracer (``obs.spans`` is None): every
    span site outside ``repro.obs`` runs only under ``obs.enabled``."""

    def test_every_span_call_tests_enabled(self):
        found = {}
        for path in sorted(SRC.rglob("*.py")):
            if path.parent.name == "obs":
                continue
            lines = list(unguarded_span_calls(path.read_text()))
            if lines:
                found[str(path.relative_to(SRC))] = lines
        assert found == {}

    def test_the_check_sees_an_unguarded_call(self):
        source = (
            "if obs.enabled:\n"
            "    obs.spans.event(1, 'st', 'tx')\n"
            "else:\n"
            "    obs.spans.event(2, 'st', 'tx')\n"
            "trace = obs.spans.new_trace() if obs.enabled else None\n"
            "if trace is not None:\n"
            "    obs.spans.stash((1, 2), trace)\n"
        )
        assert list(unguarded_span_calls(source)) == [4, 7]
