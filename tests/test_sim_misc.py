"""Tests for RNG streams and the simulation context."""

from __future__ import annotations

import pytest

from repro.sim.context import SimContext
from repro.sim.events import Signal
from repro.sim.rng import RandomStreams


class TestRandomStreams:
    def test_same_seed_same_sequence(self):
        first = RandomStreams(42).stream("x")
        second = RandomStreams(42).stream("x")
        assert [first.random() for _ in range(5)] == [
            second.random() for _ in range(5)
        ]

    def test_different_names_independent(self):
        streams = RandomStreams(42)
        a = [streams.stream("a").random() for _ in range(5)]
        b = [streams.stream("b").random() for _ in range(5)]
        assert a != b

    def test_stream_is_cached(self):
        streams = RandomStreams(1)
        assert streams.stream("x") is streams.stream("x")

    def test_adding_streams_does_not_perturb_existing(self):
        """The draw sequence of one stream is independent of how many
        other streams exist -- crucial for experiment comparability."""
        solo = RandomStreams(7)
        seq_solo = [solo.stream("target").random() for _ in range(5)]
        crowded = RandomStreams(7)
        for name in ("a", "b", "c"):
            crowded.stream(name).random()
        seq_crowded = [crowded.stream("target").random() for _ in range(5)]
        assert seq_solo == seq_crowded

    def test_different_seeds_differ(self):
        assert RandomStreams(1).stream("x").random() != RandomStreams(
            2
        ).stream("x").random()


class TestSimContext:
    def test_now_tracks_loop(self):
        context = SimContext()
        context.loop.call_after(3.0, lambda: None)
        context.run()
        assert context.now == 3.0

    def test_spawn_names_process(self):
        context = SimContext()

        def worker():
            yield 1.0

        process = context.spawn(worker(), name="my-worker")
        assert process.name == "my-worker"
        context.run()

    def test_run_until_idle(self):
        context = SimContext()
        context.loop.call_after(1.0, lambda: None)
        assert context.run(while_pending=True) == 1.0

    def test_signal_factory(self):
        signal = Signal()
        seen = []
        signal.listen(seen.append)
        signal.fire(1)
        assert seen == [1]
