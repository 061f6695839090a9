"""Tests for core/pool.py and the frame-pool enable/disable rules."""

from __future__ import annotations

from repro.core.pool import ObjectPool
from repro.dash.system import DashSystem


class TestObjectPool:
    def test_acquire_from_empty_pool(self):
        assert ObjectPool().acquire() is None

    def test_release_then_acquire_is_lifo(self):
        pool = ObjectPool()
        first, second = object(), object()
        assert pool.release(first)
        assert pool.release(second)
        assert pool.acquire() is second
        assert pool.acquire() is first
        assert pool.acquire() is None

    def test_capacity_bound(self):
        pool = ObjectPool(cap=2)
        assert pool.release(object())
        assert pool.release(object())
        assert not pool.release(object())  # full: falls back to GC
        assert len(pool) == 2

    def test_len_tracks_free_list(self):
        pool = ObjectPool()
        assert len(pool) == 0
        pool.release(object())
        assert len(pool) == 1
        pool.acquire()
        assert len(pool) == 0


def _run_traffic(system, port, messages=10):
    session = system.connect("a", "b", port=port)
    system.run(until=system.now + 2.0)
    rms = session.established.result()
    got = []
    rms.port.set_handler(got.append)
    for _ in range(messages):
        rms.send(b"p" * 200)
        system.run(until=system.now + 0.05)
    assert len(got) == messages
    return got


def _lan(seed=21, observe=False):
    system = DashSystem(seed=seed, observe=observe)
    network = system.add_ethernet(trusted=True)
    system.add_node("a")
    system.add_node("b")
    return system, network


class TestFramePoolGating:
    def test_pooling_recycles_frames_by_default(self):
        system, network = _lan()
        _run_traffic(system, "pool")
        assert network._pool_frames
        assert len(network._frame_pool) > 0

    def test_sniffer_disables_pooling(self):
        system, network = _lan()
        seen = []
        network.add_sniffer(seen.append)
        _run_traffic(system, "sniffed")
        assert not network._pool_frames
        assert len(network._frame_pool) == 0
        assert seen  # the sniffer retained real frames

    def test_sniffer_registered_mid_run_keeps_inflight_frames(self):
        system, network = _lan()
        _run_traffic(system, "before")  # pool warm, frames marked pooled
        assert len(network._frame_pool) > 0
        seen = []
        network.add_sniffer(seen.append)
        # Frames acquired from the pool before the sniffer arrived must
        # not be recycled out from under it once they land.
        _run_traffic(system, "after")
        assert seen
        recycled = {id(frame) for frame in network._frame_pool._free}
        assert all(id(frame) not in recycled for frame in seen)
        for frame in seen:
            assert frame.message is not None

    def test_observability_keeps_pooling(self):
        system, network = _lan(observe=True)
        observed = _run_traffic(system, "observed")
        assert len(network._frame_pool) > 0
        plain = _run_traffic(_lan()[0], "observed")
        assert [(m.payload, m.deliver_time) for m in observed] == [
            (m.payload, m.deliver_time) for m in plain
        ]

    def test_fresh_run_rearms_pooling(self):
        system, network = _lan()
        network.add_sniffer(lambda frame: None)
        _run_traffic(system, "spent")
        assert not network._pool_frames
        # Self-disabling is per network instance: a fresh run pools again.
        fresh_system, fresh_network = _lan(seed=22)
        _run_traffic(fresh_system, "fresh")
        assert fresh_network._pool_frames
        assert len(fresh_network._frame_pool) > 0
