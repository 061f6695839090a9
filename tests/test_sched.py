"""Tests for deadline-based scheduling (paper section 4.1)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import SchedulingError
from repro.sched.cpu import CpuCostModel, HostCpu
from repro.sched.policies import EdfQueue, FifoQueue, PriorityQueue, make_queue
from repro.sim.context import SimContext


class TestPolicies:
    def test_fifo_ignores_deadlines(self):
        queue = FifoQueue()
        queue.push("late", deadline=9.0)
        queue.push("early", deadline=1.0)
        assert queue.pop() == "late"
        assert queue.pop() == "early"

    def test_edf_orders_by_deadline(self):
        queue = EdfQueue()
        queue.push("late", deadline=9.0)
        queue.push("early", deadline=1.0)
        queue.push("middle", deadline=5.0)
        assert [queue.pop() for _ in range(3)] == ["early", "middle", "late"]

    def test_edf_stable_on_ties(self):
        """Section 4.3.1 refinement: equal deadlines keep send order."""
        queue = EdfQueue()
        for index in range(10):
            queue.push(index, deadline=1.0)
        assert [queue.pop() for _ in range(10)] == list(range(10))

    def test_priority_orders_by_priority(self):
        queue = PriorityQueue()
        queue.push("low", priority=5)
        queue.push("high", priority=1)
        assert queue.pop() == "high"

    def test_pop_empty_raises(self):
        for policy in ("fifo", "edf", "priority"):
            with pytest.raises(SchedulingError):
                make_queue(policy).pop()

    def test_peek_does_not_remove(self):
        queue = EdfQueue()
        queue.push("x", deadline=1.0)
        assert queue.peek() == "x"
        assert len(queue) == 1

    def test_make_queue_unknown_policy(self):
        with pytest.raises(SchedulingError):
            make_queue("random")

    def test_bool_and_len(self):
        queue = EdfQueue()
        assert not queue
        queue.push("x", deadline=1.0)
        assert queue and len(queue) == 1

    @given(
        st.lists(
            st.tuples(st.floats(min_value=0, max_value=100, allow_nan=False),
                      st.integers()),
            min_size=1,
            max_size=50,
        )
    )
    def test_edf_pops_in_nondecreasing_deadline_order(self, items):
        queue = EdfQueue()
        for deadline, tag in items:
            queue.push((deadline, tag), deadline=deadline)
        popped = [queue.pop()[0] for _ in range(len(items))]
        assert popped == sorted(popped)


class TestCpuCostModel:
    def test_checksum_and_encrypt_add_cost(self):
        costs = CpuCostModel()
        plain = costs.protocol_cost(1000)
        with_checksum = costs.protocol_cost(1000, checksum=True)
        with_crypto = costs.protocol_cost(1000, checksum=True, encrypt=True)
        with_all = costs.protocol_cost(1000, checksum=True, encrypt=True, mac=True)
        assert plain < with_checksum < with_crypto < with_all

    def test_cost_scales_with_size(self):
        costs = CpuCostModel()
        assert costs.protocol_cost(10_000, encrypt=True) > costs.protocol_cost(
            1_000, encrypt=True
        )


class TestHostCpu:
    def test_items_run_in_deadline_order(self):
        context = SimContext()
        cpu = HostCpu(context, policy="edf", charge_context_switches=False)
        order = []
        # Submit in one batch while the CPU is busy with a long item.
        cpu.submit("x/busy", 0.010, deadline=99.0, callback=lambda: order.append("busy"))
        cpu.submit("x/late", 0.001, deadline=0.9, callback=lambda: order.append("late"))
        cpu.submit("x/early", 0.001, deadline=0.1, callback=lambda: order.append("early"))
        context.run()
        assert order == ["busy", "early", "late"]

    def test_fifo_cpu_runs_in_arrival_order(self):
        context = SimContext()
        cpu = HostCpu(context, policy="fifo", charge_context_switches=False)
        order = []
        cpu.submit("x/busy", 0.010, deadline=99.0, callback=lambda: order.append(0))
        cpu.submit("x/a", 0.001, deadline=50.0, callback=lambda: order.append(1))
        cpu.submit("x/b", 0.001, deadline=0.1, callback=lambda: order.append(2))
        context.run()
        assert order == [0, 1, 2]

    def test_deadline_miss_counted(self):
        context = SimContext()
        cpu = HostCpu(context, charge_context_switches=False)
        cpu.submit("x/slow", 0.2, deadline=0.1, callback=lambda: None)
        context.run()
        assert cpu.deadline_misses == 1

    def test_on_time_item_not_a_miss(self):
        context = SimContext()
        cpu = HostCpu(context, charge_context_switches=False)
        cpu.submit("x/fast", 0.01, deadline=0.1, callback=lambda: None)
        context.run()
        assert cpu.deadline_misses == 0

    def test_busy_time_accumulates(self):
        context = SimContext()
        cpu = HostCpu(context, charge_context_switches=False)
        cpu.submit("x/a", 0.05, deadline=1.0, callback=lambda: None)
        cpu.submit("x/b", 0.03, deadline=1.0, callback=lambda: None)
        context.run()
        assert cpu.busy_time == pytest.approx(0.08)
        assert cpu.items_run == 2

    def test_context_switch_charged_between_owners(self):
        context = SimContext()
        cpu = HostCpu(context, charge_context_switches=True)
        cpu.submit("alpha/1", 0.01, deadline=1.0, callback=lambda: None)
        cpu.submit("alpha/2", 0.01, deadline=1.0, callback=lambda: None)
        cpu.submit("beta/1", 0.01, deadline=1.0, callback=lambda: None)
        context.run()
        # First dispatch switches from None, then alpha->alpha is free,
        # then alpha->beta switches again.
        assert cpu.context_switches == 2

    def test_nonpreemptive_execution(self):
        """A running item finishes before a tighter-deadline arrival."""
        context = SimContext()
        cpu = HostCpu(context, charge_context_switches=False)
        order = []
        cpu.submit("x/long", 0.1, deadline=10.0, callback=lambda: order.append("long"))
        context.loop.call_after(
            0.01,
            lambda: cpu.submit(
                "x/urgent", 0.001, deadline=0.02, callback=lambda: order.append("urgent")
            ),
        )
        context.run()
        assert order == ["long", "urgent"]

    def test_protocol_stage_uses_cost_model(self):
        """A protocol stage runs for what the cost model charges it."""
        context = SimContext()
        cpu = HostCpu(context, charge_context_switches=False)
        costs = cpu.costs
        cost = costs.protocol_cost(1000, checksum=True)
        assert cost == pytest.approx(
            costs.per_message
            + 1000 * (costs.copy_per_byte + costs.checksum_per_byte)
        )
        done = []
        cpu.submit(
            "x/stage", cost, deadline=1.0,
            callback=lambda: done.append(context.now),
        )
        context.run()
        assert done == [pytest.approx(cost)]
        assert cpu.busy_time == pytest.approx(cost)

    def test_keep_history(self):
        context = SimContext()
        cpu = HostCpu(context, charge_context_switches=False)
        cpu.keep_history = True
        cpu.submit("x/a", 0.01, deadline=1.0, callback=lambda: None)
        context.run()
        assert len(cpu.completed) == 1
        assert cpu.completed[0].finished_at == pytest.approx(0.01)
