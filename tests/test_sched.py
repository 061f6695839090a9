"""Tests for deadline-based scheduling (paper section 4.1)."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.errors import SchedulingError
from repro.sched import cpu as cpu_model
from repro.sched.cpu import HostCpu, stage_costs
from repro.sched.policies import key_slot
from repro.sim.context import SimContext
from tests.sched_reference import Job, ReferenceCpu


def protocol_cost(size, checksum=False, encrypt=False, mac=False):
    """One stage's CPU seconds over ``size`` bytes, as a stream sums it."""
    cost, rates = stage_costs(checksum, encrypt, mac)
    for rate in rates:
        cost += rate * size
    return cost


class TestCpuCostModel:
    def test_checksum_and_encrypt_add_cost(self):
        plain = protocol_cost(1000)
        with_checksum = protocol_cost(1000, checksum=True)
        with_crypto = protocol_cost(1000, checksum=True, encrypt=True)
        with_all = protocol_cost(1000, checksum=True, encrypt=True, mac=True)
        assert plain < with_checksum < with_crypto < with_all

    def test_cost_scales_with_size(self):
        assert protocol_cost(10_000, encrypt=True) > protocol_cost(
            1_000, encrypt=True
        )


@pytest.fixture
def free_switches(monkeypatch):
    """Items run for exactly their cpu_time: a switch costs nothing."""
    monkeypatch.setattr(cpu_model, "PER_CONTEXT_SWITCH", 0.0)


class TestHostCpu:
    def test_items_run_in_deadline_order(self, free_switches):
        context = SimContext()
        cpu = HostCpu(context, policy="edf")
        order = []
        # Submit in one batch while the CPU is busy with a long item.
        cpu.submit("x/busy", 0.010, deadline=99.0, callback=lambda: order.append("busy"))
        cpu.submit("x/late", 0.001, deadline=0.9, callback=lambda: order.append("late"))
        cpu.submit("x/early", 0.001, deadline=0.1, callback=lambda: order.append("early"))
        context.run()
        assert order == ["busy", "early", "late"]

    def test_fifo_cpu_runs_in_arrival_order(self, free_switches):
        context = SimContext()
        cpu = HostCpu(context, policy="fifo")
        order = []
        cpu.submit("x/busy", 0.010, deadline=99.0, callback=lambda: order.append(0))
        cpu.submit("x/a", 0.001, deadline=50.0, callback=lambda: order.append(1))
        cpu.submit("x/b", 0.001, deadline=0.1, callback=lambda: order.append(2))
        context.run()
        assert order == [0, 1, 2]

    def test_unknown_policy_rejected(self):
        with pytest.raises(SchedulingError):
            key_slot("random")
        with pytest.raises(SchedulingError):
            HostCpu(SimContext(), policy="random")

    def test_deadline_miss_counted(self, free_switches):
        context = SimContext()
        cpu = HostCpu(context)
        cpu.submit("x/slow", 0.2, deadline=0.1, callback=lambda: None)
        context.run()
        assert cpu.deadline_misses == 1

    def test_on_time_item_not_a_miss(self, free_switches):
        context = SimContext()
        cpu = HostCpu(context)
        cpu.submit("x/fast", 0.01, deadline=0.1, callback=lambda: None)
        context.run()
        assert cpu.deadline_misses == 0

    def test_busy_time_accumulates(self, free_switches):
        context = SimContext()
        cpu = HostCpu(context)
        cpu.submit("x/a", 0.05, deadline=1.0, callback=lambda: None)
        cpu.submit("x/b", 0.03, deadline=1.0, callback=lambda: None)
        context.run()
        assert cpu.busy_time == pytest.approx(0.08)
        assert cpu.items_run == 2

    def test_context_switch_charged_between_owners(self):
        context = SimContext()
        cpu = HostCpu(context)
        cpu.submit("alpha/1", 0.01, deadline=1.0, callback=lambda: None)
        cpu.submit("alpha/2", 0.01, deadline=1.0, callback=lambda: None)
        cpu.submit("beta/1", 0.01, deadline=1.0, callback=lambda: None)
        context.run()
        # First dispatch switches from None, then alpha->alpha is free,
        # then alpha->beta switches again.
        assert cpu.context_switches == 2

    def test_nonpreemptive_execution(self, free_switches):
        """A running item finishes before a tighter-deadline arrival."""
        context = SimContext()
        cpu = HostCpu(context)
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

    def test_protocol_stage_uses_cost_model(self, free_switches):
        """A protocol stage runs for what the cost model charges it."""
        context = SimContext()
        cpu = HostCpu(context)
        cost = protocol_cost(1000, checksum=True)
        assert cost == pytest.approx(
            cpu_model.PER_MESSAGE
            + 1000 * (cpu_model.COPY_PER_BYTE + cpu_model.CHECKSUM_PER_BYTE)
        )
        done = []
        cpu.submit(
            "x/stage", cost, deadline=1.0,
            callback=lambda: done.append(context.now),
        )
        context.run()
        assert done == [pytest.approx(cost)]
        assert cpu.busy_time == pytest.approx(cost)

    def test_keep_history(self, free_switches):
        context = SimContext()
        cpu = HostCpu(context)
        cpu.keep_history = True
        cpu.submit("x/a", 0.01, deadline=1.0, callback=lambda: None)
        context.run()
        assert len(cpu.completed) == 1
        assert cpu.completed[0].finished_at == pytest.approx(0.01)

    @pytest.mark.parametrize("policy", ["fifo", "edf", "priority"])
    def test_raising_callback_does_not_wedge_the_cpu(self, policy,
                                                     free_switches):
        """What ``EventLoop.run`` promises for events holds for items: a
        callback that raises loses nothing, the next ``run()`` resumes
        with the item after it."""
        context = SimContext()
        cpu = HostCpu(context, policy=policy)
        ran = []

        def boom():
            raise RuntimeError("boom")

        cpu.submit("x/0", 0.01, deadline=1.0, callback=boom)
        cpu.submit("x/1", 0.01, 2.0, ran.append, (1,), priority=1)
        cpu.submit("x/2", 0.01, 3.0, ran.append, (2,), priority=2)
        with pytest.raises(RuntimeError, match="boom"):
            context.run()
        assert cpu.items_run == 1 and ran == []
        context.run()
        assert ran == [1, 2]
        assert cpu.items_run == 3 and cpu.busy_time == pytest.approx(0.03)
        assert cpu.queue_length == 0 and not cpu._busy
        assert context.loop.pending_events == 0


class TestHostCpuOracle:
    """``HostCpu`` against ``tests/sched_reference.py``, step by step."""

    OWNERS = ("st", "rkom", "app")

    def _job(self, rng, names, depth=0):
        owner = rng.choice(self.OWNERS)
        children = ()
        if depth < 2 and rng.random() < 0.35:
            children = tuple(self._job(rng, names, depth + 1)
                             for _ in range(rng.randint(1, 3)))
        # A coarse grid, so equal deadlines and priorities are common.
        return Job(f"{owner}/{next(names)}", owner,
                   cpu_time=rng.choice([0.0005, 0.001, 0.002, 0.003]),
                   deadline=rng.randrange(12) * 0.005,
                   priority=rng.randrange(3), children=children)

    def _drive(self, seed, policy, observe):
        rng = random.Random(seed)
        context = SimContext(seed=seed, observe=observe)
        cpu = HostCpu(context, policy=policy)
        cpu.keep_history = True
        ref = ReferenceCpu(policy, cpu_model.PER_CONTEXT_SWITCH)
        names = itertools.count()
        submitted = []

        def submit(job):
            # Half the jobs leave the owner to the name prefix.
            explicit = int(job.name.split("/")[1]) % 2 == 0
            submitted.append(job.name)
            cpu.submit(
                job.name, job.cpu_time, job.deadline, completed, (job,),
                owner=job.owner if explicit else None, priority=job.priority)

        def completed(job):
            for child in job.children:
                submit(child)

        def seen():
            """Per job name: (submitted, started, finished, missed), read
            from the history, the running entry and the ready heap."""
            jobs = {record.name: (record.submitted_at, record.started_at,
                                  record.finished_at, record.missed_deadline)
                    for record in cpu.completed}
            if cpu._busy:
                jobs[cpu._busy[0]] = (cpu._busy[7], cpu._started_at,
                                      None, None)
            for _key, _seq, item in cpu._ready:
                jobs[item[0]] = (item[7], None, None, None)
            return jobs

        def check():
            assert cpu.queue_length == len(ref.waiting)
            assert bool(cpu._busy) == (ref.running is not None)
            assert sorted((key, seq, item[0])
                          for key, seq, item in cpu._ready) == ref.queued()
            assert [record.name for record in cpu.completed] == [
                job.name for job in ref.done]
            assert (cpu.items_run, cpu.context_switches, cpu.busy_time,
                    cpu.deadline_misses) == (
                len(ref.done), ref.context_switches, ref.busy_time, ref.misses)
            running = [ref.running] if ref.running else []
            jobs = seen()
            assert sorted(jobs) == sorted(submitted)
            for job in ref.done + running + ref.waiting:
                assert jobs[job.name] == (
                    job.submitted, job.started, job.finished, job.missed)

        for _ in range(80):
            step = rng.random()
            if step < 0.45:
                job = self._job(rng, names)
                submit(job)
                ref.submit(job)
            elif step < 0.55:
                cpu.pause()
                ref.pause()
            elif step < 0.70:
                cpu.resume()
                ref.resume()
            else:
                until = context.now + rng.choice([0.0, 0.0005, 0.002, 0.01])
                context.run(until=until)
                ref.run(until)
            check()
        cpu.resume()
        ref.resume()
        context.run()
        ref.run(float("inf"))
        check()
        assert cpu.queue_length == 0 and not cpu._busy
        assert len(ref.done) == len(submitted) > 40
        return [(record.name, record.submitted_at, record.started_at,
                 record.finished_at, record.missed_deadline)
                for record in cpu.completed]

    @pytest.mark.parametrize("policy", ["fifo", "edf", "priority"])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_step_by_step(self, seed, policy):
        trace = self._drive(seed, policy, observe=False)
        assert self._drive(seed, policy, observe=True) == trace
