"""The oracle :class:`repro.sched.cpu.HostCpu` is checked against.

A non-preemptive single server written the slow, obvious way: waiting
jobs sit in a plain list that is sorted by ``(policy key, arrival
index)`` each time the server picks its next job.  It shares nothing
with ``src/`` -- no heap, no ``WorkItem``, no ``policies.py``, no event
loop; time is a number that :meth:`ReferenceCpu.run` moves.  An arrival
index is handed out only to a job that has to wait (the model's reading
of "tie sequence numbers are drawn only on a push"), so :meth:`queued`
can be compared with the server's ready heap entry for entry.
"""

from __future__ import annotations

KEYS = {
    "fifo": lambda job: 0,
    "edf": lambda job: job.deadline,
    "priority": lambda job: job.priority,
}


class Job:
    """One piece of work; ``children`` are offered from its completion."""

    def __init__(self, name, owner, cpu_time, deadline, priority, children=()):
        self.name, self.owner, self.cpu_time = name, owner, cpu_time
        self.deadline, self.priority, self.children = deadline, priority, children
        self.key = self.submitted = self.started = self.finished = None
        self.run_time = self.missed = None


class ReferenceCpu:
    def __init__(self, policy, switch_cost):
        self.policy_key, self.switch_cost = KEYS[policy], switch_cost
        self.now, self.paused, self.running, self.waiting = 0.0, False, None, []
        self.arrivals, self.last_owner, self.done = 0, None, []
        self.context_switches, self.busy_time, self.misses = 0, 0.0, 0

    def submit(self, job):
        job.submitted = self.now
        if self.running is None and not self.paused and not self.waiting:
            self._start(job)
            return
        job.key = (self.policy_key(job), self.arrivals)
        self.arrivals += 1
        self.waiting.append(job)
        self._next()

    def pause(self):
        self.paused = True

    def resume(self):
        self.paused = False
        self._next()

    def run(self, until):
        """Complete, in order, every job that finishes at or before ``until``."""
        while self.running and self.running.started + self.running.run_time <= until:
            job, self.running = self.running, None
            self.now = job.finished = job.started + job.run_time
            self.busy_time += job.run_time
            job.missed = job.finished > job.deadline + 1e-12
            self.misses += job.missed
            self.done.append(job)
            for child in job.children:  # offered by the completion callback
                self.submit(child)
            self._next()
        self.now = until

    def queued(self):
        """``(key, arrival index, name)`` of the waiting jobs, in order."""
        return sorted(job.key + (job.name,) for job in self.waiting)

    def _next(self):
        if self.running is None and not self.paused and self.waiting:
            self.waiting.sort(key=lambda job: job.key)
            self._start(self.waiting.pop(0))

    def _start(self, job):
        self.running, job.started, job.run_time = job, self.now, job.cpu_time
        if job.owner != self.last_owner:
            job.run_time += self.switch_cost
            self.context_switches += 1
        self.last_owner = job.owner
