"""Simulation context: one bundle of clock, randomness, and observability.

Every layer of the reproduced DASH stack receives a :class:`SimContext`
instead of reaching for globals, so several independent simulations can
coexist in one Python process (the benchmark harness relies on this).
"""

from __future__ import annotations

from typing import Optional, Union

from repro.errors import ParameterError
from repro.obs import NullObservability, Observability
from repro.sim.events import EventLoop
from repro.sim.process import Process
from repro.sim.rng import RandomStreams

__all__ = ["SimContext"]


class SimContext:
    """The shared substrate of one simulation run."""

    def __init__(self, seed: int = 0, observe: bool = False) -> None:
        self.loop = EventLoop()
        self.rng = RandomStreams(seed)
        #: Metrics registry + span tracer with ``observe=True``; else the
        #: off facade (``enabled`` False, ``spans`` None).
        self.obs: Union[Observability, NullObservability] = (
            Observability(self.loop) if observe else NullObservability())

    @property
    def now(self) -> float:
        # Reads the loop's clock directly: this property is on every hot
        # path and the extra ``loop.now`` property hop is measurable.
        return self.loop._now

    def spawn(self, generator, name: Optional[str] = None) -> Process:
        """Start a generator as a simulated process."""
        return Process(self.loop, generator, name)

    def run(
        self,
        until: Optional[float] = None,
        *,
        while_pending: bool = False,
        idle_grace: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Drive the simulation: the one keyword-selected entry point.

        ``run(until=t)`` runs every event with time <= t; ``run
        (while_pending=True)`` drains the loop in a single call, stopping
        early when ``idle_grace`` is given and the next live event lies
        further than that past the clock.
        """
        if while_pending:
            if until is not None:
                raise ParameterError(
                    "run() takes either until or while_pending=True, not both"
                )
            return self.loop.run_while_pending(
                idle_grace=idle_grace, max_events=max_events
            )
        if idle_grace is not None:
            raise ParameterError("idle_grace requires while_pending=True")
        return self.loop.run(until=until, max_events=max_events)

    def __repr__(self) -> str:
        return f"<SimContext now={self.now:.6f} seed={self.rng.master_seed}>"
