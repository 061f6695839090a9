"""Chaos schedules: deterministic fault injection for netsim.

The resilience layer (and bench E17) needs repeatable failures to
recover from.  A :class:`ChaosSchedule` scripts link flaps, network
partitions, and host pause/resume against the simulation clock, and can
also generate seeded-random flap processes from the context's named RNG
streams -- the same schedule object with the same seed always injects
the same faults at the same times.  Every injected event is recorded in
:attr:`ChaosSchedule.log` so a bench can print exactly what it did.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, NamedTuple, Optional

from repro.netsim.topology import Host, Link
from repro.obs.registry import families
from repro.sim.context import SimContext

__all__ = ["ChaosEvent", "ChaosSchedule"]


class ChaosEvent(NamedTuple):
    time: float
    kind: str
    target: str


_FAMILIES = families(
    "chaos", ("event_counts",), event_counts="chaos_events_total{kind}"
)


class ChaosSchedule:
    """Scripted and seeded-random fault injection against one context."""

    def __init__(self, context: SimContext, name: str = "chaos") -> None:
        self.context = context
        self.name = name
        self.log: List[ChaosEvent] = []
        self._rng = context.rng.stream(f"chaos:{name}")
        context.obs.metrics.watch(self, _FAMILIES, schedule=name)

    # -- bookkeeping ------------------------------------------------------

    def event_counts(self) -> Dict[str, int]:
        """Injected events so far, by kind (the log is the one record)."""
        return Counter(event.kind for event in self.log)

    def _record(self, kind: str, target: str) -> None:
        self.log.append(ChaosEvent(self.context.now, kind, target))

    def _down(self, link: Link) -> None:
        if link.is_up:
            self._record("link_down", link.name)
            link.set_down()

    def _up(self, link: Link) -> None:
        if not link.is_up:
            self._record("link_up", link.name)
            link.set_up()

    # -- scripted faults --------------------------------------------------

    def at(self, time: float, action, *args) -> None:
        """Run an arbitrary fault action at an absolute simulation time."""
        self.context.loop.call_at(time, action, *args)

    def link_down_at(self, time: float, link: Link) -> None:
        self.at(time, self._down, link)

    def link_up_at(self, time: float, link: Link) -> None:
        self.at(time, self._up, link)

    def flap_link(self, link: Link, down_at: float, duration: float) -> None:
        """One outage: down at ``down_at``, back up ``duration`` later."""
        self.link_down_at(down_at, link)
        self.link_up_at(down_at + duration, link)

    def flap_periodic(
        self,
        link: Link,
        first_down: float,
        period: float,
        down_time: float,
        count: int,
    ) -> None:
        """``count`` outages of ``down_time`` seconds, ``period`` apart."""
        for index in range(count):
            self.flap_link(link, first_down + index * period, down_time)

    def pause_host_at(self, host: Host, time: float, duration: float) -> None:
        """Freeze a host's CPU for ``duration`` seconds (e.g. a GC stall)."""
        def pause() -> None:
            self._record("host_pause", host.name)
            host.pause()

        def resume() -> None:
            self._record("host_resume", host.name)
            host.resume()

        self.at(time, pause)
        self.at(time + duration, resume)

    def partition_at(
        self,
        internet,
        time: float,
        group: Iterable[str],
        heal_at: Optional[float] = None,
    ) -> None:
        """Partition a routed internetwork along a node cut.

        Every simplex link with exactly one endpoint in ``group`` goes
        down at ``time``; when ``heal_at`` is given they all come back.
        """
        members = set(group)

        def crossing() -> List[Link]:
            return [
                link
                for (src, dst), link in internet._links.items()
                if (src in members) != (dst in members)
            ]

        def cut() -> None:
            self._record("partition", ",".join(sorted(members)))
            for link in crossing():
                self._down(link)

        def heal() -> None:
            self._record("heal", ",".join(sorted(members)))
            for link in crossing():
                self._up(link)

        self.at(time, cut)
        if heal_at is not None:
            self.at(heal_at, heal)

    # -- seeded-random faults ---------------------------------------------

    def random_flaps(
        self,
        link: Link,
        mean_uptime: float,
        mean_downtime: float,
        until: float,
        start: float = 0.0,
    ) -> None:
        """Flap a link with exponentially distributed up/down periods.

        Draws come from this schedule's own RNG stream, so two runs with
        the same master seed inject identical flap sequences.
        """

        def flow():
            if start > self.context.now:
                yield start - self.context.now
            while True:
                up_for = self._rng.expovariate(1.0 / mean_uptime)
                if self.context.now + up_for >= until:
                    return
                yield up_for
                self._down(link)
                down_for = self._rng.expovariate(1.0 / mean_downtime)
                yield down_for
                self._up(link)
                if self.context.now >= until:
                    return

        self.context.spawn(flow(), name=f"chaos:{self.name}:{link.name}")

    def __repr__(self) -> str:
        return f"<ChaosSchedule {self.name} events={len(self.log)}>"
