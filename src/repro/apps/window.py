"""Network window-system workload (paper section 2.5).

"Communication involving a human user interface ... can tolerate a
moderate amount of delay because of human perceptual limitations.  The
RMS from user to application carries mouse and keyboard events, and can
have low capacity.  The RMS in the opposite direction carries graphic
information, and generally requires higher capacity."

The workload models an interactive session: input events arrive as a
Poisson process on the low-capacity upstream RMS; each event triggers a
burst of graphics traffic downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.params import DelayBound, DelayBoundType, RmsParams
from repro.core.rms import Rms, RmsState
from repro.obs.stats import DelayRecorder, SummaryStats
from repro.sim.context import SimContext

__all__ = ["WindowSystemWorkload", "WindowReport", "event_rms_params", "graphics_rms_params"]

#: Human perceptual budget for echo/update latency.
PERCEPTION_DEADLINE = 0.1


def event_rms_params() -> RmsParams:
    """Low-capacity upstream RMS for input events."""
    return RmsParams(
        capacity=2048,
        max_message_size=64,
        delay_bound=DelayBound(PERCEPTION_DEADLINE / 2, 1e-6),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
    )


def graphics_rms_params() -> RmsParams:
    """Higher-capacity downstream RMS for graphics updates."""
    return RmsParams(
        capacity=64 * 1024,
        max_message_size=8 * 1024,
        delay_bound=DelayBound(PERCEPTION_DEADLINE, 2e-6),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
    )


@dataclass
class WindowReport:
    """Interactive-quality metrics."""

    events_sent: int
    events_delivered: int
    updates_sent: int
    updates_delivered: int
    event_delay: SummaryStats
    update_delay: SummaryStats
    round_trips_over_budget: int


class WindowSystemWorkload:
    """An interactive session between a user host and an app host.

    ``event_rms`` carries user->application events (16-48 B); for each
    event the application responds with a graphics update (1-8 KB) on
    ``graphics_rms``.
    """

    EVENT_RATE = 30.0  # events per second (dragging, typing)

    def __init__(
        self,
        context: SimContext,
        event_rms: Rms,
        graphics_rms: Rms,
        duration: float,
    ) -> None:
        self.context = context
        self.event_rms = event_rms
        self.graphics_rms = graphics_rms
        self.duration = duration
        self._rng = context.rng.stream("window")
        self.event_delay = DelayRecorder()
        self.update_delay = DelayRecorder()
        self.events_sent = 0
        self.events_delivered = 0
        self.updates_sent = 0
        self.updates_delivered = 0
        self.over_budget = 0
        self._event_send_times = {}
        event_rms.port.set_handler(self._event_arrived)
        graphics_rms.port.set_handler(self._update_arrived)
        self.process = context.spawn(self._user(), name="window-user")

    def _user(self):
        deadline = self.context.now + self.duration
        index = 0
        while self.context.now < deadline:
            yield self._rng.expovariate(self.EVENT_RATE)
            if self.event_rms.state is not RmsState.OPEN:
                return
            size = self._rng.choice((16, 24, 32, 48))
            payload = index.to_bytes(4, "big") + bytes(size - 4)
            self._event_send_times[index] = self.context.now
            self.event_rms.send(payload)
            self.events_sent += 1
            index += 1

    def _event_arrived(self, message) -> None:
        self.events_delivered += 1
        self.event_delay.record_message(message)
        event_index = int.from_bytes(message.payload[:4], "big")
        # The application responds with a graphics update.
        size = max(256, int(self._rng.gauss(3000, 1200)))
        size = min(size, self.graphics_rms.params.max_message_size)
        payload = event_index.to_bytes(4, "big") + bytes(size - 4)
        if self.graphics_rms.state is RmsState.OPEN:
            self.graphics_rms.send(payload)
            self.updates_sent += 1

    def _update_arrived(self, message) -> None:
        self.updates_delivered += 1
        self.update_delay.record_message(message)
        event_index = int.from_bytes(message.payload[:4], "big")
        start = self._event_send_times.pop(event_index, None)
        if start is not None:
            if self.context.now - start > PERCEPTION_DEADLINE:
                self.over_budget += 1

    def report(self) -> WindowReport:
        return WindowReport(
            events_sent=self.events_sent,
            events_delivered=self.events_delivered,
            updates_sent=self.updates_sent,
            updates_delivered=self.updates_delivered,
            event_delay=self.event_delay.summary(),
            update_delay=self.update_delay.summary(),
            round_trips_over_budget=self.over_budget,
        )
