"""The digitized voice workload (paper sections 1 and 2.5).

"Digitized voice should use a high capacity, low delay RMS, perhaps
with a statistical delay bound.  A high bit error rate may be
acceptable."  Voice here is 64 kbit/s telephony PCM in 20 ms packets,
reporting the playout metrics that matter to media: delay percentiles,
jitter, late/lost fractions against a playout deadline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.params import RmsParams
from repro.core.rms import Rms
from repro.obs.stats import DelayRecorder, SummaryStats
from repro.sim.context import SimContext
from repro.apps.sources import PeriodicSource

__all__ = ["MediaReport", "VoiceCall", "voice_rms_params"]


@dataclass
class MediaReport:
    """Playout quality of one media flow."""

    sent: int
    delivered: int
    late: int
    lost: int
    delay: SummaryStats
    jitter: float

    @property
    def usable_fraction(self) -> float:
        """Packets that arrived in time for playout."""
        if self.sent == 0:
            return 1.0
        return (self.delivered - self.late) / self.sent


def voice_rms_params(
    playout_deadline: float = 0.08, delay_probability: float = 0.98
) -> RmsParams:
    """Section-2.5 voice parameters: 64 kbit/s PCM, statistical bound."""
    return RmsParams.for_voice(
        delay=playout_deadline,
        delay_probability=delay_probability,
        average_load=8000.0,
    )


class VoiceCall:
    """One direction of a telephony call: 160 B every 20 ms, with the
    playout-deadline accounting of :class:`MediaReport`."""

    PACKET_BYTES = 160
    PACKET_PERIOD = 0.020

    def __init__(
        self,
        context: SimContext,
        rms: Rms,
        duration: float,
        playout_deadline: float = 0.08,
        rng_name: str = "voice",
    ) -> None:
        self.context = context
        self.rms = rms
        self.playout_deadline = playout_deadline
        self.recorder = DelayRecorder()
        self.delivered = 0
        self.late = 0
        rms.port.set_handler(self._arrived)
        self.source = PeriodicSource(
            context,
            rms,
            period=self.PACKET_PERIOD,
            size=self.PACKET_BYTES,
            count=int(duration / self.PACKET_PERIOD),
            jitter_fraction=0.05,
            rng_name=rng_name,
        )

    def _arrived(self, message) -> None:
        self.delivered += 1
        delay = message.delay
        if delay is not None:
            self.recorder.record(delay)
            if delay > self.playout_deadline:
                self.late += 1

    def report(self) -> MediaReport:
        sent = self.source.sent
        return MediaReport(
            sent=sent,
            delivered=self.delivered,
            late=self.late,
            lost=max(0, sent - self.delivered),
            delay=self.recorder.summary(),
            jitter=self.recorder.jitter(),
        )
