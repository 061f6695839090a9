"""Digitized voice and video workloads (paper sections 1 and 2.5).

"Digitized voice should use a high capacity, low delay RMS, perhaps
with a statistical delay bound.  A high bit error rate may be
acceptable."  Voice here is 64 kbit/s telephony PCM in 20 ms packets;
video is a 30 fps frame stream with size variation, exercising
fragmentation.  Both report the playout metrics that matter to media:
delay percentiles, jitter, late/lost fractions against a playout
deadline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.params import RmsParams
from repro.core.rms import Rms
from repro.obs.stats import DelayRecorder, SummaryStats
from repro.sim.context import SimContext
from repro.apps.sources import PeriodicSource

__all__ = ["MediaReport", "VoiceCall", "VideoStream", "voice_rms_params"]


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


class _MediaFlow:
    """Shared machinery: a source plus playout-deadline accounting."""

    def __init__(
        self,
        context: SimContext,
        rms: Rms,
        playout_deadline: float,
    ) -> None:
        self.context = context
        self.rms = rms
        self.playout_deadline = playout_deadline
        self.recorder = DelayRecorder()
        self.delivered = 0
        self.late = 0
        rms.port.set_handler(self._arrived)
        self.source: Optional[PeriodicSource] = None

    def _arrived(self, message) -> None:
        self.delivered += 1
        delay = message.delay
        if delay is not None:
            self.recorder.record(delay)
            if delay > self.playout_deadline:
                self.late += 1

    def report(self) -> MediaReport:
        sent = self.source.sent if self.source else 0
        return MediaReport(
            sent=sent,
            delivered=self.delivered,
            late=self.late,
            lost=max(0, sent - self.delivered),
            delay=self.recorder.summary(),
            jitter=self.recorder.jitter(),
        )


class VoiceCall(_MediaFlow):
    """One direction of a telephony call: 160 B every 20 ms."""

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
        super().__init__(context, rms, playout_deadline)
        count = int(duration / self.PACKET_PERIOD)
        self.source = PeriodicSource(
            context,
            rms,
            period=self.PACKET_PERIOD,
            size=self.PACKET_BYTES,
            count=count,
            jitter_fraction=0.05,
            rng_name=rng_name,
        )


class VideoStream(_MediaFlow):
    """A 30 fps video stream with frame-size variation.

    Frames exceed typical network MTUs, so this workload exercises ST
    fragmentation on every frame.
    """

    FRAME_PERIOD = 1.0 / 30.0

    def __init__(
        self,
        context: SimContext,
        rms: Rms,
        duration: float,
        mean_frame_bytes: int = 6000,
        playout_deadline: float = 0.15,
        rng_name: str = "video",
    ) -> None:
        super().__init__(context, rms, playout_deadline)
        rng = context.rng.stream(rng_name)
        count = int(duration / self.FRAME_PERIOD)

        def frame(index: int) -> bytes:
            # I-frames every 10th frame are ~2x; others vary +-30%.
            scale = 2.0 if index % 10 == 0 else rng.uniform(0.7, 1.3)
            size = max(256, int(mean_frame_bytes * scale))
            size = min(size, self.rms.params.max_message_size)
            return bytes([index % 256]) * size

        self.source = PeriodicSource(
            context,
            rms,
            period=self.FRAME_PERIOD,
            size=mean_frame_bytes,
            count=count,
            payload_fn=frame,
            rng_name=rng_name,
        )
