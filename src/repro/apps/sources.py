"""The periodic traffic source the voice workload sends with."""

from __future__ import annotations

from typing import Optional

from repro.core.rms import Rms, RmsState
from repro.errors import RmsFailedError
from repro.sim.context import SimContext

__all__ = ["PeriodicSource"]


class PeriodicSource:
    """Sends fixed-size messages at a fixed period on an RMS.

    Payload ``index`` is ``size`` bytes of ``index % 256``.  Stops after
    ``count`` messages or when its process is stopped; silently ends if
    the RMS fails (clients observe failure via the RMS's own notification).
    """

    def __init__(
        self,
        context: SimContext,
        rms: Rms,
        period: float,
        size: int,
        count: Optional[int] = None,
        jitter_fraction: float = 0.0,
        rng_name: str = "periodic-source",
    ) -> None:
        self.context = context
        self.rms = rms
        self.period = period
        self.size = size
        self.count = count
        self.jitter_fraction = jitter_fraction
        self.sent = 0
        self._rng = context.rng.stream(rng_name)
        self.process = context.spawn(self._run(), name=f"source:{rms.name}")

    def _run(self):
        index = 0
        while True:
            if self.count is not None and index >= self.count:
                return self.sent
            if self.rms.state is not RmsState.OPEN:
                return self.sent
            try:
                self.rms.send(bytes([index % 256]) * self.size)
            except RmsFailedError:
                return self.sent
            self.sent += 1
            index += 1
            delay = self.period
            if self.jitter_fraction > 0.0:
                swing = self.period * self.jitter_fraction
                delay += self._rng.uniform(-swing, swing)
            yield max(delay, 0.0)
