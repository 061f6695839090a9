"""Stochastic impairment models for simulated media.

The RMS bit-error-rate parameter "reflects the combination of 1) the
error rate of the underlying transmission medium, 2) the effectiveness
of the checksumming algorithm, and 3) the expected rate of packet loss
from buffer overrun" (section 2.2).  Medium errors are modeled here;
buffer overruns happen in the link queues; checksumming effectiveness is
whatever the security layer actually achieves over the corrupted bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ParameterError
from repro.netsim.packet import Frame

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.topology import Link

__all__ = ["ImpairmentModel", "CLEAN"]


@dataclass(frozen=True)
class ImpairmentModel:
    """Per-frame corruption and loss sampling.

    ``bit_error_rate`` is the per-bit corruption probability of the
    medium; a frame of ``n`` bytes is corrupted with probability
    ``1 - (1 - ber)^(8n)``.  ``frame_loss_rate`` models losses the medium
    itself eats (collisions, receiver overruns) independent of queueing.
    Both hooks draw from the carrying link's stream (``link.rng()``) and
    only once a rate is non-zero, so a clean medium builds none.  A model
    is frozen, so links share one: every clean link holds :data:`CLEAN`,
    and a medium is impaired by giving its link a new model.
    """

    bit_error_rate: float = 0.0
    frame_loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.bit_error_rate <= 1.0:
            raise ParameterError(f"bit error rate out of range: {self.bit_error_rate}")
        if not 0.0 <= self.frame_loss_rate <= 1.0:
            raise ParameterError(
                f"frame loss rate out of range: {self.frame_loss_rate}"
            )

    def corruption_probability(self, size_bytes: int) -> float:
        """Probability that a frame of the given size is corrupted."""
        if self.bit_error_rate <= 0.0:
            return 0.0
        return 1.0 - math.pow(1.0 - self.bit_error_rate, 8 * size_bytes)

    def loses_frame(self, link: "Link") -> bool:
        rate = self.frame_loss_rate
        return rate > 0.0 and link.rng().random() < rate

    def maybe_corrupt(self, frame: Frame, link: "Link") -> bool:
        """Sample corruption; flips a payload bit on a hit.

        Returns True when the frame was corrupted.
        """
        if self.bit_error_rate <= 0.0:
            return False  # the common medium: no size read, nothing drawn
        probability = self.corruption_probability(frame.size)
        if probability > 0.0:
            rng = link.rng()
            if rng.random() < probability:
                frame.corrupt_payload(rng.getrandbits(20))
                return True
        return False


#: The clean medium's model, shared by every link built without one.
CLEAN = ImpairmentModel()
