"""Admission control for the three delay-bound types (section 2.3).

- *Deterministic*: "System resources (buffer space, media bandwidth) are
  allocated to individual RMS's.  The RMS provider rejects an RMS
  request if its worst-case demands cannot be met with free resources."
- *Statistical*: "An RMS creation request is rejected if either its
  expected message delay or its expected bit error rate ... is higher
  than acceptable."  Modeled with an effective-bandwidth reservation
  between average and peak load.
- *Best-effort*: "RMS creation requests are never rejected."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.params import DelayBoundType, RmsParams
from repro.errors import AdmissionError, ParameterError

__all__ = ["Reservation", "AdmissionController", "NULL_POOLS"]


@dataclass(frozen=True)
class Reservation:
    """Resources set aside for one admitted RMS."""

    rms_id: int
    bandwidth: float  # bytes per second
    buffer_bytes: int
    bound_type: DelayBoundType


class AdmissionController:
    """Tracks reservations against one pool of bandwidth and buffer.

    Ethernet uses one controller for its segment; an internetwork uses
    one per link, admitting along the whole path.
    """

    def __init__(
        self,
        total_bandwidth: float,
        total_buffer_bytes: int,
        deterministic_share: float = 1.0,
        statistical_share: float = 0.95,
        statistical_confidence_weight: float = 0.5,
        deterministic_guard: float = 1.5,
    ) -> None:
        if total_bandwidth <= 0 or total_buffer_bytes <= 0:
            raise ParameterError("admission pool must have positive resources")
        if not 0 < deterministic_share <= 1 or not 0 < statistical_share <= 1:
            raise ParameterError("shares must be in (0, 1]")
        self.total_bandwidth = total_bandwidth
        self.total_buffer_bytes = total_buffer_bytes
        self.deterministic_share = deterministic_share
        self.statistical_share = statistical_share
        self.statistical_confidence_weight = statistical_confidence_weight
        self.deterministic_guard = deterministic_guard
        self._reservations: Dict[int, Reservation] = {}
        self.admitted = 0
        self.rejected = 0

    # -- demand models -----------------------------------------------------

    def deterministic_demand(self, params: RmsParams) -> Tuple[float, int]:
        """Worst-case (bandwidth, buffer) demand of a deterministic RMS.

        A client honoring the capacity rule can keep ``capacity`` bytes
        in flight and refresh them every worst-case delay; the implied
        bandwidth of section 2.2 is the peak *sustained* demand.  Hard
        guarantees must also survive worst-case burst phasing across
        streams (every client releasing its full capacity at once), so
        the reservation carries a guard factor above the sustained rate.
        The capacity itself bounds the buffer the stream can occupy.
        """
        demand = params.implied_bandwidth() * self.deterministic_guard
        return demand, params.capacity

    def statistical_demand(self, params: RmsParams) -> Tuple[float, int]:
        """Effective (bandwidth, buffer) demand of a statistical RMS.

        Effective bandwidth interpolates between the average and peak
        load: the higher the requested delay probability, the closer to
        the peak the reservation sits.
        """
        spec = params.statistical
        if spec is None:
            raise ParameterError("statistical RMS without a StatisticalSpec")
        # Effective bandwidth sits between mean and peak: the higher the
        # requested delay probability, the closer to the peak, scaled by
        # a global conservatism weight well below the deterministic
        # worst case.
        weight = self.statistical_confidence_weight * spec.delay_probability
        effective = spec.average_load + (spec.peak_load - spec.average_load) * weight
        # Statistical streams share buffers; reserve only the burst slack.
        buffer_demand = min(params.capacity, int(spec.peak_load * 0.05) + 1)
        return effective, buffer_demand

    # -- pool accounting -----------------------------------------------------

    @property
    def reserved_bandwidth(self) -> float:
        return sum(r.bandwidth for r in self._reservations.values())

    @property
    def reserved_buffer(self) -> int:
        return sum(r.buffer_bytes for r in self._reservations.values())

    # -- admission ------------------------------------------------------------

    def admit(self, rms_id: int, params: RmsParams) -> Reservation:
        """Admit or raise :class:`AdmissionError`.

        Best-effort streams are always admitted with an empty
        reservation.
        """
        if rms_id in self._reservations:
            raise AdmissionError(f"rms {rms_id} already has a reservation")
        bound_type = params.delay_bound_type
        if bound_type == DelayBoundType.BEST_EFFORT:
            reservation = Reservation(rms_id, 0.0, 0, bound_type)
        elif bound_type == DelayBoundType.DETERMINISTIC:
            bandwidth, buffer_bytes = self.deterministic_demand(params)
            limit = self.total_bandwidth * self.deterministic_share
            if self.reserved_bandwidth + bandwidth > limit + 1e-9:
                self.rejected += 1
                raise AdmissionError(
                    f"deterministic demand {bandwidth:.0f}B/s exceeds free "
                    f"bandwidth {limit - self.reserved_bandwidth:.0f}B/s"
                )
            if self.reserved_buffer + buffer_bytes > self.total_buffer_bytes:
                self.rejected += 1
                raise AdmissionError(
                    f"deterministic buffer demand {buffer_bytes}B exceeds free "
                    f"buffer {self.total_buffer_bytes - self.reserved_buffer}B"
                )
            reservation = Reservation(rms_id, bandwidth, buffer_bytes, bound_type)
        elif bound_type == DelayBoundType.STATISTICAL:
            bandwidth, buffer_bytes = self.statistical_demand(params)
            limit = self.total_bandwidth * self.statistical_share
            if self.reserved_bandwidth + bandwidth > limit + 1e-9:
                self.rejected += 1
                raise AdmissionError(
                    f"statistical effective demand {bandwidth:.0f}B/s exceeds "
                    f"free bandwidth {limit - self.reserved_bandwidth:.0f}B/s"
                )
            if self.reserved_buffer + buffer_bytes > self.total_buffer_bytes:
                self.rejected += 1
                raise AdmissionError("statistical buffer demand exceeds free buffer")
            reservation = Reservation(rms_id, bandwidth, buffer_bytes, bound_type)
        else:  # pragma: no cover - exhaustive over the enum
            raise ParameterError(f"unknown delay bound type {bound_type!r}")
        self._reservations[rms_id] = reservation
        self.admitted += 1
        return reservation

    def release(self, rms_id: int) -> None:
        """Free an RMS's reservation.  Idempotent."""
        self._reservations.pop(rms_id, None)

    def __repr__(self) -> str:
        return (
            f"<AdmissionController bw={self.reserved_bandwidth:.0f}/"
            f"{self.total_bandwidth:.0f}B/s buf={self.reserved_buffer}/"
            f"{self.total_buffer_bytes}B streams={len(self._reservations)}>"
        )


#: The shared pool list for hopless routes (src == dst): such a route
#: consumes no link resources, so networks used to fabricate a throwaway
#: ``AdmissionController(1.0, 1)`` on *every* empty-route call just to
#: satisfy the "at least one pool" contract.  One module-level instance
#: replaces them all: best-effort reservations on it are empty and keyed
#: by globally-unique RMS ids, and guaranteed-service requests reject
#: against its 1 B/s / 1 B totals exactly as the throwaways did.
NULL_POOLS = [AdmissionController(total_bandwidth=1.0, total_buffer_bytes=1)]
