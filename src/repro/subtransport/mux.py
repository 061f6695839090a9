"""Upward multiplexing of ST RMSs onto network RMSs (section 4.2).

"Among the rules that govern RMS multiplexing are:

- a deterministic or statistical ST RMS cannot be multiplexed onto a
  best-effort network RMS [...];
- the delay bound parameters of the ST RMS's must be at least those of
  the network RMS; the difference is a potential queueing delay during
  which the ST can attempt to piggyback additional messages;
- the capacity of the network RMS must be at least the sum of the
  capacities of the ST RMS's;
- the maximum message size of the ST RMS's may exceed that of the
  network RMS (this requires fragmentation and reassembly by the ST)."

Downward multiplexing (one ST RMS across several network RMSs), which
the paper excludes, is :mod:`repro.subtransport.downmux` (bench E15).
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.core.params import DelayBoundType, RmsParams
from repro.netsim.network import NetworkRms

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.subtransport.strms import StRms

__all__ = ["mux_violation", "MuxBinding"]


def mux_violation(
    st_params: RmsParams,
    network_params: RmsParams,
    existing_capacity: int,
    existing_load: float = 0.0,
) -> Optional[str]:
    """The section-4.2 legality check.

    Returns ``None`` when an ST RMS with ``st_params`` may be multiplexed
    onto a network RMS with ``network_params`` already carrying ST RMSs
    of total capacity ``existing_capacity`` (and, for statistical
    streams, total average load ``existing_load``); otherwise a
    human-readable reason.
    """
    if st_params.delay_bound_type in (
        DelayBoundType.DETERMINISTIC,
        DelayBoundType.STATISTICAL,
    ):
        if network_params.delay_bound_type == DelayBoundType.BEST_EFFORT:
            return (
                f"{st_params.delay_bound_type.name} ST RMS cannot ride a "
                f"best-effort network RMS"
            )
    # Delay rule: ST bound must be at least the network bound.
    if not st_params.delay_bound.is_unbounded:
        if network_params.delay_bound.a > st_params.delay_bound.a:
            return (
                f"network delay bound {network_params.delay_bound} exceeds "
                f"ST bound {st_params.delay_bound}"
            )
        if network_params.delay_bound.b > st_params.delay_bound.b:
            return "network per-byte delay exceeds the ST per-byte bound"
    # Capacity rule: sum of ST capacities within the network capacity.
    if existing_capacity + st_params.capacity > network_params.capacity:
        return (
            f"capacity sum {existing_capacity + st_params.capacity} exceeds "
            f"network RMS capacity {network_params.capacity}"
        )
    # Statistical extension: aggregate offered load must fit the spec the
    # network RMS was admitted with.
    if (
        st_params.delay_bound_type == DelayBoundType.STATISTICAL
        and st_params.statistical is not None
        and network_params.statistical is not None
    ):
        total = existing_load + st_params.statistical.average_load
        if total > network_params.statistical.average_load:
            return (
                f"aggregate statistical load {total:.0f}B/s exceeds the "
                f"network RMS spec {network_params.statistical.average_load:.0f}B/s"
            )
    return None


class MuxBinding:
    """One network RMS plus the ST RMSs multiplexed onto it."""

    def __init__(self, network_rms: NetworkRms) -> None:
        self.network_rms = network_rms
        self.st_rms: Dict[int, "StRms"] = {}
        #: The piggyback queue feeding this binding's network RMS, set by
        #: the ST when it creates the binding.
        self.queue = None
        #: Last transmission deadline handed to the network per ST RMS
        #: (the *minimum transmission deadline* rule of section 4.3.1).
        self.last_network_deadline: Dict[int, float] = {}

    @property
    def assigned_capacity(self) -> int:
        return sum(st.params.capacity for st in self.st_rms.values())

    @property
    def assigned_load(self) -> float:
        total = 0.0
        for st in self.st_rms.values():
            if st.params.statistical is not None:
                total += st.params.statistical.average_load
        return total

    @property
    def is_idle(self) -> bool:
        return not self.st_rms

    def can_accept(self, st_params: RmsParams, enforce: bool = True) -> Optional[str]:
        """Why this binding cannot take another ST RMS (None = it can)."""
        if not self.network_rms.is_open:
            return "network RMS is not open"
        if not enforce:
            return None
        return mux_violation(
            st_params,
            self.network_rms.params,
            self.assigned_capacity,
            self.assigned_load,
        )

    def attach(self, st_rms: "StRms") -> None:
        self.st_rms[st_rms.rms_id] = st_rms
        st_rms.binding = self

    def detach(self, st_rms: "StRms") -> None:
        self.st_rms.pop(st_rms.rms_id, None)
        self.last_network_deadline.pop(st_rms.rms_id, None)
        if st_rms.binding is self:
            st_rms.binding = None

    def ordering_floor(self, st_ids: List[int]) -> float:
        """Smallest legal network deadline for a bundle of these ST RMSs."""
        floor = 0.0
        for st_id in st_ids:
            floor = max(floor, self.last_network_deadline.get(st_id, 0.0))
        return floor

    def record_deadline(self, st_ids: List[int], deadline: float) -> None:
        for st_id in st_ids:
            self.last_network_deadline[st_id] = deadline

    def __repr__(self) -> str:
        return (
            f"<MuxBinding net={self.network_rms.name} st={len(self.st_rms)} "
            f"cap={self.assigned_capacity}/{self.network_rms.params.capacity}>"
        )
