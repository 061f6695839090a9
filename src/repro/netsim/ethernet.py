"""An Ethernet-like network: one shared broadcast segment.

Section 3.1's example of a local network.  All attached hosts share a
single transmission medium; frames queue at the segment in transmission-
deadline order (the paper's interface scheduling).  The segment has the
*physical broadcast property*: an eavesdropper that receives an entire
message implies the intended recipient does too -- modeled by sniffer
callbacks that observe every delivered frame.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.netsim.admission import AdmissionController
from repro.netsim.errors_model import ImpairmentModel
from repro.netsim.network import Network, NetworkProperties
from repro.netsim.packet import FRAME_OVERHEAD_BYTES, Frame
from repro.netsim.topology import Link
from repro.sim.context import SimContext

__all__ = ["EthernetNetwork"]


class EthernetNetwork(Network):
    """A single-segment broadcast network.

    Defaults model classic 10 Mbit/s Ethernet: 1.25 MB/s bandwidth,
    a few microseconds of propagation, a 1500-byte MTU.
    """

    def __init__(
        self,
        context: SimContext,
        name: str = "ether0",
        bandwidth: float = 1.25e6,  # bytes/second (10 Mbit/s)
        propagation_delay: float = 5e-6,
        buffer_bytes: int = 128 * 1024,
        mtu: int = 1500,
        trusted: bool = False,
        link_encryption: bool = False,
        link_checksum: bool = True,
        supports_guarantees: bool = True,
        bit_error_rate: float = 0.0,
        frame_loss_rate: float = 0.0,
        queue_policy: str = "edf",
    ) -> None:
        properties = NetworkProperties(
            trusted=trusted,
            physical_broadcast=True,
            link_encryption=link_encryption,
            link_checksum=link_checksum,
            mtu=mtu,
            supports_guarantees=supports_guarantees,
        )
        super().__init__(
            context, name, properties, medium_bit_error_rate=bit_error_rate
        )
        self.segment = Link(
            context,
            name=f"{name}.segment",
            bandwidth=bandwidth,
            propagation_delay=propagation_delay,
            buffer_bytes=buffer_bytes,
            policy=queue_policy,
            impairment=ImpairmentModel(
                bit_error_rate=bit_error_rate, frame_loss_rate=frame_loss_rate
            ),
        )
        self.segment.on_down.listen(
            lambda _link: self.fail_all("Ethernet segment down")
        )
        self.admission = AdmissionController(
            total_bandwidth=bandwidth, total_buffer_bytes=buffer_bytes
        )
        self._sniffers: List[Callable[[Frame], None]] = []

    def can_reach(self, src: str, dst: str) -> bool:
        """Reachable only while the shared segment is up."""
        return super().can_reach(src, dst) and self.segment.is_up

    # -- medium -------------------------------------------------------------

    def _transmit_frame(
        self,
        frame: Frame,
        on_drop: Optional[Callable[[Frame, str], None]] = None,
    ) -> None:
        # One shared segment: there is no route to follow.
        self.segment.transmit(frame, self._medium_delivered, on_drop)

    def _medium_delivered(self, frame: Frame) -> None:
        # Physical broadcast: every station (including eavesdroppers)
        # sees the frame; only the addressed host processes it.
        for sniffer in self._sniffers:
            sniffer(frame)
        self._frame_arrived(frame)

    def add_sniffer(self, callback: Callable[[Frame], None]) -> None:
        """Observe every frame on the segment (eavesdropper model)."""
        self._sniffers.append(callback)

    # -- shared-network interface ----------------------------------------------

    def _path_profile(self, src: str, dst: str) -> Tuple[float, float, List[str]]:
        self._require_host(src)
        self._require_host(dst)
        fixed = self.segment.propagation_delay + self.segment.transmission_time(
            FRAME_OVERHEAD_BYTES
        )
        per_byte = 1.0 / self.segment.bandwidth
        return fixed, per_byte, [src, dst]

    def _admission_pools(self, route: List[str]) -> List[AdmissionController]:
        return [self.admission]
