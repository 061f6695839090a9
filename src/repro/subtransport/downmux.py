"""Downward multiplexing: one ST RMS striped over several network RMSs.

Section 4.2 of the paper considers and *excludes* this from the DASH
design: "It would also be possible to downwards-multiplex an ST RMS
across several network RMS's.  If there were multiple network paths
between the hosts, this technique could be used to increase capacity
beyond that available in a single network RMS.  However, this has not
been included in the DASH design because the expected gain may not
outweigh the additional ST protocol complexity."

This module implements the excluded design as an optional extension so
the trade-off can be measured (bench E15): a :class:`DownwardMux` wraps
N already-established network RMSs between the same host pair, stripes
messages across them by least-outstanding-bytes, and resequences at the
receiver — exactly the "additional ST protocol complexity" the paper
worried about (sequence numbers, a resequencing buffer, and head-of-line
stalls when one path lags).

With ECMP enabled on the underlying internetwork the "multiple network
paths" premise holds *within one network*: each constituent network RMS
carries its own flow key (``NetworkRms.flow_key``, assigned per (src,
dst) at creation), so the N stripes of a downward mux are pinned to
distinct equal-cost trunks by the routing engine's flow hash — real
path diversity, not N queues on the same bottleneck.  The
:attr:`DownwardMux.path_flows` view exposes the (flow key, route) per
stripe for benches asserting that spread.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.message import Message
from repro.errors import MessageTooLargeError, ParameterError, TransportError
from repro.netsim.network import NetworkRms
from repro.obs.registry import families
from repro.sim.context import SimContext
from repro.sim.events import Signal
from repro.sim.ports import Port

__all__ = ["DownwardMux", "DownmuxStats"]

_SEQ_HEADER = struct.Struct(">I")


@dataclass
class DownmuxStats:
    """Counters for one downward-multiplexed stream."""

    messages_sent: int = 0
    messages_delivered: int = 0
    resequenced: int = 0  # arrived out of order, held for reordering
    max_resequence_depth: int = 0
    per_path_sent: Dict[int, int] = field(default_factory=dict)


_FAMILIES = {
    **families("downmux", DownmuxStats, per_path_sent="downmux_per_path_sent{path}"),
    **families("downmux", ("max_resequence_depth",), kind="gauge"),
}


class DownwardMux:
    """Stripe one message stream across several network RMSs.

    All paths must share sender and receiver hosts.  The aggregate
    capacity is the sum of path capacities; the maximum message size is
    the smallest path's (minus the sequence header) — striping does not
    fragment.  Delivery is in send order: a resequencing buffer holds
    overtaking messages until their predecessors arrive.
    """

    def __init__(self, context: SimContext, paths: List[NetworkRms],
                 name: str = "downmux") -> None:
        if len(paths) < 2:
            raise ParameterError("downward multiplexing needs >= 2 paths")
        first = paths[0]
        for path in paths[1:]:
            if (path.sender.host != first.sender.host
                    or path.receiver.host != first.receiver.host):
                raise ParameterError(
                    "all downmux paths must join the same host pair"
                )
        self.context = context
        self.paths = list(paths)
        self.name = name
        self.capacity = sum(path.params.capacity for path in paths)
        self.max_message_size = (
            min(path.params.max_message_size for path in paths)
            - _SEQ_HEADER.size
        )
        self.stats = DownmuxStats()
        context.obs.metrics.watch(self.stats, _FAMILIES, stream=name)
        self.port = Port(context.loop, name=f"{name}.rx")
        self.on_failure: Signal = Signal(context.loop)
        self._next_seq = 0
        self._expected = 0
        self._resequence: Dict[int, bytes] = {}
        self._failed: Optional[str] = None
        for path in paths:
            path.port.set_handler(self._arrived)
            path.on_failure.listen(self._path_failed)

    # -- sender side ------------------------------------------------------

    def send(self, payload: bytes) -> None:
        """Send one message over the least-loaded path."""
        if self._failed:
            raise TransportError(f"{self.name} failed: {self._failed}")
        if len(payload) > self.max_message_size:
            raise MessageTooLargeError(
                f"{len(payload)}B exceeds the striped maximum "
                f"{self.max_message_size}B"
            )
        seq = self._next_seq
        self._next_seq += 1
        path = min(self.paths, key=lambda p: p.outstanding_bytes)
        framed = _SEQ_HEADER.pack(seq) + payload
        path.send(Message(framed, source=path.sender, target=path.receiver))
        self.stats.messages_sent += 1
        self.stats.per_path_sent[path.rms_id] = (
            self.stats.per_path_sent.get(path.rms_id, 0) + 1
        )

    # -- receiver side ------------------------------------------------------

    def _arrived(self, message: Message) -> None:
        data = message.payload
        if len(data) < _SEQ_HEADER.size:
            return
        (seq,) = _SEQ_HEADER.unpack_from(data, 0)
        payload = data[_SEQ_HEADER.size:]
        if seq < self._expected or seq in self._resequence:
            return  # duplicate
        if seq != self._expected:
            self.stats.resequenced += 1
            self._resequence[seq] = payload
            self.stats.max_resequence_depth = max(
                self.stats.max_resequence_depth, len(self._resequence)
            )
            return
        self._deliver(payload)
        while self._expected in self._resequence:
            self._deliver(self._resequence.pop(self._expected))

    def _deliver(self, payload: bytes) -> None:
        self._expected += 1
        self.stats.messages_delivered += 1
        self.port.deliver(payload)

    def _path_failed(self, rms: NetworkRms, reason: str) -> None:
        # A conservative policy: losing any stripe fails the stream (in-
        # order delivery cannot be maintained without retransmission).
        if self._failed:
            return
        self._failed = f"path {rms.name} failed: {reason}"
        self.on_failure.fire(self, self._failed)

    @property
    def path_flows(self) -> List[tuple]:
        """(flow key, route) per stripe, in path order.

        Under ECMP distinct flow keys hash to (usually) distinct
        equal-cost routes, so this is the place to check a mux's
        stripes actually diverge across the fabric.
        """
        return [(path.flow_key, list(path.route)) for path in self.paths]

    def __repr__(self) -> str:
        return (
            f"<DownwardMux {self.name} paths={len(self.paths)} "
            f"sent={self.stats.messages_sent}>"
        )
