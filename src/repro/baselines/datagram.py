"""Baseline: the "traditional" datagram abstraction (paper section 1).

"In existing distributed systems, the corresponding interface has
typically provided a simple abstraction such as unreliable, insecure
datagrams."  This service runs over the same simulated networks as the
RMS stack, but exposes only fire-and-forget datagrams: no parameters,
no deadlines (every frame carries an infinite transmission deadline, so
deadline-ordered queues degenerate to FIFO for this traffic), no
security, no capacity reservation.

Higher baseline layers (the TCP-like stream and the V-style RPC) build
on this, mirroring how the paper's comparison systems layered their
abstractions.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List

from repro.core.message import Label, Message
from repro.core.params import DelayBound, DelayBoundType, RmsParams
from repro.netsim.network import Network, NetworkRms
from repro.netsim.topology import Host
from repro.sim.context import SimContext

__all__ = ["DatagramService"]

DGRAM_PORT = "dgram"

_DGRAM_HEADER = struct.Struct(">H")  # destination port name length


class DatagramService:
    """Unreliable, insecure datagrams for one host.

    One best-effort network RMS per destination host is created lazily
    and shared by all traffic (standing in for "no per-flow state").
    Datagrams queued while that RMS is being set up are sent when it
    resolves; setup failure drops them, as a real datagram service
    would.
    """

    def __init__(self, context: SimContext, host: Host, network: Network) -> None:
        self.context = context
        self.host = host
        self.network = network
        self._out: Dict[str, NetworkRms] = {}
        self._pending: Dict[str, List[bytes]] = {}
        self._handlers: Dict[str, Callable[[bytes, str], None]] = {}
        self.sent = 0
        self.received = 0
        self.dropped_no_route = 0
        network.listen_incoming(host.name, self._incoming)

    def bind(self, port: str, handler: Callable[[bytes, str], None]) -> None:
        """Receive datagrams addressed to ``port`` as ``handler(payload,
        source_host)``."""
        self._handlers[port] = handler

    def send(self, dst_host: str, port: str, payload: bytes) -> None:
        """Fire-and-forget one datagram."""
        port_bytes = port.encode("utf-8")
        frame = _DGRAM_HEADER.pack(len(port_bytes)) + port_bytes + payload
        rms = self._out.get(dst_host)
        if rms is not None and rms.is_open:
            self._transmit(rms, frame)
            return
        self._pending.setdefault(dst_host, []).append(frame)
        if dst_host not in self._out:
            self._open_path(dst_host)
        elif rms is not None and not rms.is_open:
            # The old path died; rebuild it.
            self._out.pop(dst_host, None)
            self._open_path(dst_host)

    def _transmit(self, rms: NetworkRms, frame: bytes) -> None:
        if len(frame) > rms.params.max_message_size:
            # Datagram services drop oversized packets silently.
            self.dropped_no_route += 1
            return
        message = Message(
            frame,
            source=Label(self.host.name, DGRAM_PORT),
            target=Label(rms.receiver.host, DGRAM_PORT),
        )
        rms.send(message, deadline=float("inf"))
        self.sent += 1

    def _open_path(self, dst_host: str) -> None:
        params = RmsParams(
            capacity=1024 * 1024,
            max_message_size=self.network.properties.mtu,
            delay_bound=DelayBound.unbounded(),
            delay_bound_type=DelayBoundType.BEST_EFFORT,
            bit_error_rate=1.0,  # accept anything: datagrams promise nothing
        )
        self._out[dst_host] = None  # mark as in progress
        future = self.network.create_rms(
            Label(self.host.name, DGRAM_PORT),
            Label(dst_host, DGRAM_PORT),
            params,
            params,
        )

        def done(result) -> None:
            if result.failed:
                self._out.pop(dst_host, None)
                dropped = self._pending.pop(dst_host, [])
                self.dropped_no_route += len(dropped)
                return
            rms = result.result()
            self._out[dst_host] = rms
            for frame in self._pending.pop(dst_host, []):
                self._transmit(rms, frame)

        future.add_done_callback(done)

    def _incoming(self, rms: NetworkRms) -> None:
        if rms.receiver.host != self.host.name:
            return
        if rms.receiver.port != DGRAM_PORT:
            return
        rms.port.set_handler(lambda message: self._arrived(message))

    def _arrived(self, message: Message) -> None:
        data = message.payload
        if len(data) < _DGRAM_HEADER.size:
            return
        (port_length,) = _DGRAM_HEADER.unpack_from(data, 0)
        offset = _DGRAM_HEADER.size
        if len(data) < offset + port_length:
            return
        port = data[offset : offset + port_length].decode("utf-8", errors="replace")
        payload = data[offset + port_length :]
        self.received += 1
        handler = self._handlers.get(port)
        if handler is not None:
            source = message.source.host if message.source else ""
            handler(payload, source)

    def register_quench_handler(self, callback: Callable[[int], None]) -> None:
        """Receive ICMP-style source quench notifications (section 4.4)."""
        self.network.register_quench_handler(
            self.host.name, lambda frame: callback(frame.rms_id)
        )

    def __repr__(self) -> str:
        return (
            f"<DatagramService host={self.host.name} sent={self.sent} "
            f"received={self.received}>"
        )
