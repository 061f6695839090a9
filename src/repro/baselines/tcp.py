"""Baseline: a TCP-like reliable byte stream over datagrams.

The paper contrasts RMS capacity reservation with TCP's window flow
control plus ICMP source quench: "the flow control of TCP does not
protect gateway buffers; ICMP source quench messages provide an ad hoc
and often ineffective solution to this flow control problem" (section
4.4).  This module implements the comparison system: a sliding-window,
slow-start/AIMD stream whose congestion response to source quench is to
halve its window -- the classic 4.3BSD-era behaviour.

It is message-oriented (fixed segments) rather than byte-oriented; the
congestion and flow-control dynamics, which are what E11 measures, are
unaffected.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass
from typing import Dict, Optional

from repro.baselines.datagram import DatagramService
from repro.errors import TransportError
from repro.sim.context import SimContext
from repro.sim.events import EventHandle
from repro.sim.ports import Port

__all__ = ["TcpConfig", "TcpStats", "TcpLikeConnection"]

_SEG_HEADER = struct.Struct(">BII")  # kind, seq, window/ack
_KIND_DATA = 1
_KIND_ACK = 2

_conn_ids = itertools.count(1)


INITIAL_CWND = 1  # segments
MAX_WINDOW = 64  # segments (receiver window)
MIN_RTO = 0.2
SLOW_START_THRESHOLD = 32


@dataclass
class TcpConfig:
    """What E11 sets: the segment size and the first retransmit timeout."""

    mss: int = 512  # segment payload bytes
    retransmit_timeout: float = 0.5


@dataclass
class TcpStats:
    segments_sent: int = 0
    segments_delivered: int = 0
    bytes_delivered: int = 0
    retransmissions: int = 0
    quenches_received: int = 0
    timeouts: int = 0


class TcpLikeConnection:
    """One simplex reliable stream between two hosts over datagrams.

    Both endpoints live on this object (single-process simulation); the
    sender uses ``send``; the receiver delivers to ``rx_port``.
    """

    def __init__(
        self,
        context: SimContext,
        sender: DatagramService,
        receiver: DatagramService,
        config: Optional[TcpConfig] = None,
    ) -> None:
        self.context = context
        self.config = config or TcpConfig()
        self.sender_dgram = sender
        self.receiver_dgram = receiver
        self.stats = TcpStats()
        self.conn_id = next(_conn_ids)
        self._port_name = f"tcp-{self.conn_id}"
        # Sender state.
        self._send_buffer: Dict[int, bytes] = {}
        self._next_seq = 0
        self._send_base = 0  # oldest unacked
        self.congestion_window = float(INITIAL_CWND)
        self._ssthresh = SLOW_START_THRESHOLD
        self._rto = self.config.retransmit_timeout
        self._timer: Optional[EventHandle] = None
        self._duplicate_acks = 0
        self._sent_upto = 0  # next never-sent sequence number
        # Receiver state.
        self.rx_port = Port(context.loop, name=f"tcp{self.conn_id}.rx")
        self._rx_expected = 0
        self._rx_buffer: Dict[int, bytes] = {}
        receiver.bind(self._port_name, self._segment_arrived)
        sender.bind(self._port_name, self._ack_arrived)
        # React to ICMP source quench by halving the congestion window.
        sender.register_quench_handler(self._quench_arrived)

    # ------------------------------------------------------------------
    # Sender
    # ------------------------------------------------------------------

    def send(self, payload: bytes) -> None:
        """Queue one segment-sized message for reliable delivery."""
        if len(payload) > self.config.mss:
            raise TransportError(
                f"segment of {len(payload)}B exceeds mss {self.config.mss}B"
            )
        seq = self._next_seq
        self._next_seq += 1
        self._send_buffer[seq] = payload
        self._try_transmit()

    @property
    def window(self) -> int:
        """Usable window in segments: min(congestion, receiver)."""
        return max(1, min(int(self.congestion_window), MAX_WINDOW))

    def _try_transmit(self) -> None:
        while (
            self._send_base + self.window > self._highest_sent()
            and self._highest_sent() in self._send_buffer
        ):
            seq = self._highest_sent()
            # Advance before transmitting so the retransmit timer sees
            # the segment as outstanding.
            self._sent_upto = seq + 1
            self._transmit(seq)

    def _highest_sent(self) -> int:
        return self._sent_upto

    def _transmit(self, seq: int) -> None:
        payload = self._send_buffer.get(seq)
        if payload is None:
            return
        segment = _SEG_HEADER.pack(_KIND_DATA, seq, 0) + payload
        self.sender_dgram.send(
            self.receiver_dgram.host.name, self._port_name, segment
        )
        self.stats.segments_sent += 1
        self._arm_timer()

    def _arm_timer(self) -> None:
        if self._timer is not None and not self._timer.cancelled:
            return
        if self._send_base >= self._sent_upto:
            return
        self._timer = self.context.loop.call_after(self._rto, self._timeout)

    def _timeout(self) -> None:
        self._timer = None
        if self._send_base >= self._sent_upto:
            return
        # Classic TCP timeout: collapse to slow start.
        self.stats.timeouts += 1
        self._ssthresh = max(2, int(self.congestion_window / 2))
        self.congestion_window = float(INITIAL_CWND)
        self._rto = min(self._rto * 2, 8.0)
        self.stats.retransmissions += 1
        self._transmit(self._send_base)
        self._arm_timer()

    def _ack_arrived(self, payload: bytes, _source: str) -> None:
        if len(payload) < _SEG_HEADER.size:
            return
        kind, ack_seq, _window = _SEG_HEADER.unpack_from(payload, 0)
        if kind != _KIND_ACK:
            return
        if ack_seq <= self._send_base:
            self._duplicate_acks += 1
            if self._duplicate_acks >= 3 and self._send_base in self._send_buffer:
                # Fast retransmit.
                self._duplicate_acks = 0
                self.stats.retransmissions += 1
                self.congestion_window = max(1.0, self.congestion_window / 2)
                self._transmit(self._send_base)
            return
        self._duplicate_acks = 0
        for seq in range(self._send_base, ack_seq):
            self._send_buffer.pop(seq, None)
        self._send_base = ack_seq
        self._rto = max(MIN_RTO, self._rto * 0.9)
        if self.congestion_window < self._ssthresh:
            self.congestion_window += 1.0  # slow start
        else:
            # congestion avoidance
            self.congestion_window += 1.0 / max(self.congestion_window, 1.0)
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._arm_timer()
        self._try_transmit()

    def _quench_arrived(self, _rms_id: int) -> None:
        """ICMP source quench: halve the congestion window (section 4.4)."""
        self.stats.quenches_received += 1
        self._ssthresh = max(2, int(self.congestion_window / 2))
        self.congestion_window = max(1.0, self.congestion_window / 2)

    @property
    def all_acked(self) -> bool:
        return self._send_base == self._next_seq

    # ------------------------------------------------------------------
    # Receiver
    # ------------------------------------------------------------------

    def _segment_arrived(self, payload: bytes, source: str) -> None:
        if len(payload) < _SEG_HEADER.size:
            return
        kind, seq, _unused = _SEG_HEADER.unpack_from(payload, 0)
        if kind != _KIND_DATA:
            return
        data = payload[_SEG_HEADER.size :]
        if seq >= self._rx_expected and seq not in self._rx_buffer:
            self._rx_buffer[seq] = data
        while self._rx_expected in self._rx_buffer:
            delivered = self._rx_buffer.pop(self._rx_expected)
            self._rx_expected += 1
            self.stats.segments_delivered += 1
            self.stats.bytes_delivered += len(delivered)
            self.rx_port.deliver(delivered)
        ack = _SEG_HEADER.pack(_KIND_ACK, self._rx_expected, 0)
        self.receiver_dgram.send(
            self.sender_dgram.host.name, self._port_name, ack
        )

    def __repr__(self) -> str:
        return (
            f"<TcpLikeConnection #{self.conn_id} cwnd={self.congestion_window:.1f} "
            f"base={self._send_base} next={self._next_seq}>"
        )
