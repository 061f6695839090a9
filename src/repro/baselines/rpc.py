"""Baseline: V-kernel-style request/reply over datagrams.

The paper cites the V distributed kernel [5] as the state of the art in
request/reply message passing.  This baseline runs request/reply over
plain datagrams with retransmission and duplicate suppression -- but
without RMS deadlines, so its traffic gets no preferential queueing, and
without the RKOM channel split between low-delay initial messages and
high-delay retransmissions (section 3.3, bench E9).
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.baselines.datagram import DatagramService
from repro.errors import RkomTimeoutError
from repro.sim.context import SimContext
from repro.sim.events import EventHandle
from repro.sim.process import Future

__all__ = ["DatagramRpc"]

_HEADER = struct.Struct(">BQH")  # kind, request id, op length
_KIND_REQUEST = 1
_KIND_REPLY = 2

_request_ids = itertools.count(1)

RPC_PORT = "dgram-rpc"

# The retransmission schedule equals RKOM's (transport/rkom.py), so E9
# compares the two protocols and not their timers.
REQUEST_TIMEOUT = 0.25
MAX_RETRANSMITS = 5
BACKOFF = 2.0
#: Replies kept for duplicate suppression.
REPLY_CACHE_SIZE = 256


@dataclass
class _Pending:
    future: Future
    frame: bytes
    peer: str
    timeout: float
    retries: int = 0
    timer: Optional[EventHandle] = None


class DatagramRpc:
    """Request/reply service for one host over datagrams."""

    def __init__(
        self,
        context: SimContext,
        dgram: DatagramService,
    ) -> None:
        self.context = context
        self.dgram = dgram
        self.handlers: Dict[str, Callable[[bytes, str], Any]] = {}
        self._pending: Dict[int, _Pending] = {}
        self._served: Dict[Any, Optional[bytes]] = {}
        self.calls = 0
        self.retransmissions = 0
        self.timeouts = 0
        dgram.bind(RPC_PORT, self._arrived)

    def register_handler(self, op: str, handler: Callable[[bytes, str], Any]) -> None:
        self.handlers[op] = handler

    def call(
        self,
        peer_host: str,
        op: str,
        payload: bytes = b"",
        timeout: Optional[float] = None,
    ) -> Future:
        request_id = next(_request_ids)
        op_bytes = op.encode("utf-8")
        frame = (
            _HEADER.pack(_KIND_REQUEST, request_id, len(op_bytes))
            + op_bytes
            + payload
        )
        pending = _Pending(
            future=Future(self.context.loop),
            frame=frame,
            peer=peer_host,
            timeout=timeout or REQUEST_TIMEOUT,
        )
        self._pending[request_id] = pending
        self.calls += 1
        self.dgram.send(peer_host, RPC_PORT, frame)
        pending.timer = self.context.loop.call_after(
            pending.timeout, self._timeout, request_id
        )
        return pending.future

    def _timeout(self, request_id: int) -> None:
        pending = self._pending.get(request_id)
        if pending is None:
            return
        pending.retries += 1
        if pending.retries > MAX_RETRANSMITS:
            self._pending.pop(request_id, None)
            self.timeouts += 1
            pending.future.set_exception(
                RkomTimeoutError(f"no reply from {pending.peer}")
            )
            return
        self.retransmissions += 1
        self.dgram.send(pending.peer, RPC_PORT, pending.frame)
        pending.timeout *= BACKOFF
        pending.timer = self.context.loop.call_after(
            pending.timeout, self._timeout, request_id
        )

    def _arrived(self, payload: bytes, source: str) -> None:
        if len(payload) < _HEADER.size:
            return
        kind, request_id, op_length = _HEADER.unpack_from(payload, 0)
        body = payload[_HEADER.size :]
        if kind == _KIND_REQUEST:
            self._serve(source, request_id, body, op_length)
        elif kind == _KIND_REPLY:
            pending = self._pending.pop(request_id, None)
            if pending is None:
                return
            if pending.timer is not None:
                pending.timer.cancel()
            pending.future.set_result(body)

    def _serve(self, source: str, request_id: int, body: bytes, op_length: int) -> None:
        key = (source, request_id)
        if key in self._served:
            cached = self._served[key]
            if cached is not None:
                self._send_reply(source, request_id, cached)
            return
        op = body[:op_length].decode("utf-8", errors="replace")
        payload = body[op_length:]
        handler = self.handlers.get(op)
        if handler is None:
            self._served[key] = b""
            self._send_reply(source, request_id, b"")
            return
        self._served[key] = None
        if len(self._served) > REPLY_CACHE_SIZE:
            self._served.pop(next(iter(self._served)))
        result = handler(payload, source)
        if isinstance(result, Future):
            result.add_done_callback(
                lambda f: self._finish(source, request_id, f)
            )
        else:
            self._served[key] = bytes(result)
            self._send_reply(source, request_id, bytes(result))

    def _finish(self, source: str, request_id: int, future: Future) -> None:
        reply = b"" if future.failed else bytes(future.result())
        self._served[(source, request_id)] = reply
        self._send_reply(source, request_id, reply)

    def _send_reply(self, peer: str, request_id: int, reply: bytes) -> None:
        frame = _HEADER.pack(_KIND_REPLY, request_id, 0) + reply
        self.dgram.send(peer, RPC_PORT, frame)
