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
from functools import partial
from typing import Any, Callable, Dict, Optional, Tuple

from repro.baselines.datagram import DatagramService
from repro.errors import RkomTimeoutError
from repro.sim.context import SimContext
from repro.sim.process import Future
from repro.sim.retry import Retry

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


def _request_delay(attempt: int) -> float:
    return REQUEST_TIMEOUT * BACKOFF ** attempt


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
        #: request id -> (future, frame, peer, retry) awaiting a reply
        self._pending: Dict[int, Tuple[Future, bytes, str, Retry]] = {}
        self._served: Dict[Any, Optional[bytes]] = {}
        self.calls = 0
        self.retransmissions = 0
        self.timeouts = 0
        dgram.bind(RPC_PORT, self._arrived)

    def register_handler(self, op: str, handler: Callable[[bytes, str], Any]) -> None:
        self.handlers[op] = handler

    def call(self, peer_host: str, op: str, payload: bytes = b"") -> Future:
        request_id = next(_request_ids)
        op_bytes = op.encode("utf-8")
        frame = (
            _HEADER.pack(_KIND_REQUEST, request_id, len(op_bytes))
            + op_bytes
            + payload
        )
        future = Future(self.context.loop)
        retry = Retry(
            self.context.loop, _request_delay, MAX_RETRANSMITS,
            partial(self._timeout, request_id),
            partial(self._timed_out, request_id),
        )
        self._pending[request_id] = (future, frame, peer_host, retry)
        self.calls += 1
        self.dgram.send(peer_host, RPC_PORT, frame)
        retry.arm()
        return future

    def _timeout(self, request_id: int) -> None:
        _future, frame, peer, retry = self._pending[request_id]
        if retry.again():
            self.retransmissions += 1
            self.dgram.send(peer, RPC_PORT, frame)
            retry.arm()

    def _timed_out(self, request_id: int) -> None:
        future, _, peer, _ = self._pending.pop(request_id)
        self.timeouts += 1
        future.set_exception(RkomTimeoutError(f"no reply from {peer}"))

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
            future, _frame, _peer, retry = pending
            retry.stop()
            future.set_result(body)

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
