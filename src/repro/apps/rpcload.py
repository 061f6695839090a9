"""Request/reply workload: closed-loop RPC clients.

Drives any request/reply service exposing ``call(peer, op, payload) ->
Future`` (both :class:`repro.transport.rkom.RkomService` and the
datagram-RPC baseline qualify), measuring round-trip latencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.obs.stats import SummaryStats, summarize
from repro.sim.context import SimContext

__all__ = ["RpcWorkload", "RpcReport"]

#: The operation every caller invokes, the number of closed-loop
#: callers and the request size: every experiment runs one ``echo``
#: caller with 64 B requests (a test monkeypatches them).
OP = "echo"
CLIENTS = 1
REQUEST_BYTES = 64


@dataclass
class RpcReport:
    """Latency summary of one RPC workload run."""

    calls_attempted: int
    calls_completed: int
    calls_failed: int
    rtt: SummaryStats


class RpcWorkload:
    """``CLIENTS`` closed-loop callers, each issuing ``calls_per_client``
    requests of ``REQUEST_BYTES`` with exponential think time between
    them."""

    def __init__(
        self,
        context: SimContext,
        service,
        peer_host: str,
        calls_per_client: int = 20,
        think_time: float = 0.01,
    ) -> None:
        self.context = context
        self.service = service
        self.peer_host = peer_host
        self.think_time = think_time
        self.rtts: List[float] = []
        self.failed = 0
        self.attempted = 0
        self._rng = context.rng.stream("rpc-load")
        self.processes = [
            context.spawn(
                self._client(index, calls_per_client), name=f"rpc-client-{index}"
            )
            for index in range(CLIENTS)
        ]

    def _client(self, index: int, calls: int):
        payload = bytes([index % 256]) * REQUEST_BYTES
        for _ in range(calls):
            if self.think_time > 0:
                yield self._rng.expovariate(1.0 / self.think_time)
            start = self.context.now
            self.attempted += 1
            try:
                yield self.service.call(self.peer_host, OP, payload)
            except Exception:  # noqa: BLE001 - timeouts count as failures
                self.failed += 1
                continue
            self.rtts.append(self.context.now - start)
        return len(self.rtts)

    def report(self) -> RpcReport:
        return RpcReport(
            calls_attempted=self.attempted,
            calls_completed=len(self.rtts),
            calls_failed=self.failed,
            rtt=summarize(self.rtts),
        )
