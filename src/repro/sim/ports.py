"""Ports: passive message receivers, optionally flow controlled.

Section 2 of the paper: "The receiver is typically a passive object such
as a port; a message is considered delivered when it is enqueued on the
port or given to a process waiting at the port."

Section 4.4 uses "a flow controlled local IPC port" between a sending
process and its send protocol: "A sender blocks when a port queue size
limit is reached."  :class:`FlowControlledPort` implements exactly that:
``put`` returns a future that resolves once the item is accepted, and a
process that yields the future blocks until then.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.events import EventLoop
from repro.sim.process import Future

__all__ = ["Port", "FlowControlledPort"]


class Port:
    """An unbounded passive mailbox.

    ``deliver`` enqueues an item (or hands it directly to a waiting
    ``get`` future).  An optional ``on_deliver`` callback supports
    callback-style protocol receivers.  The mailbox (the item queue, the
    line of getters) is built by the first item queued or getter that
    waits, so a callback-driven port never holds one.
    """

    def __init__(
        self,
        loop: EventLoop,
        name: str = "port",
        on_deliver: Optional[Callable[[Any], None]] = None,
    ) -> None:
        self._loop = loop
        self.name = name
        self._queue: Optional[Deque[Any]] = None
        self._getters: Optional[Deque[Future]] = None
        self._on_deliver = on_deliver
        self.delivered_count = 0

    def __len__(self) -> int:
        return len(self._queue or ())

    def set_handler(self, on_deliver: Optional[Callable[[Any], None]]) -> None:
        """Switch to callback delivery; queued items are replayed first."""
        self._on_deliver = on_deliver
        if on_deliver is not None:
            while self._queue:
                on_deliver(self._queue.popleft())

    def deliver(self, item: Any) -> None:
        """Deliver ``item``: wake a waiting getter or enqueue."""
        self.delivered_count += 1
        if self._on_deliver is not None:
            self._on_deliver(item)
            return
        if self._getters:
            self._getters.popleft().set_result(item)
        elif self._queue is None:
            self._queue = deque((item,))
        else:
            self._queue.append(item)

    def get(self) -> Future:
        """A future resolving to the next delivered item (FIFO order)."""
        if self._on_deliver is not None:
            raise SimulationError(f"port {self.name} is callback-driven")
        future = Future(self._loop)
        if self._queue:
            future.set_result(self._queue.popleft())
        elif self._getters is None:
            self._getters = deque((future,))
        else:
            self._getters.append(future)
        return future

    def __repr__(self) -> str:
        return f"<Port {self.name} queued={len(self)}>"


class FlowControlledPort:
    """A bounded mailbox whose producers block when it is full.

    This is the paper's sender-flow-control primitive (section 4.4): the
    consumer (a send protocol) ``take``s items at its own pace; while the
    queue is at ``limit``, each ``put`` future stays pending and the
    producing process is suspended.
    """

    def __init__(self, loop: EventLoop, limit: int, name: str = "fcport") -> None:
        if limit < 1:
            raise SimulationError(f"port limit must be >= 1, got {limit}")
        self._loop = loop
        self.limit = limit
        self.name = name
        self._queue: Deque[Any] = deque()
        self._putters: Deque[Tuple[Any, Future]] = deque()
        self._getters: Deque[Future] = deque()
        self.blocked_puts = 0
        self.total_puts = 0

    def __len__(self) -> int:
        return len(self._queue)

    def put(self, item: Any) -> Future:
        """Offer ``item``; the returned future resolves when accepted."""
        self.total_puts += 1
        future = Future(self._loop)
        if self._getters:
            self._getters.popleft().set_result(item)
            future.set_result(None)
        elif len(self._queue) < self.limit:
            self._queue.append(item)
            future.set_result(None)
        else:
            self.blocked_puts += 1
            self._putters.append((item, future))
        return future

    def take(self) -> Future:
        """A future resolving to the next item; admits one blocked putter."""
        future = Future(self._loop)
        if self._queue:
            future.set_result(self._queue.popleft())
            self._admit_putter()
        elif self._putters:
            item, put_future = self._putters.popleft()
            future.set_result(item)
            put_future.set_result(None)
        else:
            self._getters.append(future)
        return future

    def _admit_putter(self) -> None:
        if self._putters and len(self._queue) < self.limit:
            item, put_future = self._putters.popleft()
            self._queue.append(item)
            put_future.set_result(None)

    def drain(self) -> List[Any]:
        """Remove and return all queued items (blocked putters stay put)."""
        items = list(self._queue)
        self._queue.clear()
        return items

    def __repr__(self) -> str:
        return (
            f"<FlowControlledPort {self.name} queued={len(self._queue)}/"
            f"{self.limit} blocked={len(self._putters)}>"
        )
