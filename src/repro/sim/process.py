"""Generator-based simulated processes.

Protocol state machines in this library are mostly callback-driven, but
workload generators and test drivers read much better as sequential code.
A :class:`Process` wraps a generator that yields:

- a ``float``/``int`` -- sleep for that many simulated seconds;
- a :class:`Future` -- suspend until the future resolves; ``yield``
  evaluates to the future's result (or raises its exception);
- ``None`` -- yield the scheduler for one same-time slot.

The sender flow control of section 4.4 ("a sender blocks when a port
queue size limit is reached") is expressed by yielding the future that a
flow-controlled port hands out.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional

from repro.errors import ProcessError
from repro.sim.events import EventLoop

__all__ = ["Future", "Process"]


_PENDING = "pending"
_DONE = "done"
_FAILED = "failed"


class Future:
    """A single-assignment result that callbacks or processes can await."""

    def __init__(self, loop: EventLoop) -> None:
        self._loop = loop
        self._state = _PENDING
        self._value: Any = None
        self._callbacks: List[Callable[["Future"], None]] = []

    @property
    def done(self) -> bool:
        return self._state != _PENDING

    @property
    def failed(self) -> bool:
        return self._state == _FAILED

    def result(self) -> Any:
        """The resolved value; raises the stored exception on failure."""
        if self._state == _PENDING:
            raise ProcessError("future is not resolved yet")
        if self._state == _FAILED:
            raise self._value
        return self._value

    def set_result(self, value: Any = None) -> None:
        self._resolve(_DONE, value)

    def set_exception(self, exc: BaseException) -> None:
        if not isinstance(exc, BaseException):
            raise ProcessError(f"not an exception: {exc!r}")
        self._resolve(_FAILED, exc)

    def _resolve(self, state: str, value: Any) -> None:
        if self._state != _PENDING:
            raise ProcessError("future resolved twice")
        self._state = state
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            self._loop.call_soon(callback, self)

    def add_done_callback(self, callback: Callable[["Future"], None]) -> None:
        """Run ``callback(self)`` once resolved (immediately if already)."""
        if self._state != _PENDING:
            self._loop.call_soon(callback, self)
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:
        return f"<Future {self._state}>"


class Process:
    """Drives a generator as a simulated process.

    The process starts at the current simulated time (same-time slot).
    Its :attr:`finished` future resolves with the generator's return
    value, or fails with its uncaught exception.
    """

    def __init__(
        self,
        loop: EventLoop,
        generator: Generator[Any, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "send"):
            raise ProcessError(f"Process needs a generator, got {generator!r}")
        self._loop = loop
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.finished = Future(loop)
        self._stopped = False
        loop.call_soon(self._step, None, None)

    @property
    def done(self) -> bool:
        return self.finished.done

    def stop(self, exc: Optional[BaseException] = None) -> None:
        """Terminate the process by throwing into the generator.

        With no exception given, the generator is closed and the process
        finishes with result ``None``.
        """
        if self.finished.done or self._stopped:
            return
        self._stopped = True
        if exc is None:
            self._generator.close()
            self.finished.set_result(None)
        else:
            self._loop.call_soon(self._step, None, exc)

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        if self.finished.done:
            return
        try:
            if exc is not None:
                yielded = self._generator.throw(exc)
            else:
                yielded = self._generator.send(value)
        except StopIteration as stop:
            self.finished.set_result(getattr(stop, "value", None))
            return
        except BaseException as error:  # noqa: BLE001 - propagate to future
            self.finished.set_exception(error)
            return
        self._wait_on(yielded)

    def _wait_on(self, yielded: Any) -> None:
        if yielded is None:
            self._loop.call_soon(self._step, None, None)
        elif isinstance(yielded, (int, float)):
            if yielded < 0:
                self._loop.call_soon(
                    self._step, None, ProcessError(f"negative sleep {yielded!r}")
                )
            else:
                self._loop.call_after(float(yielded), self._step, None, None)
        elif isinstance(yielded, Future):
            yielded.add_done_callback(self._on_future)
        else:
            self._loop.call_soon(
                self._step,
                None,
                ProcessError(f"process yielded unsupported value {yielded!r}"),
            )

    def _on_future(self, future: Future) -> None:
        if future.failed:
            self._step(None, future._value)
        else:
            self._step(future.result(), None)

    def __repr__(self) -> str:
        state = "done" if self.done else "running"
        return f"<Process {self.name} {state}>"
