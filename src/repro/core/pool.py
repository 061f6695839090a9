"""Object pools for hot-path allocation elision.

The simulator's steady-state send path creates one frame per network
message; those objects carry no externally retained state (observability
records ids and sizes, never the frame), so they can be recycled instead
of churned through the allocator.  Pools here are deliberately dumb: a
bounded free list with no locking (the simulator is single-threaded) and
no automatic reset -- the acquiring site owns re-initialization, the
releasing site owns clearing references so pooled objects never pin
payloads.

Pooling is *conservative by construction*: failing to release an object
merely falls back to garbage collection, so any code path unsure about
outstanding references (drops, sniffers) simply skips the release.
"""

from __future__ import annotations

from typing import Any, List

__all__ = ["ObjectPool"]


class ObjectPool:
    """A bounded LIFO free list."""

    __slots__ = ("_free", "_cap")

    def __init__(self, cap: int = 256) -> None:
        self._free: List[Any] = []
        self._cap = cap

    def acquire(self) -> Any:
        """Pop a recycled object, or ``None`` if the pool is empty."""
        free = self._free
        return free.pop() if free else None

    def release(self, obj: Any) -> bool:
        """Return an object to the pool; ``False`` if the pool is full."""
        free = self._free
        if len(free) < self._cap:
            free.append(obj)
            return True
        return False

    def __len__(self) -> int:
        return len(self._free)
