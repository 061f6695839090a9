"""One retransmission discipline for every layer that tries again.

A :class:`Retry` owns what the control channel, RKOM, the reliable
stream, network RMS setup, the RPC baseline and the session loop's
backoff each kept by hand: the schedule (``schedule(attempt)``, the
timer's delay after ``attempt`` failed tries), the budget (the failed
tries forgiven), the one timer handle on ``owner`` (the loop or a
``TimerGroup``) and a give-up arm that runs at most once.  The layer
sends, and calls :meth:`Retry.again` when a try has failed: a
retransmission loop when its timer fires, the session loop when an
attempt fails (so it gives up at the failure, not one backoff later).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

__all__ = ["Retry"]


class Retry:
    """A schedule, a budget, one timer and a give-up."""

    __slots__ = ("_owner", "_schedule", "_budget", "_fire", "_give_up",
                 "attempts", "_timer")

    def __init__(self, owner: Any, schedule: Callable[[int], float],
                 budget: int, fire: Callable[[], None],
                 give_up: Callable[..., None]) -> None:
        self._owner = owner
        self._schedule = schedule
        self._budget = budget
        self._fire = fire
        self._give_up = give_up
        self.attempts = 0  # failed tries since the start or a reset
        self._timer = None

    def arm(self) -> Optional[float]:
        """Run ``fire`` ``schedule(attempts)`` seconds from now and return
        that delay; a timer that already runs is left alone (None)."""
        if self._timer is not None:
            return None
        delay = self._schedule(self.attempts)
        self._timer = self._owner.call_after(delay, self._expired)
        return delay

    def _expired(self) -> None:
        self._timer = None
        self._fire()

    def again(self, *args: Any) -> bool:
        """Count one failed try: True within the budget.  Past it the
        timer stops, ``give_up(*args)`` runs (the first time only) and
        this is False."""
        if self.attempts >= self._budget:
            give_up, self._give_up = self._give_up, None
            self.stop()
            if give_up is not None:
                give_up(*args)
            return False
        self.attempts += 1
        return True

    def reset(self) -> None:
        """Progress: forgive the failed tries so far."""
        self.attempts = 0

    def stop(self) -> None:
        """Cancel the timer (idempotent; :meth:`arm` may start it again)."""
        timer, self._timer = self._timer, None
        if timer is not None:
            timer.cancel()
