"""Recovery policy: backoff schedule and the parameter degradation ladder.

Degradation follows section 2.4: any actual parameter set compatible
with the acceptable set satisfies the request, so a session may
re-request with a weakened *desired* set -- stepping the delay-bound
type down (deterministic -> statistical -> best-effort), loosening the
delay bound, and shrinking capacity -- as long as every rung stays at or
above the acceptable floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.params import DelayBound, DelayBoundType, RmsParams, RmsRequest
from repro.errors import ParameterError

__all__ = ["ResiliencePolicy", "degradation_ladder"]


@dataclass(frozen=True)
class ResiliencePolicy:
    """The backoff schedule of a session's establishment attempts.

    Giving a session a policy is what turns on retry, failover to
    another attached network, the degradation ladder and queueing sends
    (up to the request floor's capacity) while the channel is down;
    without one, the first failure is final.
    """

    #: Consecutive failed establishment attempts before giving up.
    max_attempts: int = 8
    #: Jittered exponential backoff between attempts.
    backoff_initial: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap: float = 2.0
    #: Fractional jitter: each delay is scaled by ``1 + U(-j, +j)``.
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ParameterError("max_attempts must be >= 1")
        if self.backoff_initial <= 0 or self.backoff_factor < 1:
            raise ParameterError("backoff schedule must grow from > 0")
        if not 0.0 <= self.jitter < 1.0:
            raise ParameterError("jitter must be in [0, 1)")

    def backoff_delay(self, failures: int, rng) -> float:
        """Delay before attempt ``failures + 1`` (jitter from ``rng``)."""
        delay = min(
            self.backoff_cap,
            self.backoff_initial * self.backoff_factor ** failures,
        )
        if self.jitter > 0:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(delay, 1e-3)


def _weaken(current: RmsParams, floor: RmsParams) -> RmsParams:
    """One rung down from ``current``, never below ``floor``."""
    changes = {}
    # Delay-bound type: step down one level, but not below the floor's
    # type.  Deterministic only steps to statistical when a statistical
    # spec exists to reuse (a session cannot invent a workload
    # description); otherwise it drops straight to best-effort.
    if current.delay_bound_type > floor.delay_bound_type:
        if (
            current.delay_bound_type is DelayBoundType.DETERMINISTIC
            and current.statistical is not None
            and floor.delay_bound_type <= DelayBoundType.STATISTICAL
        ):
            changes["delay_bound_type"] = DelayBoundType.STATISTICAL
        else:
            changes["delay_bound_type"] = DelayBoundType.BEST_EFFORT
    # Delay bound: double toward the floor's bound.
    if not current.delay_bound.is_unbounded:
        limit = floor.delay_bound
        a = current.delay_bound.a * 2
        b = current.delay_bound.b * 2
        if not limit.is_unbounded:
            a = min(a, limit.a) if limit.a > current.delay_bound.a else current.delay_bound.a
            b = min(b, limit.b) if limit.b > current.delay_bound.b else current.delay_bound.b
        else:
            target_type = changes.get("delay_bound_type", current.delay_bound_type)
            if target_type is DelayBoundType.BEST_EFFORT:
                changes["delay_bound"] = DelayBound.unbounded()
        if "delay_bound" not in changes and (a, b) != (
            current.delay_bound.a,
            current.delay_bound.b,
        ):
            changes["delay_bound"] = DelayBound(a, b)
    # Capacity: halve toward the floor (message size stays sendable).
    next_capacity = max(
        floor.capacity, current.capacity // 2, current.max_message_size
    )
    if next_capacity < current.capacity:
        changes["capacity"] = next_capacity
    if not changes:
        return current
    return current.with_(**changes)


def degradation_ladder(request: RmsRequest) -> List[RmsRequest]:
    """The renegotiation ladder for a request, strongest first.

    Rung 0 is the original desired set; each later rung weakens the
    desired set one step toward the acceptable floor (which every rung
    keeps as its own floor, so any rung's establishment still satisfies
    the client's stated minimum).  The ladder stops when weakening
    converges, or after four weakened rungs.
    """
    rungs = [RmsRequest(desired=request.desired, acceptable=request.floor)]
    current = request.desired
    floor = request.floor
    for _ in range(4):
        weakened = _weaken(current, floor)
        if weakened == current:
            break
        rungs.append(RmsRequest(desired=weakened, acceptable=floor))
        current = weakened
    return rungs
