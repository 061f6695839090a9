"""Recovery policy: backoff schedule and the parameter degradation ladder.

Degradation follows section 2.4: any actual parameter set compatible
with the acceptable set satisfies the request, so a session may
re-request with a weakened *desired* set -- stepping the delay-bound
type down (deterministic -> statistical -> best-effort), loosening the
delay bound, and shrinking capacity -- as long as every rung stays at or
above the acceptable floor.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.params import DelayBound, DelayBoundType, RmsParams

__all__ = ["backoff_delay", "degradation_ladder"]


#: The backoff schedule of a resilient session's establishment attempts:
#: consecutive failed attempts before giving up, and a jittered
#: exponential backoff between attempts.
MAX_ATTEMPTS = 8
BACKOFF_INITIAL = 0.05
BACKOFF_FACTOR = 2.0
BACKOFF_CAP = 2.0
#: Fractional jitter: each delay is scaled by ``1 + U(-j, +j)``.
JITTER = 0.5


def backoff_delay(failures: int, rng) -> float:
    """Delay before attempt ``failures + 1`` (jitter from ``rng``)."""
    delay = min(BACKOFF_CAP, BACKOFF_INITIAL * BACKOFF_FACTOR ** failures)
    if JITTER > 0:
        delay *= 1.0 + JITTER * (2.0 * rng.random() - 1.0)
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


def degradation_ladder(
    desired: RmsParams, acceptable: RmsParams
) -> List[Tuple[RmsParams, RmsParams]]:
    """The renegotiation ladder for a request, strongest first: one
    ``(desired, acceptable)`` pair per rung.

    Rung 0 is the original desired set; each later rung weakens the
    desired set one step toward the acceptable floor (which every rung
    keeps as its own, so any rung's establishment still satisfies the
    client's stated minimum).  The ladder stops when weakening
    converges, or after four weakened rungs.
    """
    rungs = [(desired, acceptable)]
    current = desired
    for _ in range(4):
        weakened = _weaken(current, acceptable)
        if weakened == current:
            break
        rungs.append((weakened, acceptable))
        current = weakened
    return rungs
