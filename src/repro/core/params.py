"""RMS parameters (paper sections 2.1-2.3).

A Real-Time Message Stream carries three Boolean reliability/security
parameters, capacity and maximum-message-size limits, a linear delay
bound ``A + B * size`` of one of three types, and an average bit error
rate.  This module defines those parameter objects, their validation
rules, and the compatibility relation of section 2.4.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import ParameterError

__all__ = [
    "DelayBoundType",
    "DelayBound",
    "StatisticalSpec",
    "RmsParams",
    "is_compatible",
    "UNBOUNDED_DELAY",
]

#: Sentinel for "no meaningful delay bound" (used by best-effort RMSs
#: whose deadlines only order queues, never reject traffic).
UNBOUNDED_DELAY = math.inf


class DelayBoundType(enum.IntEnum):
    """Delay-bound types of section 2.3, ordered by strength.

    A provider type *satisfies* a requested type when it is at least as
    strong: deterministic satisfies statistical and best-effort requests,
    and so on down.
    """

    BEST_EFFORT = 0
    STATISTICAL = 1
    DETERMINISTIC = 2

    def satisfies(self, requested: "DelayBoundType") -> bool:
        return self >= requested


@dataclass(frozen=True)
class DelayBound:
    """An upper bound on message delay: ``A + B * (message size)``.

    ``a`` is in seconds; ``b`` in seconds per byte.  The bound covers the
    elapsed real time between the start of the send operation and the
    moment of delivery (section 2.2), including queueing, transmission,
    and processing at whichever RMS level the stream lives (section 3.4).
    """

    a: float
    b: float = 0.0

    def __post_init__(self) -> None:
        if self.a < 0 or self.b < 0:
            raise ParameterError(f"delay bound terms must be >= 0: {self}")

    def bound_for(self, size: int) -> float:
        """The delay bound for a message of ``size`` bytes."""
        if size < 0:
            raise ParameterError(f"message size must be >= 0, got {size}")
        return self.a + self.b * size

    def no_greater_than(self, other: "DelayBound") -> bool:
        """True when this bound is at least as tight as ``other``.

        Element-wise comparison: a tighter bound has smaller ``a`` and
        smaller ``b``, hence bounds every message size at least as well.
        An unbounded ``other`` accepts anything (its per-byte term is
        irrelevant when the fixed term is already infinite).
        """
        if other.is_unbounded:
            return True
        return self.a <= other.a and self.b <= other.b

    @classmethod
    def unbounded(cls) -> "DelayBound":
        return cls(UNBOUNDED_DELAY, 0.0)

    @property
    def is_unbounded(self) -> bool:
        return math.isinf(self.a)

    def __str__(self) -> str:
        if self.is_unbounded:
            return "unbounded"
        return f"{self.a * 1e3:.3f}ms + {self.b * 1e6:.3f}us/B"


@dataclass(frozen=True)
class StatisticalSpec:
    """Workload description and guarantee for statistical delay bounds.

    ``average_load`` and ``burstiness`` are supplied by the client
    (section 2.2); ``delay_probability`` is the provider's guarantee that
    any message meets the delay bound.
    """

    average_load: float  # bytes per second offered by the client
    burstiness: float = 1.0  # peak-to-average ratio, >= 1
    delay_probability: float = 0.99  # provider guarantee, in (0, 1]

    def __post_init__(self) -> None:
        if self.average_load < 0:
            raise ParameterError(f"average load must be >= 0: {self.average_load}")
        if self.burstiness < 1.0:
            raise ParameterError(f"burstiness must be >= 1: {self.burstiness}")
        if not 0.0 < self.delay_probability <= 1.0:
            raise ParameterError(
                f"delay probability must be in (0, 1]: {self.delay_probability}"
            )

    @property
    def peak_load(self) -> float:
        """Worst-case short-term offered load in bytes per second."""
        return self.average_load * self.burstiness


@dataclass(frozen=True)
class RmsParams:
    """The full parameter set of one RMS (sections 2.1-2.3).

    Invariant from section 2.2: the maximum message size cannot be
    greater than the RMS capacity.
    """

    # -- reliability and security (2.1) ---------------------------------
    reliability: bool = False
    authentication: bool = False
    privacy: bool = False
    # -- performance (2.2) ----------------------------------------------
    capacity: int = 65536  # bytes outstanding within the RMS
    max_message_size: int = 1500  # bytes, enforced by the sender
    delay_bound: DelayBound = field(default_factory=DelayBound.unbounded)
    delay_bound_type: DelayBoundType = DelayBoundType.BEST_EFFORT
    statistical: Optional[StatisticalSpec] = None
    bit_error_rate: float = 0.0  # average, guaranteed by the provider

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ParameterError(f"capacity must be > 0: {self.capacity}")
        if self.max_message_size <= 0:
            raise ParameterError(
                f"max message size must be > 0: {self.max_message_size}"
            )
        if self.max_message_size > self.capacity:
            raise ParameterError(
                f"max message size {self.max_message_size} exceeds capacity "
                f"{self.capacity} (section 2.2)"
            )
        if not 0.0 <= self.bit_error_rate <= 1.0:
            raise ParameterError(
                f"bit error rate must be in [0, 1]: {self.bit_error_rate}"
            )
        if (
            self.delay_bound_type == DelayBoundType.STATISTICAL
            and self.statistical is None
        ):
            raise ParameterError(
                "statistical delay bound requires a StatisticalSpec (2.3)"
            )
        if (
            self.delay_bound_type == DelayBoundType.DETERMINISTIC
            and self.delay_bound.is_unbounded
        ):
            raise ParameterError("deterministic RMS needs a finite delay bound")

    # -- derived quantities ----------------------------------------------

    def implied_bandwidth(self) -> float:
        """Guaranteed bandwidth implied by the other parameters (2.2).

        With maximum message size ``M``, worst-case delay ``D`` for a
        size-``M`` message, and capacity ``C``, a client may send a
        size-``M`` message every ``D * M / C`` seconds without violating
        the capacity rule, for about ``C / D`` bytes per second.
        """
        if self.delay_bound.is_unbounded:
            return 0.0
        worst_delay = self.delay_bound.bound_for(self.max_message_size)
        if worst_delay <= 0:
            return math.inf
        return self.capacity / worst_delay

    def message_period(self) -> float:
        """Minimum spacing of maximum-size sends under the capacity rule."""
        if self.delay_bound.is_unbounded:
            return math.inf
        worst_delay = self.delay_bound.bound_for(self.max_message_size)
        return worst_delay * self.max_message_size / self.capacity

    # -- the section 2.5 voice example ------------------------------------

    @classmethod
    def for_voice(
        cls,
        delay: float = 0.08,
        capacity: int = 16384,
        delay_probability: float = 0.98,
        average_load: float = 8000.0,
    ) -> "RmsParams":
        """High capacity, low delay, statistical bound; loss-tolerant (2.5)."""
        return cls(
            capacity=capacity,
            max_message_size=min(1024, capacity),
            delay_bound=DelayBound(delay, 1e-6),
            delay_bound_type=DelayBoundType.STATISTICAL,
            statistical=StatisticalSpec(
                average_load=average_load,
                burstiness=2.0,
                delay_probability=delay_probability,
            ),
            bit_error_rate=1e-5,
        )

    def with_(self, **changes) -> "RmsParams":
        """A copy with the given fields replaced."""
        return replace(self, **changes)


def is_compatible(actual: RmsParams, requested: RmsParams) -> bool:
    """The compatibility relation of section 2.4.

    ``actual`` is compatible with ``requested`` when

    1. the actual reliability and security properties include those
       requested;
    2. the actual capacity and maximum message size are no less than
       requested; and
    3. the actual delay bound and error rate parameters are no greater
       than requested (including delay-bound type strength and, for
       statistical bounds, the statistical spec).
    """
    # (1) reliability and security inclusion.
    if requested.reliability and not actual.reliability:
        return False
    if requested.authentication and not actual.authentication:
        return False
    if requested.privacy and not actual.privacy:
        return False
    # (2) capacity and maximum message size.
    if actual.capacity < requested.capacity:
        return False
    if actual.max_message_size < requested.max_message_size:
        return False
    # (3) delay bound, type strength, statistical spec, error rate.
    if not actual.delay_bound.no_greater_than(requested.delay_bound):
        return False
    if not actual.delay_bound_type.satisfies(requested.delay_bound_type):
        return False
    if actual.bit_error_rate > requested.bit_error_rate:
        return False
    if requested.statistical is not None:
        if (
            actual.delay_bound_type == DelayBoundType.STATISTICAL
            and actual.statistical is not None
        ):
            if actual.statistical.delay_probability < requested.statistical.delay_probability:
                return False
            if actual.statistical.average_load < requested.statistical.average_load:
                return False
        # A deterministic actual bound satisfies any statistical request.
    return True
