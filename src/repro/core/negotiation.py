"""Parameter negotiation (paper section 2.4).

An RMS creation request carries *desired* and *acceptable* parameter
sets.  The actual parameters of the resulting RMS must be compatible
with the acceptable set; the provider matches the desired set as closely
as possible.  Providers describe what they can do with a
:class:`PerformanceLimits` per security/reliability combination
(section 3.1: "For each combination of security and reliability
parameters, the limits of the network's performance parameters for that
combination").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.params import (
    DelayBound,
    DelayBoundType,
    RmsParams,
    StatisticalSpec,
    is_compatible,
)
from repro.errors import NegotiationError, ParameterError

__all__ = ["PerformanceLimits", "CapabilityTable", "negotiate", "combo_key"]


@dataclass(frozen=True)
class PerformanceLimits:
    """The best a provider can do for one parameter combination.

    ``best_delay`` is the tightest delay bound achievable; ``max_capacity``
    and ``max_message_size`` the largest supported values;
    ``floor_bit_error_rate`` the lowest error rate deliverable; and
    ``strongest_type`` the strongest delay-bound type offered.
    """

    best_delay: DelayBound
    max_capacity: int
    max_message_size: int
    floor_bit_error_rate: float = 0.0
    strongest_type: DelayBoundType = DelayBoundType.BEST_EFFORT

    def __post_init__(self) -> None:
        if self.max_capacity <= 0 or self.max_message_size <= 0:
            raise ParameterError("performance limits must be positive")


def combo_key(params: RmsParams) -> Tuple[bool, bool, bool]:
    """The (reliability, authentication, privacy) combination key."""
    return (params.reliability, params.authentication, params.privacy)


class CapabilityTable:
    """Per-combination performance limits of a provider (section 3.1).

    A missing combination means the provider cannot directly support it
    (the paper allows a limit of "zero" for unsupported combinations).
    """

    def __init__(self) -> None:
        self._limits: Dict[Tuple[bool, bool, bool], PerformanceLimits] = {}

    def set_limits(
        self,
        reliability: bool,
        authentication: bool,
        privacy: bool,
        limits: PerformanceLimits,
    ) -> None:
        self._limits[(reliability, authentication, privacy)] = limits

    def set_uniform(self, limits: PerformanceLimits) -> None:
        """Offer the same limits for every combination."""
        for reliability in (False, True):
            for authentication in (False, True):
                for privacy in (False, True):
                    self._limits[(reliability, authentication, privacy)] = limits

    def limits_for(self, params: RmsParams) -> Optional[PerformanceLimits]:
        """Limits covering ``params``'s combination, if supported.

        A combination offering *more* security/reliability than requested
        also covers the request; the closest (fewest extra properties)
        supported combination wins.
        """
        want = combo_key(params)
        best: Optional[PerformanceLimits] = None
        best_extra = 4
        for key, limits in self._limits.items():
            if all(k or not w for w, k in zip(want, key)):
                extra = sum(1 for w, k in zip(want, key) if k and not w)
                if extra < best_extra:
                    best, best_extra = limits, extra
        return best


def negotiate(
    desired: RmsParams,
    acceptable: RmsParams,
    capabilities: CapabilityTable,
) -> RmsParams:
    """Compute actual parameters per section 2.4.

    The result is element-wise between the desired and acceptable sets,
    compatible with the acceptable set, and as close to the desired set
    as the provider's limits allow.  Raises :class:`NegotiationError`
    when no compatible parameter set exists.
    """
    if not is_compatible(desired, acceptable):
        # The desired set must itself satisfy the client's own minimum,
        # otherwise the request is self-contradictory.
        raise NegotiationError(
            "desired parameter set is not compatible with the acceptable set"
        )
    limits = capabilities.limits_for(acceptable)
    if limits is None:
        raise NegotiationError(
            f"provider does not support combination {combo_key(acceptable)}"
        )

    # Delay bound: as tight as desired, never tighter than the provider's
    # best; reject if looser than acceptable.  For best-effort requests
    # the bound is not a guarantee -- it only orders queues (section
    # 2.3) -- so it is taken as offered and never grounds a rejection.
    if acceptable.delay_bound_type == DelayBoundType.BEST_EFFORT:
        delay_bound = desired.delay_bound
    elif desired.delay_bound.is_unbounded:
        # Best-effort request: no bound is promised at all.
        delay_bound = DelayBound.unbounded()
    else:
        actual_a = max(desired.delay_bound.a, limits.best_delay.a)
        actual_b = max(desired.delay_bound.b, limits.best_delay.b)
        delay_bound = DelayBound(actual_a, actual_b)
        if not delay_bound.no_greater_than(acceptable.delay_bound):
            raise NegotiationError(
                f"cannot meet delay bound {acceptable.delay_bound}; best is "
                f"{limits.best_delay}"
            )

    # Delay bound type: the strongest type the provider offers, capped at
    # the desired type, but at least the acceptable type.
    actual_type = DelayBoundType(min(desired.delay_bound_type, limits.strongest_type))
    if not actual_type.satisfies(acceptable.delay_bound_type):
        raise NegotiationError(
            f"provider offers at most {limits.strongest_type.name}, client "
            f"requires {acceptable.delay_bound_type.name}"
        )

    # Capacity and max message size: as large as desired up to the limit,
    # no less than acceptable.  Best-effort requests are never *rejected*
    # on capacity grounds (section 2.3), but the granted capacity is
    # still clamped to what the path's buffers can actually hold --
    # handing back an unachievable number would defeat the parameter's
    # purpose of protecting group-(2) buffers (section 4.4).
    capacity = min(desired.capacity, limits.max_capacity)
    if (
        capacity < acceptable.capacity
        and acceptable.delay_bound_type != DelayBoundType.BEST_EFFORT
    ):
        raise NegotiationError(
            f"capacity limit {limits.max_capacity} below acceptable "
            f"{acceptable.capacity}"
        )
    max_message_size = min(desired.max_message_size, limits.max_message_size)
    if max_message_size < acceptable.max_message_size:
        raise NegotiationError(
            f"max message size limit {limits.max_message_size} below acceptable "
            f"{acceptable.max_message_size}"
        )
    max_message_size = min(max_message_size, capacity)

    # Bit error rate: the provider's floor, if the client can accept it.
    bit_error_rate = max(desired.bit_error_rate, limits.floor_bit_error_rate)
    if (
        bit_error_rate > acceptable.bit_error_rate
        and acceptable.delay_bound_type != DelayBoundType.BEST_EFFORT
    ):
        raise NegotiationError(
            f"error-rate floor {limits.floor_bit_error_rate} above acceptable "
            f"{acceptable.bit_error_rate}"
        )
    bit_error_rate = min(bit_error_rate, 1.0)

    statistical: Optional[StatisticalSpec] = None
    if actual_type == DelayBoundType.STATISTICAL:
        spec = desired.statistical or acceptable.statistical
        if spec is None:
            raise NegotiationError("statistical RMS requires a StatisticalSpec")
        statistical = StatisticalSpec(
            average_load=spec.average_load,
            burstiness=spec.burstiness,
            delay_probability=spec.delay_probability,
        )
        if (
            acceptable.statistical is not None
            and statistical.delay_probability
            < acceptable.statistical.delay_probability
        ):
            raise NegotiationError(
                "provider cannot guarantee the acceptable delay probability"
            )
    if actual_type == DelayBoundType.DETERMINISTIC and math.isinf(delay_bound.a):
        actual_type = DelayBoundType.BEST_EFFORT

    actual = RmsParams(
        reliability=desired.reliability,
        authentication=desired.authentication,
        privacy=desired.privacy,
        capacity=capacity,
        max_message_size=max_message_size,
        delay_bound=delay_bound,
        delay_bound_type=actual_type,
        statistical=statistical,
        bit_error_rate=bit_error_rate,
    )
    if acceptable.delay_bound_type == DelayBoundType.BEST_EFFORT:
        # Only the hard clauses bind for best-effort: security inclusion
        # and the physical maximum message size.
        if actual.max_message_size < acceptable.max_message_size:
            raise NegotiationError(
                "maximum message size below the acceptable minimum"
            )
    elif not is_compatible(actual, acceptable):
        raise NegotiationError(
            f"negotiated parameters {actual} are not compatible with the "
            f"acceptable set"
        )
    return actual
