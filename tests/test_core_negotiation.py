"""Tests for parameter negotiation (paper section 2.4)."""

from __future__ import annotations

import itertools

import pytest

from repro.core.negotiation import (
    CapabilityTable,
    PerformanceLimits,
    combo_key,
    negotiate,
)
from repro.core.params import (
    DelayBound,
    DelayBoundType,
    RmsParams,
    StatisticalSpec,
    is_compatible,
)
from repro.errors import NegotiationError, ParameterError


def limits(**kwargs):
    defaults = dict(
        best_delay=DelayBound(0.005, 1e-6),
        max_capacity=100_000,
        max_message_size=1500,
        floor_bit_error_rate=0.0,
        strongest_type=DelayBoundType.DETERMINISTIC,
    )
    defaults.update(kwargs)
    return PerformanceLimits(**defaults)


def table(**kwargs):
    capability = CapabilityTable()
    capability.set_uniform(limits(**kwargs))
    return capability


def request(**kwargs):
    """A deterministic-type request: performance clauses all bind."""
    defaults = dict(
        capacity=10_000,
        max_message_size=1000,
        delay_bound=DelayBound(0.05, 2e-6),
        delay_bound_type=DelayBoundType.DETERMINISTIC,
    )
    defaults.update(kwargs)
    return RmsParams(**defaults)


class TestCapabilityTable:
    def test_exact_combination(self):
        capability = CapabilityTable()
        capability.set_limits(False, False, False, limits())
        assert capability.limits_for(request()) is not None

    def test_missing_combination_returns_none(self):
        capability = CapabilityTable()
        capability.set_limits(False, False, False, limits())
        assert capability.limits_for(request(privacy=True)) is None

    def test_stronger_combination_covers_request(self):
        """A combination with extra security also serves the request."""
        capability = CapabilityTable()
        capability.set_limits(False, True, True, limits())
        assert capability.limits_for(request()) is not None

    def test_closest_combination_wins(self):
        capability = CapabilityTable()
        wide = limits(max_capacity=50_000)
        exact = limits(max_capacity=100_000)
        capability.set_limits(False, True, True, wide)
        capability.set_limits(False, False, False, exact)
        chosen = capability.limits_for(request())
        assert chosen.max_capacity == 100_000

    def test_set_uniform_covers_all_eight(self):
        capability = table()
        assert sorted(capability._limits) == sorted(
            itertools.product((False, True), repeat=3)
        )

    def test_combo_key(self):
        assert combo_key(request(privacy=True)) == (False, False, True)

    def test_positive_limits_required(self):
        with pytest.raises(ParameterError):
            PerformanceLimits(
                best_delay=DelayBound(0.0), max_capacity=0, max_message_size=1
            )


class TestNegotiate:
    def test_desired_within_limits_granted(self):
        actual = negotiate(request(), request(), table())
        assert actual.capacity == 10_000
        assert actual.max_message_size == 1000
        assert is_compatible(actual, request())

    def test_delay_clamped_to_provider_best(self):
        """The provider can't beat its own best delay."""
        desired = request(delay_bound=DelayBound(0.001, 1e-7))
        acceptable = request(delay_bound=DelayBound(0.05, 2e-6))
        actual = negotiate(desired, acceptable, table())
        assert actual.delay_bound.a == pytest.approx(0.005)
        assert actual.delay_bound.b == pytest.approx(1e-6)

    def test_rejects_when_best_exceeds_acceptable(self):
        desired = request(delay_bound=DelayBound(0.001, 1e-7))
        acceptable = request(delay_bound=DelayBound(0.002, 1e-6))
        with pytest.raises(NegotiationError):
            negotiate(desired, acceptable, table())

    def test_capacity_clamped_to_limit(self):
        desired = request(capacity=500_000)
        acceptable = request(capacity=50_000)
        actual = negotiate(desired, acceptable, table(max_capacity=80_000))
        assert actual.capacity == 80_000

    def test_rejects_capacity_below_acceptable(self):
        desired = request(capacity=500_000)
        acceptable = request(capacity=200_000)
        with pytest.raises(NegotiationError):
            negotiate(desired, acceptable, table(max_capacity=80_000))

    def test_mms_clamped_and_respects_capacity(self):
        desired = request(capacity=1200, max_message_size=1200)
        actual = negotiate(desired, desired.with_(max_message_size=800),
                           table(max_message_size=1000))
        assert actual.max_message_size <= min(1000, actual.capacity)

    def test_unsupported_combination_rejected(self):
        capability = CapabilityTable()
        capability.set_limits(False, False, False, limits())
        with pytest.raises(NegotiationError):
            negotiate(request(privacy=True), request(privacy=True), capability)

    def test_error_rate_floor_applies(self):
        desired = request(bit_error_rate=0.0)
        acceptable = request(bit_error_rate=1e-4)
        actual = negotiate(
            desired, acceptable, table(floor_bit_error_rate=1e-5)
        )
        assert actual.bit_error_rate == pytest.approx(1e-5)

    def test_error_rate_floor_above_acceptable_rejected(self):
        desired = request(bit_error_rate=0.0)
        acceptable = request(bit_error_rate=1e-6)
        with pytest.raises(NegotiationError):
            negotiate(desired, acceptable, table(floor_bit_error_rate=1e-3))

    def test_type_downgraded_to_provider_strength(self):
        desired = request(delay_bound_type=DelayBoundType.DETERMINISTIC)
        acceptable = request(delay_bound_type=DelayBoundType.BEST_EFFORT)
        actual = negotiate(
            desired, acceptable, table(strongest_type=DelayBoundType.BEST_EFFORT)
        )
        assert actual.delay_bound_type == DelayBoundType.BEST_EFFORT

    def test_type_below_acceptable_rejected(self):
        desired = request(
            delay_bound_type=DelayBoundType.DETERMINISTIC,
            delay_bound=DelayBound(0.05, 2e-6),
        )
        acceptable = desired
        with pytest.raises(NegotiationError):
            negotiate(
                desired, acceptable, table(strongest_type=DelayBoundType.BEST_EFFORT)
            )

    def test_statistical_spec_carried_through(self):
        spec = StatisticalSpec(average_load=5000.0, burstiness=2.0,
                               delay_probability=0.95)
        desired = request(
            delay_bound_type=DelayBoundType.STATISTICAL, statistical=spec
        )
        actual = negotiate(desired, desired, table())
        assert actual.delay_bound_type == DelayBoundType.STATISTICAL
        assert actual.statistical.average_load == pytest.approx(5000.0)

    def test_self_contradictory_request_rejected(self):
        """Desired must itself satisfy the acceptable set."""
        desired = request(capacity=1000, max_message_size=500)
        acceptable = request(capacity=50_000)
        with pytest.raises(NegotiationError):
            negotiate(desired, acceptable, table())

    def test_unbounded_best_effort_passes(self):
        desired = request(
            delay_bound=DelayBound.unbounded(),
            delay_bound_type=DelayBoundType.BEST_EFFORT,
        )
        actual = negotiate(desired, desired, table())
        assert actual.delay_bound.is_unbounded

    def test_best_effort_never_rejected_on_performance(self):
        """Section 2.3: best-effort creation requests are never rejected
        for delay, capacity, or error-rate reasons."""
        desired = request(
            capacity=10**9,
            max_message_size=1000,
            delay_bound=DelayBound(1e-9, 0.0),
            delay_bound_type=DelayBoundType.BEST_EFFORT,
            bit_error_rate=0.0,
        )
        actual = negotiate(
            desired, desired, table(floor_bit_error_rate=0.01, max_capacity=2000)
        )
        # Granted (never rejected), with capacity clamped to reality.
        assert actual.capacity == 2000
        assert actual.delay_bound_type == DelayBoundType.BEST_EFFORT

    def test_result_always_compatible_with_acceptable(self):
        desired = request(
            capacity=80_000,
            delay_bound=DelayBound(0.01, 1e-6),
        )
        acceptable = request(capacity=5_000, delay_bound=DelayBound(0.1, 1e-5))
        actual = negotiate(desired, acceptable, table())
        assert is_compatible(actual, acceptable)
