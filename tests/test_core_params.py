"""Unit and property tests for RMS parameters (paper section 2)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.params import (
    DelayBound,
    DelayBoundType,
    RmsParams,
    StatisticalSpec,
    is_compatible,
)
from repro.errors import ParameterError


class TestDelayBound:
    def test_bound_for_is_linear(self):
        bound = DelayBound(0.01, 1e-6)
        assert bound.bound_for(0) == pytest.approx(0.01)
        assert bound.bound_for(1000) == pytest.approx(0.011)

    def test_negative_terms_rejected(self):
        with pytest.raises(ParameterError):
            DelayBound(-1.0, 0.0)
        with pytest.raises(ParameterError):
            DelayBound(0.0, -1e-9)

    def test_negative_size_rejected(self):
        with pytest.raises(ParameterError):
            DelayBound(1.0).bound_for(-1)

    def test_no_greater_than_elementwise(self):
        tight = DelayBound(0.01, 1e-6)
        loose = DelayBound(0.02, 2e-6)
        assert tight.no_greater_than(loose)
        assert not loose.no_greater_than(tight)

    def test_mixed_terms_not_comparable(self):
        low_a = DelayBound(0.01, 2e-6)
        low_b = DelayBound(0.02, 1e-6)
        assert not low_a.no_greater_than(low_b)
        assert not low_b.no_greater_than(low_a)

    def test_unbounded_accepts_anything(self):
        bound = DelayBound(5.0, 1e-3)
        assert bound.no_greater_than(DelayBound.unbounded())


class TestDelayBoundType:
    def test_strength_ordering(self):
        assert DelayBoundType.DETERMINISTIC > DelayBoundType.STATISTICAL
        assert DelayBoundType.STATISTICAL > DelayBoundType.BEST_EFFORT

    @pytest.mark.parametrize(
        "provider,requested,ok",
        [
            (DelayBoundType.DETERMINISTIC, DelayBoundType.BEST_EFFORT, True),
            (DelayBoundType.DETERMINISTIC, DelayBoundType.STATISTICAL, True),
            (DelayBoundType.STATISTICAL, DelayBoundType.DETERMINISTIC, False),
            (DelayBoundType.BEST_EFFORT, DelayBoundType.BEST_EFFORT, True),
            (DelayBoundType.BEST_EFFORT, DelayBoundType.STATISTICAL, False),
        ],
    )
    def test_satisfies(self, provider, requested, ok):
        assert provider.satisfies(requested) is ok


class TestStatisticalSpec:
    def test_peak_load(self):
        spec = StatisticalSpec(average_load=1000.0, burstiness=3.0)
        assert spec.peak_load == pytest.approx(3000.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            StatisticalSpec(average_load=-1.0)
        with pytest.raises(ParameterError):
            StatisticalSpec(average_load=1.0, burstiness=0.5)
        with pytest.raises(ParameterError):
            StatisticalSpec(average_load=1.0, delay_probability=0.0)
        with pytest.raises(ParameterError):
            StatisticalSpec(average_load=1.0, delay_probability=1.5)


class TestRmsParams:
    def test_mms_cannot_exceed_capacity(self):
        """Section 2.2: the MMS limit cannot exceed the RMS capacity."""
        with pytest.raises(ParameterError):
            RmsParams(capacity=100, max_message_size=200)

    def test_statistical_type_needs_spec(self):
        with pytest.raises(ParameterError):
            RmsParams(
                delay_bound=DelayBound(0.1),
                delay_bound_type=DelayBoundType.STATISTICAL,
            )

    def test_deterministic_needs_finite_bound(self):
        with pytest.raises(ParameterError):
            RmsParams(delay_bound_type=DelayBoundType.DETERMINISTIC)

    def test_bit_error_rate_range(self):
        with pytest.raises(ParameterError):
            RmsParams(bit_error_rate=1.5)

    def test_implied_bandwidth_formula(self):
        """Section 2.2: bandwidth of about C/D bytes per second."""
        params = RmsParams(
            capacity=10000,
            max_message_size=1000,
            delay_bound=DelayBound(0.1, 0.0),
            delay_bound_type=DelayBoundType.DETERMINISTIC,
        )
        # D for a max-size message is 0.1 s; C/D = 100 kB/s.
        assert params.implied_bandwidth() == pytest.approx(100000.0)

    def test_implied_bandwidth_unbounded_is_zero(self):
        assert RmsParams().implied_bandwidth() == 0.0

    def test_message_period_spacing(self):
        params = RmsParams(
            capacity=10000,
            max_message_size=1000,
            delay_bound=DelayBound(0.1, 0.0),
            delay_bound_type=DelayBoundType.DETERMINISTIC,
        )
        # A size-M message every D*M/C = 0.1 * 1000/10000 = 10 ms.
        assert params.message_period() == pytest.approx(0.01)

    def test_voice_recipe_is_statistical(self):
        params = RmsParams.for_voice()
        assert params.delay_bound_type == DelayBoundType.STATISTICAL
        assert params.statistical is not None

    def test_with_replaces_fields(self):
        params = RmsParams()
        changed = params.with_(privacy=True)
        assert changed.privacy and not params.privacy


class TestCompatibility:
    """The section-2.4 compatibility relation."""

    def base(self, **kwargs):
        defaults = dict(
            capacity=10000,
            max_message_size=1000,
            delay_bound=DelayBound(0.1, 1e-6),
            delay_bound_type=DelayBoundType.BEST_EFFORT,
            bit_error_rate=1e-6,
        )
        defaults.update(kwargs)
        return RmsParams(**defaults)

    def test_identical_sets_are_compatible(self):
        params = self.base()
        assert is_compatible(params, params)

    def test_rule1_security_inclusion(self):
        requested = self.base(privacy=True)
        assert not is_compatible(self.base(), requested)
        assert is_compatible(self.base(privacy=True), requested)
        # Extra properties in the actual set are fine.
        assert is_compatible(
            self.base(privacy=True, authentication=True), requested
        )

    def test_rule1_reliability_inclusion(self):
        requested = self.base(reliability=True)
        assert not is_compatible(self.base(), requested)
        assert is_compatible(self.base(reliability=True), requested)

    def test_rule2_capacity_no_less(self):
        requested = self.base()
        assert not is_compatible(self.base(capacity=9999), requested)
        assert is_compatible(self.base(capacity=20000), requested)

    def test_rule2_mms_no_less(self):
        requested = self.base()
        assert not is_compatible(self.base(max_message_size=999), requested)
        assert is_compatible(self.base(max_message_size=2000), requested)

    def test_rule3_delay_no_greater(self):
        requested = self.base()
        looser = self.base(delay_bound=DelayBound(0.2, 1e-6))
        tighter = self.base(delay_bound=DelayBound(0.05, 1e-6))
        assert not is_compatible(looser, requested)
        assert is_compatible(tighter, requested)

    def test_rule3_error_rate_no_greater(self):
        requested = self.base()
        assert not is_compatible(self.base(bit_error_rate=1e-3), requested)
        assert is_compatible(self.base(bit_error_rate=0.0), requested)

    def test_rule3_type_strength(self):
        requested = self.base(
            delay_bound_type=DelayBoundType.STATISTICAL,
            statistical=StatisticalSpec(average_load=100.0),
        )
        best_effort = self.base()
        deterministic = self.base(delay_bound_type=DelayBoundType.DETERMINISTIC)
        assert not is_compatible(best_effort, requested)
        assert is_compatible(deterministic, requested)


# -- property-based tests -----------------------------------------------------

bounds = st.builds(
    DelayBound,
    a=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    b=st.floats(min_value=0.0, max_value=1e-3, allow_nan=False),
)


@given(bounds, bounds, st.integers(min_value=0, max_value=100_000))
def test_no_greater_than_implies_pointwise(first, second, size):
    """If first <= second element-wise, then first bounds every size better."""
    if first.no_greater_than(second) and not second.is_unbounded:
        assert first.bound_for(size) <= second.bound_for(size) + 1e-12


params_strategy = st.builds(
    lambda cap, mms, a, b, ber: RmsParams(
        capacity=max(cap, mms),
        max_message_size=mms,
        delay_bound=DelayBound(a, b),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
        bit_error_rate=ber,
    ),
    cap=st.integers(min_value=1, max_value=10**6),
    mms=st.integers(min_value=1, max_value=10**5),
    a=st.floats(min_value=1e-6, max_value=10.0, allow_nan=False),
    b=st.floats(min_value=0.0, max_value=1e-3, allow_nan=False),
    ber=st.floats(min_value=0.0, max_value=0.1, allow_nan=False),
)


@given(params_strategy)
def test_compatibility_is_reflexive(params):
    assert is_compatible(params, params)


@given(params_strategy, params_strategy, params_strategy)
def test_compatibility_is_transitive(first, second, third):
    if is_compatible(first, second) and is_compatible(second, third):
        assert is_compatible(first, third)


@given(params_strategy)
def test_implied_bandwidth_consistent_with_period(params):
    """Sending a max-size message every message_period achieves roughly
    the implied bandwidth (section 2.2's argument)."""
    bandwidth = params.implied_bandwidth()
    period = params.message_period()
    if bandwidth > 0 and not math.isinf(period) and period > 0:
        achieved = params.max_message_size / period
        # C/D vs M/(D*M/C) = C/D exactly.
        assert achieved == pytest.approx(bandwidth, rel=1e-9)
