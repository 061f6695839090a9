"""Property-based tests on cross-layer invariants.

These drive whole simulated systems from hypothesis-generated workloads
and check the invariants the paper's abstraction promises regardless of
parameters: boundary preservation, per-stream ordering, delay-bound
bookkeeping, and negotiation soundness.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.negotiation import CapabilityTable, PerformanceLimits, negotiate
from repro.core.params import DelayBound, DelayBoundType, RmsParams
from repro.errors import NegotiationError
from repro.netsim.ethernet import EthernetNetwork
from repro.netsim.topology import Host
from repro.security.keys import KeyRegistry
from repro.sim.context import SimContext
from repro.subtransport.st import SubtransportLayer
from repro.subtransport.wire import decode_bundle, encode_bundle
from tests.streams import assert_in_sequence

slow = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def build_pair(seed, loss=0.0):
    context = SimContext(seed=seed)
    network = EthernetNetwork(context, trusted=True, frame_loss_rate=loss)
    host_a, host_b = Host(context, "a"), Host(context, "b")
    network.attach(host_a)
    network.attach(host_b)
    keys = KeyRegistry()
    st_a = SubtransportLayer(context, host_a, [network], key_registry=keys)
    st_b = SubtransportLayer(context, host_b, [network], key_registry=keys)
    return context, st_a, st_b


@slow
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    sizes=st.lists(st.integers(min_value=1, max_value=6000), min_size=1,
                   max_size=25),
)
def test_boundaries_and_order_preserved(seed, sizes):
    """Basic properties 1 and 2 hold for arbitrary message-size mixes,
    including sizes requiring fragmentation."""
    context, st_a, st_b = build_pair(seed)
    params = RmsParams(
        capacity=64 * 1024,
        max_message_size=8 * 1024,
        delay_bound=DelayBound(0.5, 1e-4),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
    )
    future = st_a.create_st_rms("b", port="prop", desired=params,
                                acceptable=params)
    context.run(until=context.now + 2.0)
    rms = future.result()
    got = []
    rms.port.set_handler(lambda m: got.append(m.payload))
    expected = []
    for index, size in enumerate(sizes):
        payload = bytes([index % 256]) * size
        expected.append(payload)
        rms.send(payload)
    context.run(until=context.now + 10.0)
    assert got == expected  # exact boundaries, exact order, no loss
    assert_in_sequence([st_a, st_b])


@slow
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    count=st.integers(min_value=1, max_value=30),
)
def test_order_preserved_under_loss(seed, count):
    """Whatever IS delivered arrives in send order even under loss
    (in-sequence delivery is a basic property; loss is allowed for
    best-effort, reordering is not)."""
    context, st_a, st_b = build_pair(seed, loss=0.15)
    params = RmsParams(
        capacity=32 * 1024,
        max_message_size=1400,
        delay_bound=DelayBound(0.5, 1e-4),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
    )
    future = st_a.create_st_rms("b", port="lossy", desired=params,
                                acceptable=params)
    context.run(until=context.now + 20.0)
    if future.failed:
        return  # setup itself lost repeatedly: nothing to check
    rms = future.result()
    got = []
    rms.port.set_handler(lambda m: got.append(m.payload[0]))

    def producer():
        for index in range(count):
            rms.send(bytes([index]) * 200)
            yield 0.005

    context.spawn(producer())
    context.run(until=context.now + 10.0)
    assert got == sorted(got)
    assert len(set(got)) == len(got)  # no duplicates either
    assert_in_sequence([st_a, st_b])


@slow
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    payloads=st.lists(st.binary(min_size=0, max_size=300), min_size=1,
                      max_size=15),
)
def test_bundle_roundtrip_arbitrary_payloads(seed, payloads):
    entries = [(i, i, 0, p, 0.0, 0, 0) for i, p in enumerate(payloads)]
    decoded = decode_bundle(encode_bundle(entries))
    assert [e[3] for e in decoded] == payloads


capability_limits = st.builds(
    PerformanceLimits,
    best_delay=st.builds(
        DelayBound,
        a=st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
        b=st.floats(min_value=0.0, max_value=1e-4, allow_nan=False),
    ),
    max_capacity=st.integers(min_value=100, max_value=10**6),
    max_message_size=st.integers(min_value=64, max_value=10**4),
    floor_bit_error_rate=st.floats(min_value=0.0, max_value=1e-3,
                                   allow_nan=False),
    strongest_type=st.sampled_from(list(DelayBoundType)),
)

request_params = st.builds(
    lambda cap, mms, a, b, t: RmsParams(
        capacity=max(cap, mms),
        max_message_size=mms,
        delay_bound=DelayBound(a, b),
        delay_bound_type=t,
        statistical=None,
        bit_error_rate=1e-2,
    ),
    cap=st.integers(min_value=64, max_value=10**6),
    mms=st.integers(min_value=64, max_value=10**4),
    a=st.floats(min_value=1e-4, max_value=2.0, allow_nan=False),
    b=st.floats(min_value=0.0, max_value=1e-4, allow_nan=False),
    t=st.just(DelayBoundType.BEST_EFFORT),
)


@settings(max_examples=200, deadline=None)
@given(desired=request_params, limits=capability_limits)
def test_negotiation_never_grants_beyond_limits(desired, limits):
    """Whatever negotiate() grants respects the provider's hard limits
    (message size and, for the granted value, capacity); best-effort
    requests are never rejected on performance grounds."""
    table = CapabilityTable()
    table.set_uniform(limits)
    try:
        actual = negotiate(desired, desired, table)
    except NegotiationError:
        # Best-effort may still be rejected when the *physical* maximum
        # message size cannot cover the request.
        assert limits.max_message_size < desired.max_message_size or (
            min(desired.capacity, limits.max_capacity)
            < desired.max_message_size
        )
        return
    assert actual.max_message_size <= limits.max_message_size
    assert actual.capacity <= max(desired.capacity, 1)
    assert actual.max_message_size <= actual.capacity
    assert actual.bit_error_rate >= limits.floor_bit_error_rate


@settings(max_examples=100, deadline=None)
@given(
    desired=request_params,
    limits=capability_limits,
)
def test_negotiation_is_idempotent(desired, limits):
    """Re-requesting exactly what was granted grants it again."""
    table = CapabilityTable()
    table.set_uniform(limits)
    try:
        first = negotiate(desired, desired, table)
    except NegotiationError:
        return
    second = negotiate(first, first, table)
    assert second.capacity == first.capacity
    assert second.max_message_size == first.max_message_size
    assert second.delay_bound == first.delay_bound
