"""Security-provider engine tests (bench E21's correctness side).

The vectorized ``"xtea-ct"`` provider must be byte-identical to the
scalar ``"xtea-ct-ref"`` oracle on every output -- keystream,
ciphertext, MAC tag -- for random keys, nonces, offsets, and lengths
(including empty and non-multiple-of-8 payloads).  Seeded-random
property style, matching the repo's other property suites (no external
property-testing dependency).
"""

from __future__ import annotations

import random

import pytest

from repro.core.params import RmsParams
from repro.dash.system import DashSystem
from repro.errors import ParameterError, SecurityError
from repro.security.providers import (
    _MAC_CHUNK,
    _MAC_LANES,
    _POLY_P,
    MAC_BYTES,
    HardwareProvider,
    NullProvider,
    XteaScalarProvider,
    XteaVectorProvider,
    provider_names,
    register_provider,
    resolve_provider,
)
from repro.subtransport.config import StConfig
from repro.subtransport.security import SecurityContext, plan_security

SEED = 20260808

KEY = bytes(range(16))


def _rng():
    return random.Random(SEED)


def _random_cases(rng, count=40, max_len=1200):
    """(key, nonce, length) triples covering the interesting size axes."""
    lengths = [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 511, 512, 513]
    cases = []
    for index in range(count):
        key = rng.randbytes(16)
        nonce = rng.getrandbits(64)
        length = (
            lengths[index % len(lengths)]
            if index < len(lengths) * 2
            else rng.randrange(0, max_len)
        )
        cases.append((key, nonce, length))
    return cases


class TestVectorScalarEquivalence:
    """The tentpole invariant: same bytes out of both engines."""

    def test_keystream_identical(self):
        rng = _rng()
        for key, nonce, length in _random_cases(rng):
            scalar = XteaScalarProvider(key)
            vector = XteaVectorProvider(key)
            assert vector.keystream(nonce, length) == scalar.keystream(
                nonce, length
            ), (nonce, length)

    def test_keystream_identical_at_offsets(self):
        rng = _rng()
        for key, nonce, _ in _random_cases(rng, count=12):
            scalar = XteaScalarProvider(key)
            vector = XteaVectorProvider(key)
            near_limit = (1 << 32) * 8 - 16
            for offset in (0, 1, 7, 8, 9, 64, 1000, near_limit):
                # Stay inside the per-nonce counter span at the limit.
                length = 16 if offset == near_limit else rng.randrange(1, 200)
                assert vector.keystream(
                    nonce, length, offset=offset
                ) == scalar.keystream(nonce, length, offset=offset)

    def test_seal_open_roundtrip_and_equivalence(self):
        rng = _rng()
        for key, nonce, length in _random_cases(rng):
            payload = rng.randbytes(length)
            scalar = XteaScalarProvider(key)
            vector = XteaVectorProvider(key)
            sealed = vector.seal(nonce, payload)
            assert sealed == scalar.seal(nonce, payload)
            assert vector.open(nonce, sealed) == payload
            assert scalar.open(nonce, sealed) == payload

    def test_seal_accepts_memoryview(self):
        rng = _rng()
        payload = rng.randbytes(777)
        view = memoryview(payload)[100:600]
        vector = XteaVectorProvider(KEY)
        scalar = XteaScalarProvider(KEY)
        assert vector.seal(9, view) == scalar.seal(9, bytes(view))
        assert vector.mac(view, b"ctx") == scalar.mac(bytes(view), b"ctx")

    def test_mac_identical(self):
        rng = _rng()
        for key, _, length in _random_cases(rng):
            payload = rng.randbytes(length)
            context = rng.randbytes(rng.randrange(0, 24))
            scalar = XteaScalarProvider(key)
            vector = XteaVectorProvider(key)
            tag = vector.mac(payload, context)
            assert tag == scalar.mac(payload, context)
            assert len(tag) == MAC_BYTES
            assert vector.verify(payload, tag, context)
            assert scalar.verify(payload, tag, context)

    def test_mac_binds_context_and_data(self):
        vector = XteaVectorProvider(KEY)
        tag = vector.mac(b"payload", b"ctx")
        assert not vector.verify(b"payload", tag, b"ctx2")
        assert not vector.verify(b"payloae", tag, b"ctx")
        with pytest.raises(SecurityError):
            vector.verify(b"payload", tag[:-1], b"ctx")

    def test_chunked_seal_matches_whole_stream(self):
        """The ``offset=`` continuation API: sealing in chunks at the
        right offsets equals sealing the whole buffer at once."""
        rng = _rng()
        payload = rng.randbytes(3000)
        vector = XteaVectorProvider(KEY)
        whole = vector.seal(5, payload)
        pieces = []
        offset = 0
        while offset < len(payload):
            step = rng.randrange(1, 400)
            chunk = payload[offset : offset + step]
            pieces.append(vector.seal(5, chunk, offset=offset))
            offset += len(chunk)
        assert b"".join(pieces) == whole

    def test_mac_identical_at_every_length_and_alignment(self):
        """Every payload length across the scalar / lane-packed seam
        (0 ... three packed steps and a ragged end) at every alignment
        of the ``context || len`` head, on the data that drives the
        lanes highest."""
        scalar = XteaScalarProvider(KEY)
        vector = XteaVectorProvider(KEY)
        rng = _rng()
        ones = b"\xff" * (3 * _MAC_CHUNK + 9)
        noise = rng.randbytes(len(ones))
        for length in range(len(ones) + 1):
            for context_length in range(8):
                context = ones[:context_length]
                assert vector.mac(
                    memoryview(ones)[:length], context
                ) == scalar.mac(ones[:length], context), (length, context_length)
            context = rng.randbytes(length % 11)
            assert vector.mac(noise[:length], context) == scalar.mac(
                noise[:length], context
            ), length

    def test_mac_lanes_keep_headroom_on_adversarial_keys(self):
        """Keys that put both multipliers of the packed step just under
        the modulus: the lane bound in the class docstring has to hold
        there, not only on random keys (a single fold per step fails
        every one of these)."""
        rng = _rng()
        keys = []
        while len(keys) < 16:
            r = rng.randrange(_POLY_P * 9 // 10, _POLY_P) | 1
            if r < _POLY_P and pow(r, 2 * _MAC_LANES, _POLY_P) * 100 > _POLY_P * 97:
                keys.append(r.to_bytes(8, "big") + rng.randbytes(8))
        for key in keys:
            scalar = XteaScalarProvider(key)
            vector = XteaVectorProvider(key)
            assert vector._mac_r * 10 > _POLY_P * 9
            assert vector._mac_rw * 100 > _POLY_P * 97
            for size in (1 << 16, 1400):
                data = b"\xff" * size
                assert vector.mac(data, b"ctx") == scalar.mac(data, b"ctx"), (
                    key.hex(), size
                )


class TestInflightKeystreams:
    """``seal`` leaves its keystream for the matching ``open``; whatever
    the map holds or lacks, the bytes are the scalar oracle's."""

    def test_open_after_seal_hits(self):
        rng = _rng()
        vector = XteaVectorProvider(KEY)
        scalar = XteaScalarProvider(KEY)
        for nonce, length in enumerate([1, 8, 9, 400, 1400, 1403]):
            payload = rng.randbytes(length)
            sealed = vector.seal(nonce, payload)
            assert sealed == scalar.seal(nonce, payload)
            assert vector.open(nonce, sealed) == payload
        assert (vector.keystream_hits, vector.keystream_misses) == (6, 0)
        assert not vector._inflight

    def test_open_without_seal_and_duplicate_open_regenerate(self):
        rng = _rng()
        vector = XteaVectorProvider(KEY)
        scalar = XteaScalarProvider(KEY)
        payload = rng.randbytes(300)
        sealed = scalar.seal(4, payload)
        assert vector.open(4, sealed) == payload  # never sealed here
        assert vector.seal(4, payload) == sealed
        assert vector.open(4, sealed) == payload
        assert vector.open(4, sealed) == payload  # a duplicate on the wire
        assert (vector.keystream_hits, vector.keystream_misses) == (1, 2)

    def test_open_of_another_length(self):
        rng = _rng()
        vector = XteaVectorProvider(KEY)
        scalar = XteaScalarProvider(KEY)
        payload = rng.randbytes(600)
        sealed = scalar.seal(7, payload)
        vector.seal(7, payload[:200])
        assert vector.open(7, sealed[:50]) == payload[:50]  # a prefix
        assert (vector.keystream_hits, vector.keystream_misses) == (1, 0)
        vector.seal(7, payload[:200])
        assert vector.open(7, sealed) == payload  # longer: regenerated
        assert (vector.keystream_hits, vector.keystream_misses) == (1, 1)

    def test_interleaved_nonces_and_offsets(self):
        rng = _rng()
        vector = XteaVectorProvider(KEY)
        scalar = XteaScalarProvider(KEY)
        spans = [
            (nonce, offset, rng.randrange(1, 700))
            for nonce in (1, 2, (9 << 32) | 1)  # the last aliases nonce 1
            for offset in (0, 5, 8, 512)
        ]
        payloads = {span: rng.randbytes(span[2]) for span in spans}
        sealed = {}
        for span in spans:
            nonce, offset, _ = span
            sealed[span] = vector.seal(nonce, payloads[span], offset)
            assert sealed[span] == scalar.seal(nonce, payloads[span], offset)
        rng.shuffle(spans)
        for span in spans:
            nonce, offset, _ = span
            assert vector.open(nonce, sealed[span], offset) == payloads[span]

    def test_unopened_seals_age_out(self):
        vector = XteaVectorProvider(KEY)
        scalar = XteaScalarProvider(KEY)
        for nonce in range(1000):
            vector.seal(nonce, b"lost on the wire")
            assert len(vector._inflight) <= XteaVectorProvider.INFLIGHT
        # Oldest first: the latest seal is still there, the first is not.
        first = scalar.seal(0, b"lost on the wire")
        latest = scalar.seal(999, b"lost on the wire")
        assert vector.open(999, latest) == b"lost on the wire"
        assert vector.open(0, first) == b"lost on the wire"
        assert (vector.keystream_hits, vector.keystream_misses) == (1, 1)

    def test_scalar_oracle_keeps_no_map(self):
        scalar = XteaScalarProvider(KEY)
        scalar.open(1, scalar.seal(1, b"payload"))
        assert not hasattr(scalar, "_inflight")
        assert not hasattr(scalar, "keystream_hits")


class TestCounterWraparound:
    """Overflowing the 64-bit counter block must raise, not wrap."""

    def test_keystream_overflow_raises(self):
        limit_bytes = (1 << 32) * 8
        for provider in (XteaScalarProvider(KEY), XteaVectorProvider(KEY)):
            with pytest.raises(SecurityError):
                provider.keystream(0, limit_bytes + 8)
            with pytest.raises(SecurityError):
                provider.keystream(0, 16, offset=limit_bytes - 8)

    def test_keystream_at_the_limit_is_fine(self):
        vector = XteaVectorProvider(KEY)
        scalar = XteaScalarProvider(KEY)
        offset = (1 << 32) * 8 - 8
        assert vector.keystream(3, 8, offset=offset) == scalar.keystream(
            3, 8, offset=offset
        )

    def test_legacy_streamcipher_guard(self):
        from repro.security.cipher import StreamCipher

        with pytest.raises(SecurityError):
            StreamCipher(KEY).keystream(0, (1 << 32) * 8 + 8)


class TestRegistry:
    def test_known_names(self):
        names = provider_names()
        for name in ("xtea-ct", "xtea-ct-ref", "null", "hw"):
            assert name in names

    def test_resolve_unknown_raises(self):
        with pytest.raises(SecurityError, match="unknown security provider"):
            resolve_provider("rot13")

    def test_register_shadows(self):
        class Custom(NullProvider):
            name = "test-custom"

        register_provider("test-custom", Custom)
        try:
            assert resolve_provider("test-custom") is Custom
        finally:
            import repro.security.providers as mod

            del mod._REGISTRY["test-custom"]

    def test_null_and_hw_providers(self):
        for factory in (NullProvider, HardwareProvider):
            provider = factory(KEY)
            payload = b"plaintext stays plaintext"
            assert provider.seal(1, payload) == payload
            assert provider.open(1, payload) == payload
            tag = provider.mac(payload, b"ctx")
            assert len(tag) == MAC_BYTES
            assert provider.verify(payload, tag, b"ctx")
        assert HardwareProvider(KEY).hardware
        assert not NullProvider(KEY).hardware


class TestNegotiation:
    """StConfig -> plan_security -> SecurityContext provider binding."""

    def test_config_rejects_unknown_provider(self):
        with pytest.raises(ParameterError, match="unknown security provider"):
            StConfig(security_provider="rot13")

    def test_plan_records_provider_and_factory(self):
        system = DashSystem(seed=1)
        network = system.add_ethernet(trusted=False)
        params = RmsParams(privacy=True, authentication=True)
        plan = plan_security(params, network, "xtea-ct-ref")
        assert plan.provider == "xtea-ct-ref"
        assert plan.factory is XteaScalarProvider
        context = SecurityContext(plan, KEY, "a", 7)
        assert isinstance(context.provider, XteaScalarProvider)

    def test_context_resolves_handbuilt_plan(self):
        from repro.subtransport.security import SecurityPlan

        plan = SecurityPlan(
            encrypt=True, mac=False, checksum=False,
            network_privacy=False, network_authentication=False,
            provider="xtea-ct",
        )
        context = SecurityContext(plan, KEY, "a", 7)
        assert isinstance(context.provider, XteaVectorProvider)

    def test_context_transform_roundtrip(self):
        system = DashSystem(seed=1)
        network = system.add_ethernet(trusted=False)
        params = RmsParams(privacy=True, authentication=True)
        contexts = [
            SecurityContext(plan_security(params, network, name), KEY, "a", 7)
            for name in ("xtea-ct", "xtea-ct-ref")
        ]
        payload = b"x" * 100
        wires = [c.protect(3, payload) for c in contexts]
        assert wires[0] == wires[1]
        for context in contexts:
            data, reason = context.unprotect(context.flags, 3, wires[0])
            assert reason is None
            assert data == payload


def _secured_trace(provider, messages=40, loss=0.04):
    """Fixed-seed lossy run over an *untrusted* ethernet with privacy and
    authentication requested, so every component is sealed and tagged."""
    system = DashSystem(
        seed=11, st_config=StConfig(security_provider=provider)
    )
    system.add_ethernet(trusted=True, frame_loss_rate=loss)
    system.add_ethernet(
        name="ether1", trusted=False, frame_loss_rate=loss
    )
    system.add_node("a")
    system.add_node("b")
    params = RmsParams(privacy=True, authentication=True)
    session = system.connect("a", "b", port="sec", desired=params)
    system.run(until=2.0)
    rms = session.established.result()
    deliveries = []
    rms.port.set_handler(
        lambda message: deliveries.append((bytes(message.payload), system.now))
    )
    rng = random.Random(99)
    for index in range(messages):
        rms.send(rng.randbytes(200) + bytes([index]))
        if index % 8 == 7:
            system.run(until=system.now + 0.05)
    system.run(until=system.now + 2.0)
    return deliveries


class TestSecuredTraceEquivalence:
    """Swapping the engine must not change *anything* observable: same
    deliveries at the same simulated times on a lossy secured channel."""

    def test_vectorized_matches_scalar_oracle(self):
        fast = _secured_trace("xtea-ct")
        oracle = _secured_trace("xtea-ct-ref")
        assert len(fast) > 0
        assert fast == oracle


class TestDeprecationShims:
    """The shims are gone: the package exports the provider API only."""

    def test_unknown_attribute_raises(self):
        import repro.security as package

        with pytest.raises(AttributeError):
            package.does_not_exist
        with pytest.raises(AttributeError):
            package.StreamCipher  # import it from repro.security.cipher
