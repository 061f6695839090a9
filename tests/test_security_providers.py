"""Security-provider tests.

The ``"shake-blake2"`` provider must be byte-identical to the one-shot
definitions in ``tests/security_reference.py`` on every output --
keystream, ciphertext, MAC tag -- for random keys, nonces and lengths
(including empty payloads and ``memoryview`` slices at every alignment).
Seeded-random property style, matching the repo's other property suites
(no external property-testing dependency).
"""

from __future__ import annotations

import hashlib
import random
import struct

import pytest

from repro.core.params import RmsParams
from repro.dash.system import DashSystem
from repro.errors import SecurityError
from repro.security.providers import (
    MAC_BYTES,
    ShakeBlake2Provider,
    provider_names,
    resolve_provider,
)
from repro.subtransport.security import SecurityContext, plan_security
from tests.security_reference import (
    reference_keystream,
    reference_mac,
    reference_seal,
)

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
    """The tentpole invariant: the provider's bytes are the oracle's."""

    def test_keystream_identical(self):
        rng = _rng()
        for key, nonce, length in _random_cases(rng):
            provider = ShakeBlake2Provider(key)
            assert provider.keystream(nonce, length) == reference_keystream(
                key, nonce, length
            ), (nonce, length)

    def test_seal_open_roundtrip_and_equivalence(self):
        rng = _rng()
        for key, nonce, length in _random_cases(rng):
            payload = rng.randbytes(length)
            provider = ShakeBlake2Provider(key)
            sealed = provider.seal(nonce, payload)
            assert sealed == reference_seal(key, nonce, payload)
            assert provider.open(nonce, sealed) == payload
            assert reference_seal(key, nonce, sealed) == payload

    def test_seal_accepts_memoryview(self):
        rng = _rng()
        payload = rng.randbytes(777)
        view = memoryview(payload)[100:600]
        provider = ShakeBlake2Provider(KEY)
        assert provider.seal(9, view) == reference_seal(KEY, 9, bytes(view))
        assert provider.mac(view, b"ctx") == reference_mac(
            KEY, bytes(view), b"ctx"
        )

    def test_mac_identical(self):
        rng = _rng()
        for key, _, length in _random_cases(rng):
            payload = rng.randbytes(length)
            context = rng.randbytes(rng.randrange(0, 24))
            provider = ShakeBlake2Provider(key)
            tag = provider.mac(payload, context)
            assert tag == reference_mac(key, payload, context)
            assert len(tag) == MAC_BYTES
            assert provider.verify(payload, tag, context)

    def test_mac_binds_context_and_data(self):
        provider = ShakeBlake2Provider(KEY)
        tag = provider.mac(b"payload", b"ctx")
        assert not provider.verify(b"payload", tag, b"ctx2")
        assert not provider.verify(b"payloae", tag, b"ctx")
        with pytest.raises(SecurityError):
            provider.verify(b"payload", tag[:-1], b"ctx")

    def test_mac_identical_at_every_length_and_alignment(self):
        """Every payload length 0 ... 400 (past three BLAKE2b blocks and
        a ragged end) under eight context lengths, read through a
        ``memoryview`` slice starting at every alignment of the buffer:
        the ``update`` chain over views against the one-shot
        concatenation."""
        provider = ShakeBlake2Provider(KEY)
        noise = _rng().randbytes(400 + 8)
        view = memoryview(noise)
        for length in range(401):
            for context_length in range(8):
                context = noise[:context_length]
                for start in range(8):
                    assert provider.mac(
                        view[start : start + length], context
                    ) == reference_mac(
                        KEY, noise[start : start + length], context
                    ), (length, context_length, start)


class TestShakeBlake2Definition:
    """What the construction must be and must refuse, pinned without
    reference to any implementation."""

    def test_primitives_ship_with_every_cpython(self):
        assert {"shake_128", "blake2b"} <= hashlib.algorithms_guaranteed

    def test_known_answer(self):
        """One ciphertext and one tag as literals: a change to the
        prefix, the personalization, the nonce encoding or the framing
        cannot pass by changing provider and oracle together."""
        provider = ShakeBlake2Provider(KEY)
        nonce = (7 << 32) | 3
        sealed = provider.seal(nonce, b"DASH real-time message stream")
        assert sealed.hex() == (
            "ff3cdd1df7e74601d0d8efb171192a3d41e6879be20782b5775319d6df"
        )
        assert provider.keystream(nonce, 16).hex() == (
            "bb7d8e55d7952360bcf59bd81c7c0a50"
        )
        assert provider.mac(sealed, b"a|3").hex() == "691ece5396b201be"

    def test_keystream_separates_keys_nonces_and_streams(self):
        provider = ShakeBlake2Provider(KEY)
        other_key = ShakeBlake2Provider(bytes(range(1, 17)))
        seq = 5
        base = provider.keystream((1 << 32) | seq, 64)
        assert other_key.keystream((1 << 32) | seq, 64) != base
        assert provider.keystream((1 << 32) | (seq + 1), 64) != base
        # Two streams (rms ids) at one sequence number under one key:
        # the nonce is used at its full 64 bits, not reduced to ``seq``.
        assert provider.keystream((2 << 32) | seq, 64) != base
        assert provider.seal((2 << 32) | seq, b"x" * 64) != provider.seal(
            (1 << 32) | seq, b"x" * 64
        )

    def test_tag_separates_keys_and_contexts(self):
        provider = ShakeBlake2Provider(KEY)
        other_key = ShakeBlake2Provider(bytes(range(1, 17)))
        tag = provider.mac(b"payload", b"a|5")
        assert other_key.mac(b"payload", b"a|5") != tag
        assert provider.mac(b"payload", b"a|6") != tag
        assert provider.mac(b"payload", b"b|5") != tag

    def test_length_word_keeps_context_and_data_apart(self):
        provider = ShakeBlake2Provider(KEY)
        assert provider.mac(b"bc", b"a") != provider.mac(b"c", b"ab")

    @pytest.mark.parametrize("size", [0, 15, 17, 32])
    def test_key_of_the_wrong_size_raises(self, size):
        with pytest.raises(SecurityError, match="16 bytes"):
            ShakeBlake2Provider(bytes(size))

    @pytest.mark.parametrize("nonce", [-1, 2**64])
    def test_nonce_out_of_range_raises(self, nonce):
        provider = ShakeBlake2Provider(KEY)
        with pytest.raises(SecurityError, match="nonce"):
            provider.keystream(nonce, 8)
        with pytest.raises(SecurityError, match="nonce"):
            provider.seal(nonce, b"payload")
        with pytest.raises(SecurityError, match="nonce"):
            provider.open(nonce, b"payload")

    def test_nonce_at_both_ends_of_the_range(self):
        provider = ShakeBlake2Provider(KEY)
        for nonce in (0, 2**64 - 1):
            assert provider.keystream(nonce, 24) == reference_keystream(
                KEY, nonce, 24
            )


class TestRegistry:
    """One provider; the two lookups ``benchmarks/e2e/trace.py`` reads."""

    def test_known_names(self):
        assert provider_names() == ("shake-blake2",)
        assert resolve_provider("shake-blake2") is ShakeBlake2Provider

    def test_resolve_unknown_raises(self):
        with pytest.raises(SecurityError, match="unknown security provider"):
            resolve_provider("rot13")


class TestNegotiation:
    """plan_security -> SecurityContext provider binding."""

    def test_context_resolves_handbuilt_plan(self):
        from repro.subtransport.security import SecurityPlan

        plan = SecurityPlan(
            encrypt=True, mac=False, checksum=False,
            network_privacy=False, network_authentication=False,
        )
        context = SecurityContext(plan, KEY, "a", 7)
        assert isinstance(context.provider, ShakeBlake2Provider)

    def test_context_transform_roundtrip(self):
        """The wire bytes of one component, built by hand from the
        oracle: sealed under ``(rms_id << 32) | seq``, tagged over the
        ciphertext with the sender label and the sequence number, send
        time, fragment offset and fragment total in their wire encoding
        as context."""
        system = DashSystem(seed=1)
        network = system.add_ethernet(trusted=False)
        params = RmsParams(privacy=True, authentication=True)
        context = SecurityContext(plan_security(params, network), KEY, "a", 7)
        payload = b"x" * 100
        wire = context.protect(3, memoryview(payload), 0.5, 200, 900)
        sealed = reference_seal(KEY, (7 << 32) | 3, payload)
        covered = b"a|" + struct.pack(">IdII", 3, 0.5, 200, 900)
        assert wire == sealed + reference_mac(KEY, sealed, covered)
        assert context.unprotect(3, wire, 0.5, 200, 900) == (payload, None)
        for field, value in enumerate((4, 0.25, 0, 901)):
            fields = [3, 0.5, 200, 900]
            fields[field] = value
            data, reason = context.unprotect(fields[0], wire, *fields[1:])
            assert reason == "authentication failure"

    def test_elided_plan_builds_no_provider(self):
        """A stream with no software mechanism has nothing to protect,
        nothing to undo and no keyed provider."""
        system = DashSystem(seed=1)
        network = system.add_ethernet(trusted=True)
        params = RmsParams(privacy=True, authentication=True)
        context = SecurityContext(plan_security(params, network), KEY, "a", 7)
        assert context.flags == 0
        assert (context.protect, context.unprotect, context.provider) == (
            None, None, None)


def _secured_trace(messages=40, loss=0.04):
    """Fixed-seed lossy run over an *untrusted* ethernet with privacy and
    authentication requested, so every component is sealed and tagged."""
    system = DashSystem(seed=11)
    system.add_ethernet(trusted=False, frame_loss_rate=loss)
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
    """The transform is invisible to the model: with the byte transforms
    passed through (a test-local patch of the one provider class, same
    tag width) the lossy secured channel makes the same deliveries at
    the same simulated times."""

    def test_vectorized_matches_scalar_oracle(self, monkeypatch):
        real = _secured_trace()
        passed_through = []

        def seal(self, nonce, data):
            passed_through.append(len(data))
            return bytes(data)

        monkeypatch.setattr(ShakeBlake2Provider, "seal", seal)
        monkeypatch.setattr(ShakeBlake2Provider, "open", seal)
        monkeypatch.setattr(
            ShakeBlake2Provider, "mac",
            lambda self, data, context=b"": bytes(MAC_BYTES),
        )
        elided = _secured_trace()
        assert passed_through and len(real) > 0
        assert real == elided


class TestDeprecationShims:
    """The shims are gone: the package exports the provider API only."""

    def test_deleted_provider_names_stay_deleted(self):
        import repro.security as package
        from repro.subtransport.config import StConfig

        for name in ("NullProvider", "HardwareProvider", "register_provider"):
            assert not hasattr(package, name)
        with pytest.raises(TypeError):
            StConfig(security_provider="shake-blake2")

    def test_unknown_attribute_raises(self):
        import repro.security as package

        with pytest.raises(AttributeError):
            package.does_not_exist
        with pytest.raises(AttributeError):
            package.StreamCipher  # deleted with cipher.py
