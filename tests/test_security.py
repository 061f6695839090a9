"""Tests for the security substrate: checksums, ciphers, MACs, keys.

The raw primitives are imported from their *submodules* deliberately
(the ``repro.security`` package exports the provider API only); they
serve the ST control channel.  Data-path behaviour goes through the
provider API, tested in :class:`TestProviderApi` and
``test_security_providers.py`` against ``tests/security_reference.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import SecurityError
from repro.security import resolve_provider
from repro.security.checksum import (
    CHECKSUM_ALGORITHMS,
    checksum_bytes,
    crc32,
    fletcher16,
    internet_checksum,
)
from repro.security.cipher import StreamCipher, xtea_decrypt_block, xtea_encrypt_block
from repro.security.keys import KeyRegistry
from repro.security.mac import MAC_BYTES, compute_mac, verify_mac
from tests.security_reference import reference_mac, reference_seal

KEY = b"0123456789abcdef"


class TestChecksums:
    def test_crc32_known_vector(self):
        """The canonical CRC-32 check value."""
        assert crc32(b"123456789") == 0xCBF43926

    def test_crc32_empty(self):
        assert crc32(b"") == 0

    def test_internet_checksum_detects_flip(self):
        data = bytearray(b"The quick brown fox")
        original = internet_checksum(bytes(data))
        data[3] ^= 0x40
        assert internet_checksum(bytes(data)) != original

    def test_internet_checksum_odd_length(self):
        assert isinstance(internet_checksum(b"abc"), int)

    def test_fletcher16_detects_transposition(self):
        assert fletcher16(b"ab") != fletcher16(b"ba")

    def test_all_algorithms_registered(self):
        assert set(CHECKSUM_ALGORITHMS) == {"internet", "fletcher16", "crc32"}

    def test_checksum_widths(self):
        assert checksum_bytes("crc32") == 4
        assert checksum_bytes("internet") == 2

    @given(st.binary(min_size=1, max_size=256), st.integers(min_value=0))
    def test_crc32_detects_single_bit_flips(self, data, bit_seed):
        bit = bit_seed % (len(data) * 8)
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        assert crc32(bytes(flipped)) != crc32(data)


class TestXtea:
    def test_block_roundtrip(self):
        block = b"8bytes!!"
        encrypted = xtea_encrypt_block(KEY, block)
        assert encrypted != block
        assert xtea_decrypt_block(KEY, encrypted) == block

    def test_wrong_key_size_rejected(self):
        with pytest.raises(SecurityError):
            xtea_encrypt_block(b"short", b"8bytes!!")

    def test_wrong_block_size_rejected(self):
        with pytest.raises(SecurityError):
            xtea_encrypt_block(KEY, b"toolongblock")

    def test_different_keys_differ(self):
        other_key = b"fedcba9876543210"
        block = b"8bytes!!"
        assert xtea_encrypt_block(KEY, block) != xtea_encrypt_block(other_key, block)

    @given(st.binary(min_size=8, max_size=8))
    def test_roundtrip_property(self, block):
        assert xtea_decrypt_block(KEY, xtea_encrypt_block(KEY, block)) == block


class TestStreamCipher:
    def test_apply_roundtrips(self):
        cipher = StreamCipher(KEY)
        plaintext = b"attack at dawn" * 10
        ciphertext = cipher.apply(7, plaintext)
        assert ciphertext != plaintext
        assert cipher.apply(7, ciphertext) == plaintext

    def test_different_nonces_differ(self):
        cipher = StreamCipher(KEY)
        assert cipher.apply(1, b"same data") != cipher.apply(2, b"same data")

    def test_keystream_length(self):
        cipher = StreamCipher(KEY)
        assert len(cipher.keystream(0, 13)) == 13

    def test_empty_data(self):
        assert StreamCipher(KEY).apply(0, b"") == b""

    @given(st.binary(max_size=512), st.integers(min_value=0, max_value=2**40))
    def test_roundtrip_property(self, data, nonce):
        cipher = StreamCipher(KEY)
        assert cipher.apply(nonce, cipher.apply(nonce, data)) == data


class TestMac:
    def test_verify_accepts_valid_tag(self):
        tag = compute_mac(KEY, b"payload", context=b"ctx")
        assert len(tag) == MAC_BYTES
        assert verify_mac(KEY, b"payload", tag, context=b"ctx")

    def test_verify_rejects_tampered_payload(self):
        tag = compute_mac(KEY, b"payload")
        assert not verify_mac(KEY, b"Payload", tag)

    def test_verify_rejects_wrong_context(self):
        """Impersonation: the MAC binds the source label."""
        tag = compute_mac(KEY, b"data", context=b"host-a")
        assert not verify_mac(KEY, b"data", tag, context=b"host-evil")

    def test_verify_rejects_wrong_key(self):
        tag = compute_mac(KEY, b"data")
        assert not verify_mac(b"fedcba9876543210", b"data", tag)

    def test_bad_tag_length_raises(self):
        with pytest.raises(SecurityError):
            verify_mac(KEY, b"data", b"short")

    def test_length_prefix_prevents_extension_ambiguity(self):
        """context||data splits must not collide."""
        tag_one = compute_mac(KEY, b"bc", context=b"a")
        tag_two = compute_mac(KEY, b"c", context=b"ab")
        assert tag_one != tag_two

    @given(st.binary(max_size=128), st.binary(max_size=32))
    def test_roundtrip_property(self, data, context):
        tag = compute_mac(KEY, data, context)
        assert verify_mac(KEY, data, tag, context)


class TestProviderApi:
    """The negotiated-provider surface the data path actually uses."""

    def test_seal_open_roundtrips(self):
        provider = resolve_provider("shake-blake2")(KEY)
        plaintext = b"attack at dawn" * 10
        sealed = provider.seal(7, plaintext)
        assert sealed != plaintext
        assert provider.open(7, sealed) == plaintext

    @given(
        st.binary(max_size=512),
        st.integers(min_value=0, max_value=2**64 - 1),
    )
    def test_vectorized_equals_scalar(self, data, nonce):
        """The registered default against the one-shot definitions in
        ``tests/security_reference.py``."""
        provider = resolve_provider("shake-blake2")(KEY)
        assert provider.seal(nonce, data) == reference_seal(KEY, nonce, data)
        assert provider.mac(data, b"ctx") == reference_mac(KEY, data, b"ctx")


class TestKeyRegistry:
    def test_pairwise_key_symmetric(self):
        registry = KeyRegistry()
        registry.register_host("a")
        registry.register_host("b")
        assert registry.pairwise_key("a", "b") == registry.pairwise_key("b", "a")

    def test_distinct_pairs_distinct_keys(self):
        registry = KeyRegistry()
        for host in ("a", "b", "c"):
            registry.register_host(host)
        assert registry.pairwise_key("a", "b") != registry.pairwise_key("a", "c")

    def test_unenrolled_host_rejected(self):
        registry = KeyRegistry()
        registry.register_host("a")
        with pytest.raises(SecurityError):
            registry.pairwise_key("a", "mallory")

    def test_register_idempotent(self):
        registry = KeyRegistry()
        assert registry.register_host("a") == registry.register_host("a")

    def test_different_realms_differ(self):
        first = KeyRegistry(b"realm-one")
        second = KeyRegistry(b"realm-two")
        for registry in (first, second):
            registry.register_host("a")
            registry.register_host("b")
        assert first.pairwise_key("a", "b") != second.pairwise_key("a", "b")

    def test_session_keys_vary_by_id(self):
        registry = KeyRegistry()
        registry.register_host("a")
        registry.register_host("b")
        assert registry.session_key("a", "b", 1) != registry.session_key("a", "b", 2)

    def test_key_sizes(self):
        registry = KeyRegistry()
        assert len(registry.register_host("a")) == 16
        registry.register_host("b")
        assert len(registry.pairwise_key("a", "b")) == 16
