"""Tests for the security substrate: checksums, MACs, keys.

The control channel's MAC is imported from its *submodule* deliberately
(the ``repro.security`` package exports the provider API only).
Data-path behaviour goes through the provider API, tested in
:class:`TestProviderApi` and ``test_security_providers.py``; both are
checked against ``tests/security_reference.py``.
"""

from __future__ import annotations

import os
import pathlib
import random
import subprocess
import sys
from zlib import crc32

import pytest
from hypothesis import given, strategies as st

from repro.errors import SecurityError
from repro.security.providers import resolve_provider
from repro.security.keys import KeyRegistry
from repro.security.mac import MAC_BYTES, compute_mac, verify_mac
from repro.sim.rng import RandomStreams
from tests.security_reference import (
    reference_control_mac,
    reference_host_key,
    reference_mac,
    reference_pair_key,
    reference_seal,
    reference_session_key,
    reference_stream_seed,
)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

KEY = b"0123456789abcdef"


class TestChecksums:
    def test_crc32_known_vector(self):
        """The canonical CRC-32 check value."""
        assert crc32(b"123456789") == 0xCBF43926

    def test_crc32_empty(self):
        assert crc32(b"") == 0

    @given(st.binary(min_size=1, max_size=256), st.integers(min_value=0))
    def test_crc32_detects_single_bit_flips(self, data, bit_seed):
        bit = bit_seed % (len(data) * 8)
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        assert crc32(bytes(flipped)) != crc32(data)


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

    def test_known_answer(self):
        """Two tags as literals: a change to the key handling, the
        personalization, the framing or the width shows here even if it
        were made to the oracle too."""
        tag = compute_mac(KEY, b'{"na":1,"op":"auth1"}', context=b"host-a")
        assert tag.hex() == "4e844457228402f4"
        assert compute_mac(KEY, b"").hex() == "7a90f7037bebeb23"

    @given(st.binary(max_size=512), st.binary(max_size=32), st.booleans())
    def test_equals_the_one_shot_reference(self, data, context, as_view):
        expected = reference_control_mac(KEY, data, context)
        fed = memoryview(data) if as_view else data
        assert compute_mac(KEY, fed, context) == expected
        assert verify_mac(KEY, fed, expected, context)
        # One flipped bit of hashlib's tag is refused.
        forged = bytes([expected[0] ^ 1]) + expected[1:]
        assert not verify_mac(KEY, fed, forged, context)

    def test_control_tag_is_not_the_data_path_tag(self):
        """Same key, context and data on both channels: the
        personalization keeps a data-path tag from being replayed as a
        control frame's, and the other way round."""
        provider = resolve_provider("shake-blake2")(KEY)
        for data, context in [(b"", b""), (b"payload", b"a"), (b"x" * 400, b"")]:
            assert compute_mac(KEY, data, context) != provider.mac(data, context)

    @pytest.mark.parametrize("length", [0, 15, 17, 32])
    def test_bad_key_length_raises(self, length):
        with pytest.raises(SecurityError):
            compute_mac(b"k" * length, b"data")
        with pytest.raises(SecurityError):
            verify_mac(b"k" * length, b"data", b"\x00" * MAC_BYTES)


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

    def test_session_keys_vary_by_id(self):
        registry = KeyRegistry()
        registry.register_host("a")
        registry.register_host("b")
        assert registry.session_key("a", "b", 1) != registry.session_key("a", "b", 2)

    @pytest.mark.parametrize("hosts", [("a", "b"), ("b", "a"),
                                       ("h12", "h3"), ("node-α", "gw")])
    def test_keys_equal_the_hashlib_reference(self, hosts):
        registry = KeyRegistry()
        for host in hosts:
            assert registry.register_host(host) == reference_host_key(host)
        assert registry.pairwise_key(*hosts) == reference_pair_key(*hosts)
        for session_id in (0, 1, 2**32 + 5):
            assert (registry.session_key(*hosts, session_id)
                    == reference_session_key(*hosts, session_id))

    def test_known_answers(self):
        """Literals: a change made to the reference too shows here."""
        registry = KeyRegistry()
        assert registry.register_host("a").hex() == (
            "005e5245ffb8a616a173736aa5997849")
        registry.register_host("b")
        assert registry.pairwise_key("b", "a").hex() == (
            "ac3a44e43de46f68295c60e8ce0fb72f")
        assert registry.session_key("a", "b", 7).hex() == (
            "9cd646ecefa6f8313bc664d4a5ae41a4")

    def test_key_sizes(self):
        registry = KeyRegistry()
        assert len(registry.register_host("a")) == 16
        registry.register_host("b")
        assert len(registry.pairwise_key("a", "b")) == 16


class TestSubstreamSeeds:
    @pytest.mark.parametrize("master", [0, 1, 7, 2**40 + 3])
    @pytest.mark.parametrize("name", ["link:l", "resilience:s1", "ü"])
    def test_seeds_equal_the_hashlib_reference(self, master, name):
        streams = RandomStreams(master)
        expected = reference_stream_seed(master, name)
        assert (streams.stream(name).getstate()
                == random.Random(expected).getstate())

    def test_known_answers(self):
        assert RandomStreams(1).stream("link:l").random() == 0.44114804116073536


_FOOTPRINT = """
import sys

from repro import DashSystem, DelayBound, DelayBoundType, RmsParams


def deliver(trusted, **security):
    system = DashSystem(seed=1)
    system.add_ethernet(trusted=trusted)
    system.add_node("a"), system.add_node("b")
    params = RmsParams(capacity=16384, max_message_size=4096,
                       delay_bound=DelayBound(0.1, 1e-5),
                       delay_bound_type=DelayBoundType.BEST_EFFORT,
                       **security)
    session = system.connect("a", "b", desired=params, acceptable=params)
    system.run(until=1.0)
    received = []
    session.established.result().port.set_handler(received.append)
    session.send(b"x" * 3000)
    system.run(until=2.0)
    assert len(received) == 1, received
    return session.established.result().security.provider


def loaded():
    return sorted(name for name in ("_hashlib", "hashlib", "hmac")
                  if name in sys.modules)


print(loaded())
assert deliver(True) is None
print(loaded())
assert deliver(False, privacy=True, authentication=True) is not None
print(loaded())
"""


class TestWhatLoads:
    """Only a stream whose plan applies software security maps OpenSSL
    (``_hashlib``, about 3.6 MB resident): keys, seeds and control tags
    use CPython's built-in hashes (DESIGN 8.9)."""

    def test_openssl_is_mapped_by_the_first_secured_stream(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
        # ``-S``: no site-packages, whose ``.pth`` hooks could import
        # ``hashlib`` before ``repro`` does.
        result = subprocess.run(
            [sys.executable, "-S", "-c", _FOOTPRINT], capture_output=True,
            text=True, timeout=60, env=env,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [
            "[]",  # after import repro
            "[]",  # after an unsecured LAN delivered
            "['_hashlib', 'hashlib']",  # after a secured stream delivered
        ]
