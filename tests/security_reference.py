"""The oracle the ``"shake-blake2"`` provider, the control channel's
``compute_mac``, the key registry's keys and the random substream seeds
are checked against.

The constructions spelled out in one shot each, from the definition
in DESIGN section 8.5: no keyed prefix state, no ``copy()``, no
``memoryview``, no ``update`` chain -- every call concatenates its whole
input and hashes it once, with ``hashlib`` (``repro`` takes SHA-256 and
BLAKE2b from CPython's built-in modules instead, so the two agree only
if those give ``hashlib``'s bytes).  It shares no code with
``repro.security`` or ``repro.sim.rng`` (not the constants either: a
change to the prefix, the personalization, the nonce encoding or the
framing there must show up as a difference here).
"""

from __future__ import annotations

import hashlib


def reference_keystream(key: bytes, nonce: int, length: int) -> bytes:
    """``SHAKE128(b"dash/ks" || key || nonce as 8 big-endian bytes)``."""
    nonce8 = nonce.to_bytes(8, "big")
    return hashlib.shake_128(b"dash/ks" + key + nonce8).digest(length)


def reference_seal(key: bytes, nonce: int, data) -> bytes:
    """``data`` XOR the keystream, one byte at a time; its own inverse."""
    data = bytes(data)
    stream = reference_keystream(key, nonce, len(data))
    return bytes(a ^ b for a, b in zip(data, stream))


def reference_mac(
    key: bytes, data, context: bytes = b"", person: bytes = b"dash/mac"
) -> bytes:
    """Keyed BLAKE2b-64 over ``context || u32(len(data)) || data``."""
    data = bytes(data)
    material = context + len(data).to_bytes(4, "big") + data
    return hashlib.blake2b(
        material, key=key, person=person, digest_size=8
    ).digest()


def reference_control_mac(key: bytes, data, context: bytes = b"") -> bytes:
    """The control channel's tag: the same framing, its own ``person``."""
    return reference_mac(key, data, context, person=b"dash/ctl")


def reference_host_key(host: str) -> bytes:
    """A host's master key: ``SHA-256(b"dash-realm/host/" || host)``,
    its first 16 bytes."""
    return hashlib.sha256(b"dash-realm/host/" + host.encode()).digest()[:16]


def reference_pair_key(host_a: str, host_b: str) -> bytes:
    """``SHA-256(b"dash-realm/pair/" || low || b"|" || high || key(low)
    || key(high))``, its first 16 bytes, the names in sorted order."""
    low, high = sorted((host_a, host_b))
    material = (b"dash-realm/pair/" + low.encode() + b"|" + high.encode()
                + reference_host_key(low) + reference_host_key(high))
    return hashlib.sha256(material).digest()[:16]


def reference_session_key(host_a: str, host_b: str, session_id: int) -> bytes:
    """``SHA-256(pair key || session id as 8 big-endian bytes)``, its
    first 16 bytes."""
    material = reference_pair_key(host_a, host_b) + session_id.to_bytes(8, "big")
    return hashlib.sha256(material).digest()[:16]


def reference_stream_seed(master_seed: int, name: str) -> int:
    """The seed of substream ``name``: the first 8 bytes, big-endian, of
    ``SHA-256("<master>:<name>")``."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")

