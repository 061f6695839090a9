"""The oracle the ``"shake-blake2"`` provider and the control channel's
``compute_mac`` are checked against.

The constructions spelled out in one shot each, from the definition
in DESIGN section 8.5: no keyed prefix state, no ``copy()``, no
``memoryview``, no ``update`` chain -- every call concatenates its whole
input and hashes it once.  It shares no code with
``repro.security.providers`` or ``repro.security.mac`` (not the
constants either: a change to the prefix, the personalization, the
nonce encoding or the framing there must show up as a difference here).
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
