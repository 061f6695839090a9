"""Authentication: the control channel's message authentication code.

The RMS authentication parameter guarantees that "impersonation
(delivery of a message with incorrect source label) is impossible"
(section 2.1).  The ST realizes this on its control channel with a
keyed MAC over the message and its source label: the standard library's
keyed BLAKE2b, its digest size set to the tag width the data-path
provider shares.
"""

from __future__ import annotations

import hashlib
import hmac
import struct

from repro.errors import SecurityError

__all__ = ["compute_mac", "verify_mac", "MAC_BYTES"]

#: Width of the MAC tag carried in message headers: the one definition,
#: shared by the control channel here and the data-path provider.
MAC_BYTES = 8

_KEY_BYTES = 16
#: Domain separation from the data-path provider's tag: the same key,
#: context and data never yield the same tag on both channels.
_PERSON = b"dash/ctl"
_PACK_U32 = struct.Struct(">I").pack


def compute_mac(key: bytes, data: bytes, context: bytes = b"") -> bytes:
    """An 8-byte keyed BLAKE2b tag over ``context || len || data``.

    The length prefix prevents trivial extension ambiguity between the
    context (the source label) and the payload.  ``data`` may be any
    bytes-like object: it is fed to the hash by ``update()``, so
    ``memoryview`` payloads are read without an intermediate ``bytes()``.
    """
    if len(key) != _KEY_BYTES:
        raise SecurityError(
            f"control key must be {_KEY_BYTES} bytes, got {len(key)}"
        )
    state = hashlib.blake2b(key=key, person=_PERSON, digest_size=MAC_BYTES)
    state.update(context + _PACK_U32(len(data)))
    state.update(data)
    return state.digest()


def verify_mac(key: bytes, data: bytes, tag: bytes, context: bytes = b"") -> bool:
    """Check a tag; returns False rather than raising on mismatch."""
    if len(tag) != MAC_BYTES:
        raise SecurityError(f"MAC tag must be {MAC_BYTES} bytes, got {len(tag)}")
    return hmac.compare_digest(compute_mac(key, data, context), tag)
