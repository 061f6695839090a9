"""The security transform of the ST data path.

Section 2.5 makes security a per-channel *negotiated parameter*: the ST
picks software encryption, link-level "hardware" encryption, or nothing
at all, depending on what the client asked for and what the medium
provides (``plan_security`` reads ``network.properties``).  When the
plan says software, this is the software: :class:`ShakeBlake2Provider`,
a SHAKE-128 keystream and a keyed BLAKE2b tag, both the standard
library's C primitives (``hashlib.algorithms_guaranteed`` lists them in
every CPython).  The class docstring gives the construction byte for
byte; ``tests/security_reference.py`` is its one-shot oracle.

What a transform costs on the wall clock is simulator overhead, not a
modelled quantity: the cost the paper's section 2.5 argues about is
charged in simulated CPU time (``repro.sched.cpu.protocol_cost``), whatever runs
here.  The 8-byte tag is the wire format's width
(:data:`~repro.security.mac.MAC_BYTES`), not a security margin.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from typing import Tuple, Type, Union

from repro.errors import SecurityError
from repro.security.mac import MAC_BYTES

__all__ = [
    "MAC_BYTES",
    "ShakeBlake2Provider",
    "provider_names",
    "resolve_provider",
]

Buffer = Union[bytes, bytearray, memoryview]

_KEY_BYTES = 16
#: Domain separation: the keystream's input prefix and the tag's BLAKE2b
#: personalization, so neither output can stand in for the other.
_KEYSTREAM_PREFIX = b"dash/ks"
_TAG_PERSON = b"dash/mac"

_PACK_U32 = struct.Struct(">I").pack
_PACK_U64 = struct.Struct(">Q").pack


def _xor(data: Buffer, stream: bytes, length: int) -> bytes:
    """One wide XOR of two ``length``-byte strings: int.from_bytes reads
    memoryviews without a copy of the payload into intermediate bytes."""
    return (
        int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    ).to_bytes(length, "big")


class ShakeBlake2Provider:
    """SHAKE-128 keystream, keyed BLAKE2b-64 tag.

    ``keystream(nonce, n)`` is ``SHAKE128(b"dash/ks" || key ||
    nonce).digest(n)`` with the nonce as 8 big-endian bytes -- all 64
    bits of the ST's ``(rms_id << 32) | seq``, so two streams under one
    key never share a keystream.  ``mac(data, context)`` is BLAKE2b with
    ``key=key``, ``person=b"dash/mac"`` and an 8-byte digest over
    ``context || u32(len(data)) || data``; the length word keeps
    ``context`` and ``data`` from trading bytes.  Both keyed prefix
    states are absorbed once here and copied per call.  Instantiated per
    session key; ``seal`` / ``open`` / ``mac`` accept any bytes-like
    payload (the zero-copy ST datapath hands them ``memoryview`` slices)
    and return ``bytes``.
    """

    name = "shake-blake2"

    def __init__(self, key: bytes) -> None:
        if len(key) != _KEY_BYTES:
            raise SecurityError(
                f"session key must be {_KEY_BYTES} bytes, got {len(key)}"
            )
        self.key = key
        self._keystream_state = hashlib.shake_128(_KEYSTREAM_PREFIX + key)
        self._mac_state = hashlib.blake2b(
            key=key, person=_TAG_PERSON, digest_size=MAC_BYTES
        )

    def keystream(self, nonce: int, length: int) -> bytes:
        try:
            nonce_bytes = _PACK_U64(nonce)
        except struct.error:
            raise SecurityError(
                f"nonce must be in 0 ... 2**64 - 1, got {nonce!r}"
            ) from None
        xof = self._keystream_state.copy()
        xof.update(nonce_bytes)
        return xof.digest(length)

    def seal(self, nonce: int, data: Buffer) -> bytes:
        length = len(data)
        return _xor(data, self.keystream(nonce, length), length)

    #: An XOR with the keystream is its own inverse.  A class-level alias
    #: rather than a call into ``seal``, so that a tracer wrapping both
    #: methods records one span per ``open``, not two.
    open = seal

    def mac(self, data: Buffer, context: bytes = b"") -> bytes:
        state = self._mac_state.copy()
        state.update(context + _PACK_U32(len(data)))
        # Read straight from a memoryview: no copy of the payload.
        state.update(data)
        return state.digest()

    def verify(self, data: Buffer, tag: bytes, context: bytes = b"") -> bool:
        """Check a tag; False (no raise) on mismatch."""
        if len(tag) != MAC_BYTES:
            raise SecurityError(
                f"MAC tag must be {MAC_BYTES} bytes, got {len(tag)}"
            )
        return hmac.compare_digest(self.mac(data, context), tag)


# benchmarks/e2e/trace.py, which sits outside what a PR may edit, finds
# the class whose methods it instruments through these two functions.
def provider_names() -> Tuple[str, ...]:
    return (ShakeBlake2Provider.name,)


def resolve_provider(name: str) -> Type[ShakeBlake2Provider]:
    """The one provider class, by its name; raises SecurityError."""
    if name != ShakeBlake2Provider.name:
        raise SecurityError(f"unknown security provider {name!r}")
    return ShakeBlake2Provider
