"""Pluggable security-transform providers (negotiated by name).

Section 2.5 makes security a per-channel *negotiated parameter*: the ST
picks software encryption, link-level "hardware" encryption, or nothing
at all, depending on what the client asked for and what the medium
provides.  This module extends that negotiation to the transform
implementation itself: a :class:`SecurityProvider` bundles the keystream
generator, the bulk ``seal``/``open`` transforms, and the MAC, and is
selected *by name* at negotiation time (``StConfig(security_provider=
...)`` -> ``plan_security`` -> ``SecurityPlan.provider``), so the
per-stream :class:`~repro.subtransport.security.SecurityContext` holds
bound provider methods instead of module globals.

Built-in providers:

``"shake-blake2"``
    The default: a SHAKE-128 keystream and a keyed BLAKE2b tag, both the
    standard library's C primitives (``hashlib.algorithms_guaranteed``
    lists them in every CPython).  :class:`ShakeBlake2Provider` gives
    the construction byte for byte; ``tests/security_reference.py`` is
    its one-shot oracle.
``"null"``
    Transforms elided: ``seal``/``open`` pass payloads through and the
    MAC is a constant tag.  For ablations that want the secured
    *protocol* shape without the transform cost.
``"hw"``
    Models link-level encryption hardware (section 2.5 case 2): software
    transforms pass through like ``"null"`` but the provider is marked
    ``hardware`` so benches can report the regime honestly.

What a transform costs on the wall clock is simulator overhead, not a
modelled quantity: the cost the paper's section 2.5 argues about is
charged in simulated CPU time (``costs.protocol_cost``), whatever runs
here.  The 8-byte tag is the wire format's width
(:data:`~repro.security.mac.MAC_BYTES`), not a security margin.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from typing import Callable, Dict, Iterable, Union

try:  # pragma: no cover - Protocol is 3.8+; the repo floor is 3.9
    from typing import Protocol
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

from repro.errors import SecurityError
from repro.security.mac import MAC_BYTES

__all__ = [
    "MAC_BYTES",
    "SecurityProvider",
    "ShakeBlake2Provider",
    "NullProvider",
    "HardwareProvider",
    "provider_names",
    "register_provider",
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


class SecurityProvider(Protocol):
    """What a negotiated security transform must offer.

    Providers are instantiated per session key (``provider_cls(key)``)
    so keyed hash states are derived exactly once; the
    :class:`~repro.subtransport.security.SecurityContext` then binds the
    four methods below for the data path.  ``seal`` and ``open`` accept
    any bytes-like payload (the zero-copy ST datapath hands them
    ``memoryview`` slices) and return ``bytes``.
    """

    name: str
    #: True when the transform happens in network hardware, not the ST.
    hardware: bool

    def keystream(self, nonce: int, length: int) -> bytes:
        """``length`` keystream bytes of ``nonce``'s stream."""

    def seal(self, nonce: int, data: Buffer) -> bytes:
        """Encrypt ``data`` (XOR with the nonce's keystream)."""

    def open(self, nonce: int, data: Buffer) -> bytes:
        """Decrypt ``data`` (the inverse of :meth:`seal`)."""

    def mac(self, data: Buffer, context: bytes = b"") -> bytes:
        """An 8-byte tag over ``context || len(data) || data``."""

    def verify(self, data: Buffer, tag: bytes, context: bytes = b"") -> bool:
        """Check a tag; False (no raise) on mismatch."""


class _ProviderBase:
    """Shared verify logic and the Protocol's attribute defaults."""

    name = "abstract"
    hardware = False

    def verify(self, data: Buffer, tag: bytes, context: bytes = b"") -> bool:
        if len(tag) != MAC_BYTES:
            raise SecurityError(
                f"MAC tag must be {MAC_BYTES} bytes, got {len(tag)}"
            )
        expected = self.mac(data, context)  # type: ignore[attr-defined]
        return hmac.compare_digest(expected, tag)


def _xor(data: Buffer, stream: bytes, length: int) -> bytes:
    """One wide XOR of two ``length``-byte strings: int.from_bytes reads
    memoryviews without a copy of the payload into intermediate bytes."""
    return (
        int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    ).to_bytes(length, "big")


class ShakeBlake2Provider(_ProviderBase):
    """SHAKE-128 keystream, keyed BLAKE2b-64 tag.

    ``keystream(nonce, n)`` is ``SHAKE128(b"dash/ks" || key ||
    nonce).digest(n)`` with the nonce as 8 big-endian bytes -- all 64
    bits of the ST's ``(rms_id << 32) | seq``, so two streams under one
    key never share a keystream.  ``mac(data, context)`` is BLAKE2b with
    ``key=key``, ``person=b"dash/mac"`` and an 8-byte digest over
    ``context || u32(len(data)) || data``; the length word keeps
    ``context`` and ``data`` from trading bytes.  Both keyed prefix
    states are absorbed once here and copied per call.
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


class NullProvider(_ProviderBase):
    """Transforms elided: the secured protocol shape at zero byte cost.

    Wire layout (flags, tag widths) is preserved so ablations isolate
    the transform cost, but payloads pass through untouched and the tag
    is constant.  ``verify`` accepts any well-formed tag.
    """

    name = "null"
    _TAG = b"\x00" * MAC_BYTES

    def __init__(self, key: bytes) -> None:
        self.key = key

    def keystream(self, nonce: int, length: int) -> bytes:
        return b"\x00" * max(length, 0)

    def seal(self, nonce: int, data: Buffer) -> bytes:
        return data if type(data) is bytes else bytes(data)

    open = seal

    def mac(self, data: Buffer, context: bytes = b"") -> bytes:
        return self._TAG

    def verify(self, data: Buffer, tag: bytes, context: bytes = b"") -> bool:
        if len(tag) != MAC_BYTES:
            raise SecurityError(
                f"MAC tag must be {MAC_BYTES} bytes, got {len(tag)}"
            )
        return True


class HardwareProvider(NullProvider):
    """Link-level encryption hardware (section 2.5 case 2).

    The medium transforms frames below the ST, so the software provider
    passes bytes through; ``hardware`` marks the regime for benches and
    capability reporting.
    """

    name = "hw"
    hardware = True


_REGISTRY: Dict[str, Callable[[bytes], SecurityProvider]] = {}


def register_provider(
    name: str, factory: Callable[[bytes], SecurityProvider]
) -> None:
    """Register ``factory`` (``factory(session_key) -> provider``).

    Re-registering a name replaces it, so tests can shadow a built-in
    with an instrumented double and restore it after.
    """
    _REGISTRY[name] = factory


def resolve_provider(name: str) -> Callable[[bytes], SecurityProvider]:
    """The factory registered under ``name``; raises SecurityError."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SecurityError(
            f"unknown security provider {name!r} "
            f"(registered: {', '.join(sorted(_REGISTRY))})"
        ) from None


def provider_names() -> Iterable[str]:
    return tuple(sorted(_REGISTRY))


register_provider(ShakeBlake2Provider.name, ShakeBlake2Provider)
register_provider(NullProvider.name, NullProvider)
register_provider(HardwareProvider.name, HardwareProvider)
