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

``"xtea-ct"``
    The default: a *vectorized* XTEA counter-mode engine.  Keystream is
    generated in wide batches by packing many 64-bit counter blocks into
    the 64-bit lanes of one Python big integer and running the XTEA
    round function on all lanes at once (shifts/XOR/add are lane-safe:
    32 guard bits per lane absorb carries and a per-round mask clears
    them), so the interpreter executes ~7 big-int operations per
    half-round *per batch* instead of ~12 small-int operations per
    half-round *per block*.  The payload XOR is one big-int operation.
    The MAC is a single pass over ``memoryview``s -- no materialized
    ``context || len || data`` concatenation.
``"xtea-ct-ref"``
    The scalar reference: one counter block at a time through the same
    XTEA rounds, naive byte-concatenated MAC material.  It is the
    correctness oracle -- byte-identical keystream, ciphertext, and tags
    to ``"xtea-ct"`` (asserted by the property suite in
    ``tests/test_security_providers.py``) -- and the ablation baseline
    for ``bench_e21_securedpath``.
``"null"``
    Transforms elided: ``seal``/``open`` pass payloads through and the
    MAC is a constant tag.  For ablations that want the secured
    *protocol* shape without the transform cost.
``"hw"``
    Models link-level encryption hardware (section 2.5 case 2): software
    transforms pass through like ``"null"`` but the provider is marked
    ``hardware`` so benches can report the regime honestly.

The MAC negotiated by the XTEA providers is a toy Wegman-Carter
construction ("poly-xtea"): a Horner-rule polynomial hash of
``context || len(data) || data`` over GF(2^61 - 1) with a key-derived
evaluation point, finalized through one XTEA block encryption.  Unlike
the legacy CBC-MAC (:func:`repro.security.mac.compute_mac`, still used
on the ST control channel), it costs ~3 interpreter operations per
8-byte block instead of 32 cipher rounds, and the hash admits the same
wide single-pass treatment as the cipher.  Like every cipher in this
package it is **not** cryptographically reviewed -- the experiments need
correct-but-costly byte transformations, not security.
"""

from __future__ import annotations

import hmac
import struct
from typing import Callable, Dict, Iterable, List, Tuple, Union

try:  # pragma: no cover - Protocol is 3.8+; the repo floor is 3.9
    from typing import Protocol
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

from repro.errors import SecurityError
from repro.security.cipher import (
    _DELTA,
    _MASK,
    _ROUNDS,
    _check_key,
    _encrypt_words,
)

__all__ = [
    "MAC_BYTES",
    "SecurityProvider",
    "XteaScalarProvider",
    "XteaVectorProvider",
    "NullProvider",
    "HardwareProvider",
    "provider_names",
    "register_provider",
    "resolve_provider",
]

Buffer = Union[bytes, bytearray, memoryview]

#: Width of the MAC tag all providers emit (one XTEA block).
MAC_BYTES = 8

#: The polynomial-hash modulus (a Mersenne prime, so ``%`` is cheap).
_POLY_P = (1 << 61) - 1

#: Counter-mode blocks available under one nonce: the counter word is
#: 32 bits, so a stream longer than ``2**32`` blocks would silently
#: reuse keystream.  Both engines raise instead.
_MAX_COUNTER_BLOCKS = 1 << 32

_PACK_U32 = struct.Struct(">I").pack
_PACK_2U32 = struct.Struct(">2I").pack
_U64_FORMATS: Dict[int, struct.Struct] = {}


def _u64_struct(count: int) -> struct.Struct:
    cached = _U64_FORMATS.get(count)
    if cached is None:
        cached = _U64_FORMATS[count] = struct.Struct(">%dQ" % count)
    return cached


def _round_constants(k: Tuple[int, int, int, int]) -> List[Tuple[int, int]]:
    """The 32 ``(c0, c1)`` XTEA round constants for one key schedule.

    The round function only ever combines ``total`` and the key words,
    never the data, so the per-round addends are key-only and can be
    hoisted out of every block.  Masked to 32 bits: the scalar rounds
    leave ``total + k[...]`` unmasked, but bits >= 32 of an XOR/ADD
    operand cannot reach the low 32 bits of the result, which is all the
    final ``& MASK`` keeps.
    """
    constants = []
    total = 0
    for _ in range(_ROUNDS):
        c0 = (total + k[total & 3]) & _MASK
        total = (total + _DELTA) & _MASK
        c1 = (total + k[(total >> 11) & 3]) & _MASK
        constants.append((c0, c1))
    return constants


def _check_counter_span(offset: int, length: int) -> None:
    if offset < 0:
        raise SecurityError(f"keystream offset must be >= 0, got {offset}")
    if (offset + length + 7) >> 3 > _MAX_COUNTER_BLOCKS:
        raise SecurityError(
            "keystream exhausted: counter block overflow at "
            f"{offset + length} bytes (max {_MAX_COUNTER_BLOCKS} blocks "
            "of 8 bytes per nonce)"
        )


class SecurityProvider(Protocol):
    """What a negotiated security transform must offer.

    Providers are instantiated per session key (``provider_cls(key)``)
    so key schedules and round constants are derived exactly once; the
    :class:`~repro.subtransport.security.SecurityContext` then binds the
    four methods below for the data path.  ``seal`` and ``open`` accept
    any bytes-like payload (the zero-copy ST datapath hands them
    ``memoryview`` slices) and return ``bytes``; ``offset`` positions
    the transform inside the nonce's keystream so chunked callers can
    continue a stream without regenerating its prefix.
    """

    name: str
    #: True when the transform happens in network hardware, not the ST.
    hardware: bool

    def keystream(self, nonce: int, length: int, offset: int = 0) -> bytes:
        """``length`` keystream bytes at ``offset`` of ``nonce``'s stream."""

    def seal(self, nonce: int, data: Buffer, offset: int = 0) -> bytes:
        """Encrypt ``data`` (counter mode: XOR with the keystream)."""

    def open(self, nonce: int, data: Buffer, offset: int = 0) -> bytes:
        """Decrypt ``data`` (the inverse of :meth:`seal`)."""

    def mac(self, data: Buffer, context: bytes = b"") -> bytes:
        """An 8-byte tag over ``context || len(data) || data``."""

    def verify(self, data: Buffer, tag: bytes, context: bytes = b"") -> bool:
        """Check a tag; False (no raise) on mismatch."""


class _ProviderBase:
    """Shared verify logic and the Protocol's attribute defaults."""

    name = "abstract"
    hardware = False

    def open(self, nonce: int, data: Buffer, offset: int = 0) -> bytes:
        # Counter mode is an XOR: sealing and opening are the same
        # transform.  Subclasses with asymmetric transforms override.
        return self.seal(nonce, data, offset)  # type: ignore[attr-defined]

    def verify(self, data: Buffer, tag: bytes, context: bytes = b"") -> bool:
        if len(tag) != MAC_BYTES:
            raise SecurityError(
                f"MAC tag must be {MAC_BYTES} bytes, got {len(tag)}"
            )
        expected = self.mac(data, context)  # type: ignore[attr-defined]
        return hmac.compare_digest(expected, tag)


class _XteaProviderBase(_ProviderBase):
    """Key material shared by the scalar and vectorized XTEA engines."""

    def __init__(self, key: bytes) -> None:
        self.key = key
        self._k = _check_key(key)
        #: Polynomial-hash evaluation point: key-derived, forced odd so
        #: it is never 0 (a degenerate hash).
        self._mac_r = (int.from_bytes(key[:8], "big") | 1) % _POLY_P


class XteaScalarProvider(_XteaProviderBase):
    """The reference engine: one counter block at a time.

    This is the correctness oracle bench E21 ablates against: every
    output must be byte-identical to :class:`XteaVectorProvider`.  It is
    deliberately straightforward -- per-block round loop, concatenated
    MAC material -- so a divergence in the wide engine cannot hide in
    shared code.
    """

    name = "xtea-ct-ref"

    def keystream(self, nonce: int, length: int, offset: int = 0) -> bytes:
        _check_counter_span(offset, length)
        if length <= 0:
            return b""
        k = self._k
        v0 = nonce & _MASK
        first = offset >> 3
        skip = offset & 7
        last = (offset + length - 1) >> 3
        pack = _PACK_2U32
        blocks = [
            pack(*_encrypt_words(k, v0, counter))
            for counter in range(first, last + 1)
        ]
        stream = b"".join(blocks)
        return stream[skip : skip + length]

    def seal(self, nonce: int, data: Buffer, offset: int = 0) -> bytes:
        length = len(data)
        if length == 0:
            return b""
        stream = self.keystream(nonce, length, offset)
        return (
            int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
        ).to_bytes(length, "big")

    def mac(self, data: Buffer, context: bytes = b"") -> bytes:
        material = b"".join((context, _PACK_U32(len(data)), data))
        if len(material) % 8:
            material += b"\x00" * (8 - len(material) % 8)
        h = 0
        r = self._mac_r
        from_bytes = int.from_bytes
        for off in range(0, len(material), 8):
            h = (h * r + from_bytes(material[off : off + 8], "big")) % _POLY_P
        return self._finish_mac(h)

    def _finish_mac(self, h: int) -> bytes:
        """Bind the full key: one XTEA block encryption of the hash."""
        v0, v1 = _encrypt_words(self._k, h >> 32, h & _MASK)
        return _PACK_2U32(v0, v1)


#: Lane-constant cache shared across keys: ``ones`` (the base-2^64
#: repunit that replicates a scalar into every lane), the per-lane
#: 32-bit mask, and the descending counter ramp.  Key-independent, so
#: one entry per batch width serves every provider instance.
_LANE_CONSTANTS: Dict[int, Tuple[int, int, int]] = {}


def _lane_constants(width: int) -> Tuple[int, int, int]:
    cached = _LANE_CONSTANTS.get(width)
    if cached is None:
        ones = ((1 << (64 * width)) - 1) // ((1 << 64) - 1)
        wide_mask = ones * _MASK
        # Lane j holds width-1-j: the most-significant lane carries
        # counter+0, so the batch renders (to_bytes, big-endian) in
        # ascending counter order like the scalar loop.
        ramp = int.from_bytes(
            b"".join(_PACK_2U32(0, i) for i in range(width)), "big"
        )
        cached = _LANE_CONSTANTS[width] = (ones, wide_mask, ramp)
    return cached


#: Lanes of the packed polynomial hash: one step reads ``2 * _MAC_LANES``
#: blocks.  Of 2 ... 16, 8 measured best at 400 B components and within
#: a tenth of the best (12) at 1,400 B.
_MAC_LANES = 8
_MAC_CHUNK = 16 * _MAC_LANES
#: Key-independent lane constants of the packed hash: the 128-bit
#: repunit times the low-64 mask, the low-61 mask (= the modulus) and
#: the 67 bits one fold carries down from above bit 61.
_MAC_ONES = ((1 << (128 * _MAC_LANES)) - 1) // ((1 << 128) - 1)
_MAC_LOW64 = _MAC_ONES * ((1 << 64) - 1)
_MAC_LOW61 = _MAC_ONES * _POLY_P
_MAC_CARRY = _MAC_ONES * ((1 << 67) - 1)
_MAC_LANE_MASK = (1 << 128) - 1
#: Most-significant lane first: the order the final Horner pass reads.
_MAC_LANE_SHIFTS = tuple(range(128 * (_MAC_LANES - 1), -1, -128))


def _xor(data: Buffer, stream: bytes, length: int) -> bytes:
    """One wide XOR of two ``length``-byte strings: int.from_bytes reads
    memoryviews without a copy of the payload into intermediate bytes."""
    return (
        int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    ).to_bytes(length, "big")


class XteaVectorProvider(_XteaProviderBase):
    """The wide engine: many counter blocks per XTEA round sweep.

    **Lane packing.**  A batch of ``w`` counter blocks occupies one
    big integer with a 64-bit lane per block: the low 32 bits of lane
    ``j`` hold the evolving word, the high 32 bits are guard space.
    ``v0`` starts as the nonce replicated into every lane (one big-int
    multiply by the repunit), ``v1`` as the counter ramp.  Each XTEA
    half-round is then 7 big-int operations over *all* lanes::

        v0 = (v0 + ((((v1 << 4) ^ (v1 >> 5)) + v1) ^ rc0)) & wide_mask

    Lane isolation: ``<< 4`` reaches bit 35 of a lane, ``+`` carries to
    at most bit 37, and the bits a ``>> 5`` drags in from the lane above
    land at bits 59-63 -- none of it crosses a lane boundary before the
    mask clears everything above bit 31.  The result is bit-identical to
    running the scalar rounds per block (the property suite proves it).

    **In-flight keystreams.**  Counter mode generates the same keystream
    to seal a component and to open it, and both ends of an in-process
    ``StRms`` hold this one provider object (one
    :class:`~repro.subtransport.security.SecurityContext` per stream).
    ``seal`` therefore leaves the keystream it generated in a map under
    ``(nonce, offset)`` and the matching ``open`` pops it: a prefix if
    the request is shorter, a fresh :meth:`keystream` if nothing is
    there or the request is longer.  Each entry serves one ``open``, the
    map is insertion-ordered and holds at most :attr:`INFLIGHT` entries
    (the oldest is evicted first), so the keystream of a component lost
    on the wire ages out.  A miss only costs the regeneration; the
    bytes are those of the scalar oracle either way.

    **MAC.**  The polynomial hash runs single-pass over ``memoryview``
    slices: the ``context || len`` head absorbs the first payload bytes
    to reach block alignment, then the aligned middle is read
    ``2 * L`` blocks at a time (``L`` = ``_MAC_LANES``) as one big
    integer of ``L`` 128-bit lanes, two blocks ``(hi, lo)`` per lane,
    and every lane advances its own Horner chain by ``2 * L`` blocks::

        g = g * r**(2 * L) + hi * r + lo         # lane-wise
        g = (g & low61) + ((g >> 61) & carry)    # twice

    At the end lane ``j`` (most significant first) holds the hash of
    block pairs ``j, j + L, j + 2L, ...`` and the lanes are combined by
    Horner in ``r**2``; the hash of the head rides in as the initial
    value of the last lane.  What is left (under ``2 * L`` blocks and
    the padded partial block) goes through the scalar loop.

    Lane isolation: ``P = 2**61 - 1`` so ``2**61 = 1 (mod P)`` and a
    fold keeps the residue.  A lane below ``2**128`` folds to less than
    ``2**61 + 2**67`` and folds again to at most ``2**61 + 64``; with
    ``r, r**(2L) <= P - 1`` and ``hi, lo < 2**64`` the next step is at
    most ``(2**61 + 64) * 2**61 + 2**64 * 2**61 + 2**64 < 2**126``,
    inside the lane.  One fold is not enough: ``(2**61 + 2**67) *
    r**(2L) + 2**125`` can pass ``2**128`` once ``r**(2L) > 0.86 P``,
    and does on all-ones data within a few percent of ``P`` -- keys
    random tests rarely draw and the adversarial-key test searches for.
    ``>> 61`` drags the lane above into bits 67-127, which ``carry``
    clears.
    """

    name = "xtea-ct"

    #: Full batch width (blocks): 64 lanes = 512 keystream bytes.
    BATCH = 64

    #: Most keystreams kept between ``seal`` and ``open``.  A stream has
    #: at most its capacity in flight (a few dozen components on the
    #: secured workloads); at the 1,400 B a LAN component holds this
    #: bounds the map near 90 KB per stream.
    INFLIGHT = 64

    def __init__(self, key: bytes) -> None:
        super().__init__(key)
        self._rc = _round_constants(self._k)
        #: Per-width replicated round constants (key-dependent, built
        #: lazily: real runs see a handful of widths <= 64).
        self._wide_rc: Dict[int, List[Tuple[int, int]]] = {}
        self._mac_r2 = self._mac_r * self._mac_r % _POLY_P
        self._mac_rw = pow(self._mac_r, 2 * _MAC_LANES, _POLY_P)
        self._inflight: Dict[Tuple[int, int], bytes] = {}
        #: ``open`` calls served from the in-flight map / regenerated.
        self.keystream_hits = 0
        self.keystream_misses = 0

    def _wide_round_constants(self, width: int, ones: int):
        cached = self._wide_rc.get(width)
        if cached is None:
            cached = self._wide_rc[width] = [
                (c0 * ones, c1 * ones) for (c0, c1) in self._rc
            ]
        return cached

    def _batch(self, nonce32: int, counter: int, width: int) -> bytes:
        """Keystream for counter blocks ``[counter, counter + width)``."""
        ones, wide_mask, ramp = _lane_constants(width)
        rc = self._wide_round_constants(width, ones)
        v0 = nonce32 * ones
        v1 = (counter * ones + ramp) & wide_mask
        for c0, c1 in rc:
            v0 = (v0 + ((((v1 << 4) ^ (v1 >> 5)) + v1) ^ c0)) & wide_mask
            v1 = (v1 + ((((v0 << 4) ^ (v0 >> 5)) + v0) ^ c1)) & wide_mask
        return ((v0 << 32) | v1).to_bytes(8 * width, "big")

    def keystream(self, nonce: int, length: int, offset: int = 0) -> bytes:
        _check_counter_span(offset, length)
        if length <= 0:
            return b""
        nonce32 = nonce & _MASK
        block = offset >> 3
        skip = offset & 7
        blocks_needed = (skip + length + 7) >> 3
        batch = self.BATCH
        parts: List[bytes] = []
        while blocks_needed > 0:
            if blocks_needed >= batch:
                width = batch
            else:
                width = 1 << (blocks_needed - 1).bit_length()
                # Never let a pow2 round-up push a lane past the counter
                # guard (only reachable within a whisker of the 32 GiB
                # per-nonce limit).
                if block + width > _MAX_COUNTER_BLOCKS:
                    width = _MAX_COUNTER_BLOCKS - block
            parts.append(self._batch(nonce32, block, width))
            block += width
            blocks_needed -= width
        return b"".join(parts)[skip : skip + length]

    def seal(self, nonce: int, data: Buffer, offset: int = 0) -> bytes:
        length = len(data)
        if length == 0:
            return b""
        stream = self.keystream(nonce, length, offset)
        inflight = self._inflight
        inflight[(nonce & _MASK, offset)] = stream
        if len(inflight) > self.INFLIGHT:
            del inflight[next(iter(inflight))]
        return _xor(data, stream, length)

    def open(self, nonce: int, data: Buffer, offset: int = 0) -> bytes:
        length = len(data)
        if length == 0:
            return b""
        stream = self._inflight.pop((nonce & _MASK, offset), None)
        if stream is None or len(stream) < length:
            self.keystream_misses += 1
            stream = self.keystream(nonce, length, offset)
        else:
            self.keystream_hits += 1
        return _xor(data, stream[:length], length)

    def mac(self, data: Buffer, context: bytes = b"") -> bytes:
        head = context + _PACK_U32(len(data))
        view = data if type(data) is memoryview else memoryview(data)
        n = len(view)
        misaligned = len(head) & 7
        if misaligned:
            need = 8 - misaligned
            take = need if need <= n else n
            head += bytes(view[:take])
            view = view[take:]
            n -= take
            if len(head) & 7:  # data ran out inside the straddle block
                head += b"\x00" * (8 - (len(head) & 7))
        h = 0
        r = self._mac_r
        from_bytes = int.from_bytes
        for off in range(0, len(head), 8):
            h = (h * r + from_bytes(head[off : off + 8], "big")) % _POLY_P
        packed = n - n % _MAC_CHUNK
        if packed:
            rw = self._mac_rw
            low64, low61, carry = _MAC_LOW64, _MAC_LOW61, _MAC_CARRY
            g = h  # the last lane: its chain ends at the last block
            for off in range(0, packed, _MAC_CHUNK):
                c = from_bytes(view[off : off + _MAC_CHUNK], "big")
                g = g * rw + ((c >> 64) & low64) * r + (c & low64)
                g = (g & low61) + ((g >> 61) & carry)
                g = (g & low61) + ((g >> 61) & carry)
            r2 = self._mac_r2
            h = 0
            for shift in _MAC_LANE_SHIFTS:
                h = (h * r2 + ((g >> shift) & _MAC_LANE_MASK)) % _POLY_P
            view = view[packed:]
            n -= packed
        full_blocks = n >> 3
        if full_blocks:
            for m in _u64_struct(full_blocks).unpack_from(view):
                h = (h * r + m) % _POLY_P
        tail = n & 7
        if tail:
            last = bytes(view[n - tail :]) + b"\x00" * (8 - tail)
            h = (h * r + from_bytes(last, "big")) % _POLY_P
        return self._finish_mac(h)

    def _finish_mac(self, h: int) -> bytes:
        """Bind the full key: one XTEA block encryption of the hash,
        over the hoisted round constants."""
        v0 = h >> 32
        v1 = h & _MASK
        for c0, c1 in self._rc:
            v0 = (v0 + ((((v1 << 4) ^ (v1 >> 5)) + v1) ^ c0)) & _MASK
            v1 = (v1 + ((((v0 << 4) ^ (v0 >> 5)) + v0) ^ c1)) & _MASK
        return _PACK_2U32(v0, v1)


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

    def keystream(self, nonce: int, length: int, offset: int = 0) -> bytes:
        _check_counter_span(offset, length)
        return b"\x00" * max(length, 0)

    def seal(self, nonce: int, data: Buffer, offset: int = 0) -> bytes:
        return data if type(data) is bytes else bytes(data)

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


register_provider(XteaVectorProvider.name, XteaVectorProvider)
register_provider(XteaScalarProvider.name, XteaScalarProvider)
register_provider(NullProvider.name, NullProvider)
register_provider(HardwareProvider.name, HardwareProvider)
