"""Parameter-driven security decisions (paper sections 2.5 and 3.1).

The ST chooses, per ST RMS, which mechanisms to run in software based on
the client's RMS parameters and the underlying network's properties:

- privacy: software encryption *only* when the client asked for privacy
  and the network neither is trusted nor has link-level encryption;
- authentication: a MAC *only* when the client asked and the network is
  not trusted (link encryption with shared keys also prevents useful
  impersonation on the medium, so it counts);
- integrity: a software checksum *only* when the network interface does
  not checksum in hardware and the medium can corrupt bits.

"In any case, the optimal mechanism is used ...  If a client does not
require privacy, no mechanism is used (which is again optimal).  Without
the RMS security parameters, this optimization would not be possible."

The mechanisms themselves are :class:`~repro.security.providers.
ShakeBlake2Provider`'s; :class:`SecurityContext` keys one per ST RMS and
binds its methods for the data path.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.core.params import RmsParams
from repro.netsim.network import Network
from repro.security.checksum import crc32
from repro.security.mac import MAC_BYTES
from repro.security.providers import ShakeBlake2Provider
from repro.subtransport.wire import FLAG_CHECKSUM, FLAG_ENCRYPTED, FLAG_MAC

__all__ = ["SecurityContext", "SecurityPlan", "plan_security"]

_CHECKSUM_BYTES = 4
_PACK_U32 = struct.Struct(">I").pack


@dataclass(frozen=True)
class SecurityPlan:
    """What the ST will actually do for one ST RMS on one network."""

    encrypt: bool  # software encryption in the ST
    mac: bool  # software MAC in the ST
    checksum: bool  # software checksum in the ST
    #: Security properties to request from the network RMS itself (the
    #: medium provides them, so the ST can skip the software mechanism).
    network_privacy: bool
    network_authentication: bool

    @property
    def any_software_mechanism(self) -> bool:
        return self.encrypt or self.mac or self.checksum


def plan_security(params: RmsParams, network: Network) -> SecurityPlan:
    """Decide mechanisms for an ST RMS with ``params`` over ``network``."""
    properties = network.properties
    medium_private = properties.trusted or properties.link_encryption
    medium_authentic = properties.trusted or properties.link_encryption

    encrypt = params.privacy and not medium_private
    mac = params.authentication and not medium_authentic
    checksum = not properties.link_checksum and network.medium_bit_error_rate > 0.0

    return SecurityPlan(
        encrypt=encrypt,
        mac=mac,
        checksum=checksum,
        network_privacy=params.privacy and medium_private,
        network_authentication=params.authentication and medium_authentic,
    )


class SecurityContext:
    """Per-ST-RMS security state, built once at negotiation time.

    Everything a message would otherwise re-derive is hoisted to
    creation: the bound provider instance (keyed hash states derived
    once), the encoded MAC-context prefix, the wire-flag word, and the
    tag overhead.  ``_seal``/``_open``/``_mac``/``_verify`` are the
    provider's bound methods.

    On a parameter-elided channel (section 2.4: the client asked for no
    security, or the medium provides it) ``protect`` is ``None`` -- the
    send path tests a single attribute and pays zero security branches.
    The receive path is driven by the flags on the wire, so
    :meth:`unprotect` works on every channel.
    """

    __slots__ = ("plan", "key", "rms_id", "flags", "overhead", "provider",
                 "_seal", "_open", "_mac", "_verify", "_mac_prefix",
                 "protect")

    def __init__(
        self, plan: SecurityPlan, session_key: bytes, sender_label: object,
        rms_id: int,
    ) -> None:
        self.plan = plan
        self.key = session_key
        self.rms_id = rms_id
        flags = 0
        overhead = 0
        if plan.encrypt:
            flags |= FLAG_ENCRYPTED
        if plan.mac:
            flags |= FLAG_MAC
            overhead += MAC_BYTES
        if plan.checksum:
            flags |= FLAG_CHECKSUM
            overhead += _CHECKSUM_BYTES
        self.flags = flags
        self.overhead = overhead
        # Built unconditionally: a mismatched wire flag (corruption) must
        # still decrypt-attempt rather than crash the receive path.
        provider = ShakeBlake2Provider(session_key)
        self.provider = provider
        self._seal = provider.seal
        self._open = provider.open
        self._mac = provider.mac
        self._verify = provider.verify
        self._mac_prefix = (
            f"{sender_label}|".encode("utf-8") if plan.mac else b""
        )
        self.protect = self._protect if plan.any_software_mechanism else None

    def _mac_context(self, seq: int) -> bytes:
        return self._mac_prefix + str(seq).encode("utf-8")

    def _protect(
        self, seq: int, data: Union[bytes, memoryview]
    ) -> bytes:
        """Transform one outgoing component; wire flags are ``self.flags``."""
        plan = self.plan
        if plan.encrypt:
            nonce = (self.rms_id << 32) | (seq & 0xFFFFFFFF)
            data = self._seal(nonce, data)
        if plan.mac:
            tag = self._mac(data, self._mac_context(seq))
            if type(data) is bytes:
                data = data + tag
            else:
                # join reads the memoryview directly -- the only copy is
                # the one that materializes the wire bytes themselves.
                data = b"".join((data, tag))
        if plan.checksum:
            if type(data) is not bytes:
                data = bytes(data)
            data = data + _PACK_U32(crc32(data))
        return data

    def unprotect(
        self, flags: int, seq: int, data: Union[bytes, memoryview]
    ) -> Tuple[bytes, Optional[str]]:
        """Undo the transforms named by ``flags`` on one received component.

        Returns ``(payload, None)`` on success.  On a verification
        failure returns ``(rest, reason)``: ``reason`` is "checksum
        failure" or "authentication failure" and ``rest`` the bytes that
        failed, without their tag (all of them when shorter than a tag).
        """
        if type(data) is not bytes:
            data = bytes(data)
        if flags & FLAG_CHECKSUM:
            if len(data) < _CHECKSUM_BYTES:
                return data, "checksum failure"
            body, tag = data[:-_CHECKSUM_BYTES], data[-_CHECKSUM_BYTES:]
            if _PACK_U32(crc32(body)) != tag:
                return body, "checksum failure"
            data = body
        if flags & FLAG_MAC:
            if len(data) < MAC_BYTES:
                return data, "authentication failure"
            body, tag = data[:-MAC_BYTES], data[-MAC_BYTES:]
            if not self._verify(body, tag, self._mac_context(seq)):
                return body, "authentication failure"
            data = body
        if flags & FLAG_ENCRYPTED:
            nonce = (self.rms_id << 32) | (seq & 0xFFFFFFFF)
            data = self._open(nonce, data)
        return data, None
