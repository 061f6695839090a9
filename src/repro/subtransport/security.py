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
ShakeBlake2Provider`'s; :class:`SecurityContext` keys one per ST RMS
that needs one and binds the plan's transform and its undo for the data
path.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Tuple, Union
from zlib import crc32

from repro.core.params import RmsParams
from repro.netsim.network import Network
from repro.security.mac import MAC_BYTES
from repro.security.providers import ShakeBlake2Provider
from repro.subtransport.wire import FLAG_CHECKSUM, FLAG_ENCRYPTED, FLAG_MAC

__all__ = ["SecurityContext", "SecurityPlan", "plan_security"]

_CHECKSUM_BYTES = 4
_PACK_U32 = struct.Struct(">I").pack
#: The subheader fields a component's MAC covers, in their wire
#: encoding: seq(4) send_time(8) frag_offset(4) frag_total(4).
_PACK_MAC_FIELDS = struct.Struct(">IdII").pack
#: What the software checksum covers ahead of the data: the stream id,
#: which no key binds on a checksum-only stream, then the MAC's fields.
#: A bit error in any field the receiver acts on is then a checksum
#: failure, never a wrong sequence number, time or fragment position.
_PACK_CHECKSUM_FIELDS = struct.Struct(">IIdII").pack


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

    Both directions run the stream's plan and nothing else, bound here
    once: ``protect(seq, data, send_time, frag_offset, frag_total)`` on
    the sender and ``unprotect`` with the same arguments on the
    receiver, both ``None`` on a channel with no software mechanism
    (section 2.4: the client asked for no security, or the medium
    provides it), which builds no provider either.  ``flags`` is the
    plan's wire-flag word: the flags on the wire are not authenticated,
    so the receiver checks them against it and never reads from them
    what to undo.

    The MAC of a component covers its ciphertext, the sender's label and
    every subheader field the receiver acts on: the sequence number, the
    send time and the fragment offset and total.  The stream id needs no
    cover, the key is the stream's own.
    """

    __slots__ = ("plan", "rms_id", "flags", "overhead", "provider",
                 "_seal", "_open", "_mac", "_verify", "_mac_prefix",
                 "protect", "unprotect")

    def __init__(
        self, plan: SecurityPlan, session_key: bytes, sender_label: object,
        rms_id: int,
    ) -> None:
        self.plan = plan
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
        self.provider = None
        if plan.encrypt or plan.mac:
            provider = ShakeBlake2Provider(session_key)
            self.provider = provider
            self._seal = provider.seal
            self._open = provider.open
            self._mac = provider.mac
            self._verify = provider.verify
        self._mac_prefix = f"{sender_label}|".encode("utf-8")
        if plan.any_software_mechanism:
            self.protect = self._protect
            self.unprotect = self._unprotect
        else:
            self.protect = self.unprotect = None

    def _protect(
        self, seq: int, data: Union[bytes, memoryview], send_time: float,
        frag_offset: int, frag_total: int,
    ) -> bytes:
        """Transform one outgoing component; wire flags are ``self.flags``."""
        plan = self.plan
        if plan.encrypt:
            nonce = (self.rms_id << 32) | (seq & 0xFFFFFFFF)
            data = self._seal(nonce, data)
        if plan.mac:
            tag = self._mac(data, self._mac_prefix + _PACK_MAC_FIELDS(
                seq, send_time, frag_offset, frag_total))
            if type(data) is bytes:
                data = data + tag
            else:
                # join reads the memoryview directly -- the only copy is
                # the one that materializes the wire bytes themselves.
                data = b"".join((data, tag))
        if plan.checksum:
            if type(data) is not bytes:
                data = bytes(data)
            data = data + _PACK_U32(crc32(_PACK_CHECKSUM_FIELDS(
                self.rms_id, seq, send_time, frag_offset, frag_total) + data))
        return data

    def _unprotect(
        self, seq: int, data: Union[bytes, memoryview], send_time: float,
        frag_offset: int, frag_total: int,
    ) -> Tuple[bytes, Optional[str]]:
        """Undo the plan's transforms on one received component.

        Returns ``(payload, None)`` on success.  On a verification
        failure returns ``(rest, reason)``: ``reason`` is "checksum
        failure" or "authentication failure" and ``rest`` the bytes that
        failed, without their tag (all of them when shorter than a tag).
        """
        if type(data) is not bytes:
            data = bytes(data)
        plan = self.plan
        if plan.checksum:
            if len(data) < _CHECKSUM_BYTES:
                return data, "checksum failure"
            body, tag = data[:-_CHECKSUM_BYTES], data[-_CHECKSUM_BYTES:]
            if _PACK_U32(crc32(_PACK_CHECKSUM_FIELDS(
                    self.rms_id, seq, send_time, frag_offset, frag_total)
                    + body)) != tag:
                return body, "checksum failure"
            data = body
        if plan.mac:
            if len(data) < MAC_BYTES:
                return data, "authentication failure"
            body, tag = data[:-MAC_BYTES], data[-MAC_BYTES:]
            context = self._mac_prefix + _PACK_MAC_FIELDS(
                seq, send_time, frag_offset, frag_total)
            if not self._verify(body, tag, context):
                return body, "authentication failure"
            data = body
        if plan.encrypt:
            nonce = (self.rms_id << 32) | (seq & 0xFFFFFFFF)
            data = self._open(nonce, data)
        return data, None
