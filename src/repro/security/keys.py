"""Key management for the simulated distributed system.

The paper's companion report [2] describes a secure-communication
protocol whose details this paper omits ("Details of addressing, naming,
encryption schemes ... are omitted").  We substitute a key registry: a
trusted party that derives pairwise host keys from per-host master keys.
The ST control channel uses these keys for peer authentication (3.2).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Tuple

from repro.errors import SecurityError

__all__ = ["KeyRegistry"]

#: The one realm every host enrolls in; its keys derive from this secret.
REALM_SECRET = b"dash-realm"


class KeyRegistry:
    """Derives and caches 16-byte pairwise keys for host pairs.

    The pairwise key is symmetric in the host order, so both ends derive
    the same key independently -- standing in for the key-distribution
    service of the DASH security protocol.
    """

    def __init__(self) -> None:
        self._host_keys: Dict[str, bytes] = {}
        self._pair_keys: Dict[Tuple[str, str], bytes] = {}

    def register_host(self, host: str) -> bytes:
        """Enroll a host; returns its master key."""
        if host not in self._host_keys:
            digest = hashlib.sha256(REALM_SECRET + b"/host/" + host.encode()).digest()
            self._host_keys[host] = digest[:16]
        return self._host_keys[host]

    def is_registered(self, host: str) -> bool:
        return host in self._host_keys

    def pairwise_key(self, host_a: str, host_b: str) -> bytes:
        """The shared key for a host pair; both must be enrolled."""
        for host in (host_a, host_b):
            if host not in self._host_keys:
                raise SecurityError(f"host {host!r} is not enrolled in the realm")
        pair = (min(host_a, host_b), max(host_a, host_b))
        if pair not in self._pair_keys:
            material = (
                REALM_SECRET
                + b"/pair/"
                + pair[0].encode()
                + b"|"
                + pair[1].encode()
                + self._host_keys[pair[0]]
                + self._host_keys[pair[1]]
            )
            self._pair_keys[pair] = hashlib.sha256(material).digest()[:16]
        return self._pair_keys[pair]

    def session_key(self, host_a: str, host_b: str, session_id: int) -> bytes:
        """A per-session key derived from the pairwise key."""
        base = self.pairwise_key(host_a, host_b)
        material = base + session_id.to_bytes(8, "big")
        return hashlib.sha256(material).digest()[:16]
