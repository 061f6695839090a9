"""Security substrate: checksums, providers, MACs, key registry.

The data-path transform is :class:`ShakeBlake2Provider` (the standard
library's SHAKE-128 and keyed BLAKE2b); each ST RMS keys one and binds
its ``seal``/``open``/``mac``/``verify`` methods at negotiation time.
:mod:`repro.security.mac` (keyed BLAKE2b under its own personalization,
tagging the source label with the message) serves the ST control
channel only.
"""

from repro.security.checksum import (
    CHECKSUM_ALGORITHMS,
    checksum_bytes,
    crc32,
    fletcher16,
    internet_checksum,
)
from repro.security.keys import KeyRegistry
from repro.security.mac import MAC_BYTES
from repro.security.providers import ShakeBlake2Provider

__all__ = [
    "CHECKSUM_ALGORITHMS",
    "KeyRegistry",
    "MAC_BYTES",
    "ShakeBlake2Provider",
    "checksum_bytes",
    "crc32",
    "fletcher16",
    "internet_checksum",
]
