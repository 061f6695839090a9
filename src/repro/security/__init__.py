"""Security substrate: checksums, providers, MACs, key registry.

The data-path transforms live behind the :mod:`repro.security.providers`
registry -- select one by name (``StConfig(security_provider=...)``) and
the subtransport binds its ``seal``/``open``/``mac``/``verify`` methods
at negotiation time.  The default, ``"shake-blake2"``, is the standard
library's SHAKE-128 and keyed BLAKE2b.  :mod:`repro.security.mac` (keyed
BLAKE2b under its own personalization, tagging the source label with
the message) serves the ST control channel only; new code negotiates a
provider instead of hard-wiring a transform.
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
from repro.security.providers import (
    HardwareProvider,
    NullProvider,
    SecurityProvider,
    ShakeBlake2Provider,
    provider_names,
    register_provider,
    resolve_provider,
)

__all__ = [
    "CHECKSUM_ALGORITHMS",
    "HardwareProvider",
    "KeyRegistry",
    "MAC_BYTES",
    "NullProvider",
    "SecurityProvider",
    "ShakeBlake2Provider",
    "checksum_bytes",
    "crc32",
    "fletcher16",
    "internet_checksum",
    "provider_names",
    "register_provider",
    "resolve_provider",
]
