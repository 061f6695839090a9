"""Security substrate: checksums, providers, MACs, key registry.

The data-path transforms live behind the :mod:`repro.security.providers`
registry -- select one by name (``StConfig(security_provider=...)``) and
the subtransport binds its ``keystream``/``seal``/``open``/``mac``
methods at negotiation time.  The low-level primitives live in
:mod:`repro.security.cipher` and :mod:`repro.security.mac`, for the
reference/oracle implementations and the control channel; new code
negotiates a provider instead of hard-wiring a transform.
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
    XteaScalarProvider,
    XteaVectorProvider,
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
    "XteaScalarProvider",
    "XteaVectorProvider",
    "checksum_bytes",
    "crc32",
    "fletcher16",
    "internet_checksum",
    "provider_names",
    "register_provider",
    "resolve_provider",
]
