"""Security substrate: checksums, providers, MACs, key registry.

The data-path transforms live behind the :mod:`repro.security.providers`
registry -- select one by name (``StConfig(security_provider=...)``) and
the subtransport binds its ``keystream``/``seal``/``open``/``mac``
methods at negotiation time.  The low-level primitives (``StreamCipher``,
``xtea_encrypt_block``, ``compute_mac``, ...) still exist in their
submodules for the reference/oracle implementations and the control
channel, but importing them from this package is deprecated: new code
should negotiate a provider instead of hard-wiring a transform.
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
    "StreamCipher",
    "XteaScalarProvider",
    "XteaVectorProvider",
    "checksum_bytes",
    "compute_mac",
    "crc32",
    "fletcher16",
    "internet_checksum",
    "provider_names",
    "register_provider",
    "resolve_provider",
    "verify_mac",
    "xtea_decrypt_block",
    "xtea_encrypt_block",
]

#: Legacy direct-primitive names, still importable from this package but
#: deprecated in favour of the provider API (warn-once, via
#: :mod:`repro.dash._deprecation`).
_DEPRECATED = {
    "StreamCipher": (
        "repro.security.cipher",
        "resolve a provider instead (e.g. resolve_provider('xtea-ct-ref'))",
    ),
    "xtea_encrypt_block": (
        "repro.security.cipher",
        "import it from repro.security.cipher if you need the raw block "
        "primitive",
    ),
    "xtea_decrypt_block": (
        "repro.security.cipher",
        "import it from repro.security.cipher if you need the raw block "
        "primitive",
    ),
    "compute_mac": (
        "repro.security.mac",
        "use a provider's mac()/verify() for data-path tags, or import "
        "from repro.security.mac for the control-channel CBC-MAC",
    ),
    "verify_mac": (
        "repro.security.mac",
        "use a provider's mac()/verify() for data-path tags, or import "
        "from repro.security.mac for the control-channel CBC-MAC",
    ),
}


def __getattr__(name):  # PEP 562 module-level deprecation shims
    entry = _DEPRECATED.get(name)
    if entry is None:
        raise AttributeError(
            f"module 'repro.security' has no attribute {name!r}"
        )
    module_name, hint = entry
    # Imported lazily: the warn-once registry lives with the other
    # deprecation shims, and importing it eagerly here would make the
    # leaf security package depend on the dash facade at import time.
    from repro.dash._deprecation import warn_once

    warn_once(
        f"repro.security.{name}",
        f"importing {name} from repro.security is deprecated; {hint}",
    )
    import importlib

    return getattr(importlib.import_module(module_name), name)
