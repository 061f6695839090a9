"""Security substrate: providers, MACs, key registry.

The ST's software checksum is ``zlib``'s CRC-32
(:mod:`repro.subtransport.security`).  The data-path transform is
:class:`ShakeBlake2Provider` (OpenSSL's SHAKE-128 and the built-in keyed
BLAKE2b); each ST RMS keys one and binds its
``seal``/``open``/``mac``/``verify`` methods at negotiation time.
:mod:`repro.security.mac` (keyed BLAKE2b under its own
personalization, tagging the source label with the message) serves the
ST control channel only.  Keys, seeds and control tags use CPython's
built-in hashes (:mod:`repro.security.hashes`); only the first keyed
provider imports ``hashlib`` and so maps OpenSSL.
"""

from repro.security.keys import KeyRegistry
from repro.security.mac import MAC_BYTES
from repro.security.providers import ShakeBlake2Provider

__all__ = [
    "KeyRegistry",
    "MAC_BYTES",
    "ShakeBlake2Provider",
]
