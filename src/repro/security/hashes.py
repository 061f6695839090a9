"""The hash primitives keys, seeds and tags are made of.

SHA-256 (host, pair and session keys; random substream seeds), keyed
BLAKE2b (the control channel's and the data path's tags) and a
constant-time comparison come from CPython's built-in modules, not from
``hashlib``: ``import hashlib`` maps OpenSSL's ``_hashlib``, about
3.5 MB of resident memory, and a run whose streams apply no software
security never needs it (DESIGN 8.9).  The bytes are the very ones
``hashlib.sha256`` / ``hashlib.blake2b`` give (``tests/test_security.py``
holds them against ``hashlib``).  Only the data path's SHAKE-128
keystream is OpenSSL's, imported by the first provider a secured stream
keys (:mod:`repro.security.providers`).

CPython 3.12 merged ``_sha256`` into ``_sha2``; this is the one place
that knows.
"""

from __future__ import annotations

import sys

# ``hashlib.blake2b`` is this very class, and ``hmac.compare_digest``
# falls back to this function where OpenSSL is absent.
from _blake2 import blake2b
from _operator import _compare_digest as compare_digest

if sys.version_info >= (3, 12):
    from _sha2 import sha256
else:
    from _sha256 import sha256

__all__ = ["blake2b", "compare_digest", "sha256"]
