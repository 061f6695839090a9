"""Seeded random-number streams.

Every stochastic component (bit-error models, workload interarrivals,
statistical admission) draws from a named substream derived from one
master seed, so experiments are reproducible and components can be
added or removed without perturbing each other's draws.
"""

from __future__ import annotations

import random
from typing import Dict

from repro.security.hashes import sha256

__all__ = ["RandomStreams"]


class RandomStreams:
    """A factory of independent, deterministically seeded RNG streams."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """The RNG for ``name``, created on first use.

        The substream seed is a hash of the master seed and the name, so
        the draw sequence of one stream is independent of how many other
        streams exist.
        """
        if name not in self._streams:
            digest = sha256(
                f"{self.master_seed}:{name}".encode("utf-8")
            ).digest()
            self._streams[name] = random.Random(int.from_bytes(digest[:8], "big"))
        return self._streams[name]

    def __repr__(self) -> str:
        return f"<RandomStreams seed={self.master_seed} streams={len(self._streams)}>"
