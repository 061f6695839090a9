"""Subtransport layer configuration.

A field here is one of the section 5 design choices an experiment
ablates -- piggybacking (E4), network-RMS caching and multiplexing (E7),
multiplexing-rule enforcement (E14) -- or a bound one test file varies
(DESIGN 5 lists each with its reason).  What the paper fixes is a
module constant beside the code that reads it: the per-stage CPU
allowance here, the control channel's parameters and retry schedule in
:mod:`repro.subtransport.control`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ParameterError

__all__ = ["STAGE_ALLOWANCE", "StConfig"]

#: CPU-time allowance reserved out of an ST RMS delay bound for each of
#: the two protocol stages, send and receive (section 4.1: "when an
#: upper-level RMS is created, its total delay is divided among its
#: various stages").
STAGE_ALLOWANCE = 2e-3


@dataclass
class StConfig:
    """Tunable behaviour of one host's subtransport layer."""

    #: Queue client messages hoping to piggyback (section 4.3.1).
    piggyback_enabled: bool = True
    #: Cap on how long a message may wait for piggybacking companions,
    #: regardless of delay-bound slack.  The slack is an upper bound on
    #: legal queueing (4.3.1); holding messages the full slack maximizes
    #: bundling but costs latency, so the default caps the hold.
    piggyback_window_cap: float = 2e-3
    #: Upward-multiplex several ST RMSs onto one network RMS (4.2).
    multiplexing_enabled: bool = True
    #: Enforce the multiplexing legality rules of section 4.2.  Turning
    #: this off (bench E14) shows what the rules protect against.
    enforce_mux_rules: bool = True
    #: Retain data network RMSs after their last ST RMS closes (4.2).
    cache_enabled: bool = True
    #: Maximum cached data network RMSs per peer host.
    cache_size_per_peer: int = 4
    #: Largest message the ST offers clients, as a multiple of the
    #: network maximum message size (section 4.3 discusses choosing it).
    max_message_multiple: int = 8
    #: Default capacity for data network RMSs the ST creates.
    default_network_capacity: int = 64 * 1024
    #: ``auth1`` retransmissions before a handshake gives up.
    auth_max_retries: int = 5

    def __post_init__(self) -> None:
        if not 0.0 <= self.piggyback_window_cap < math.inf:
            raise ParameterError("piggyback_window_cap must be finite and >= 0")
        if self.max_message_multiple < 1:
            raise ParameterError("max_message_multiple must be >= 1")
        if self.cache_size_per_peer < 0:
            raise ParameterError("cache size must be >= 0")
        if self.auth_max_retries < 0:
            raise ParameterError("auth_max_retries must be >= 0")
