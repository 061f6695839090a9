"""Subtransport layer configuration knobs.

Each knob corresponds to a mechanism of sections 3.2 and 4 so the
benchmarks can ablate them individually: piggybacking (E4), network-RMS
caching (E7), multiplexing-rule enforcement (E14), fragmentation size
(E10), and the security machinery (E2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ParameterError

__all__ = ["StConfig"]


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
    #: CPU-time allowance reserved out of an ST RMS delay bound for the
    #: send-side protocol stage (section 4.1 stage division).
    send_stage_allowance: float = 2e-3
    #: Same, receive side.
    recv_stage_allowance: float = 2e-3
    #: Largest message the ST offers clients, as a multiple of the
    #: network maximum message size (section 4.3 discusses choosing it).
    max_message_multiple: int = 8
    #: Offer the fast-acknowledgement service (3.2).
    fast_ack_enabled: bool = True
    #: Skip the authentication handshake on trusted networks (3.1).
    trust_optimization: bool = True
    #: Default capacity for data network RMSs the ST creates.
    default_network_capacity: int = 64 * 1024
    #: Delay bound (seconds) requested for control-channel RMSs.
    control_delay_bound: float = 0.05
    #: Capacity of control-channel RMSs ("low capacity, low delay").
    control_capacity: int = 2048
    #: Control request/reply retransmission (the channel is best-effort).
    control_retry_timeout: float = 0.3
    control_max_retries: int = 5
    #: Authentication handshake retransmission.
    auth_retry_timeout: float = 0.3
    auth_max_retries: int = 5

    def __post_init__(self) -> None:
        if self.send_stage_allowance < 0 or self.recv_stage_allowance < 0:
            raise ParameterError("stage allowances must be >= 0")
        if self.max_message_multiple < 1:
            raise ParameterError("max_message_multiple must be >= 1")
        if self.cache_size_per_peer < 0:
            raise ParameterError("cache size must be >= 0")
        if self.control_delay_bound <= 0:
            raise ParameterError("control delay bound must be > 0")
