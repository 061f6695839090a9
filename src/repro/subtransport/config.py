"""Subtransport layer configuration.

A field here is one of the section 5 design choices an experiment
ablates -- piggybacking (E4), network-RMS caching and multiplexing (E7),
multiplexing-rule enforcement (E14); DESIGN 5 lists each with its
reason.  Every other value is a module constant beside the code that
reads it: the per-stage CPU allowance here, the ST's message-size
multiple in :mod:`repro.subtransport.st`, the network-RMS cache size
and capacity in :mod:`repro.subtransport.binding`, the control
channel's parameters and retry schedule in
:mod:`repro.subtransport.control`.

This module is also the one home of section 4.1's division of an ST RMS
delay bound ("when an upper-level RMS is created, its total delay is
divided among its various stages"): the send stage, the network RMS and
the receive stage.  The functions below take bounds and return the
divided quantity; the ST resolves them per stream or per message size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.core.params import DelayBound
from repro.errors import ParameterError

__all__ = ["STAGE_ALLOWANCE", "StConfig", "network_bounds", "receive_deadline",
           "send_deadlines", "st_best_delay"]

#: CPU-time allowance reserved out of an ST RMS delay bound for each of
#: the two protocol stages, send and receive.
STAGE_ALLOWANCE = 2e-3


def st_best_delay(network_best: DelayBound) -> DelayBound:
    """The best bound the ST offers over a network's best bound: the
    network's plus both stage allowances (the capability table, 3.1)."""
    return DelayBound(
        network_best.a + STAGE_ALLOWANCE + STAGE_ALLOWANCE, network_best.b
    )


def network_bounds(
    st_bound: DelayBound, guaranteed: bool
) -> Tuple[DelayBound, DelayBound]:
    """The desired and acceptable network bounds under an ST bound (4.2).

    The network gets what both stages leave (at least 1 us of the fixed
    term).  Guaranteed streams desire all of it, the loosest legal bound,
    which keeps the worst-case reservation small; best-effort streams
    desire half and leave the rest as piggybacking window (4.3.1).
    """
    if st_bound.is_unbounded:
        return DelayBound.unbounded(), DelayBound.unbounded()
    budget = max(st_bound.a - (STAGE_ALLOWANCE + STAGE_ALLOWANCE), 1e-6)
    acceptable = DelayBound(budget, st_bound.b)
    if guaranteed:
        return acceptable, acceptable
    return DelayBound(budget * 0.5, st_bound.b), acceptable


def send_deadlines(
    st_bound: DelayBound, network_bound: DelayBound, size: int
) -> Tuple[float, float]:
    """How long after a ``size``-byte message's arrival its send stage
    must finish, and how long it may wait for transmission: the slack of
    the ST bound over the network's and both stages (4.3.1).  Without a
    bound (an unbounded bound is infinite at every size) the slack is a
    generous 1 s, so bounded traffic outranks it."""
    st, network = st_bound.bound_for(size), network_bound.bound_for(size)
    if math.isinf(st) or math.isinf(network):
        return STAGE_ALLOWANCE, 1.0
    slack = st - network - (STAGE_ALLOWANCE + STAGE_ALLOWANCE)
    return STAGE_ALLOWANCE, max(slack, 0.0)


def receive_deadline(st_bound: DelayBound, size: int) -> Tuple[float, bool]:
    """When a ``size``-byte message's receive stage must finish: the
    whole ST bound after it was sent, or, on an unbounded stream, one
    stage allowance after it was received.  Returns the offset and
    whether it counts from receipt."""
    bound = st_bound.bound_for(size)
    if math.isinf(bound):
        return STAGE_ALLOWANCE, True
    return bound, False


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

    def __post_init__(self) -> None:
        if not 0.0 <= self.piggyback_window_cap < math.inf:
            raise ParameterError("piggyback_window_cap must be finite and >= 0")
