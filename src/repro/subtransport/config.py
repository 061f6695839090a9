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

__all__ = ["DEFAULT_CONFIG", "STAGE_ALLOWANCE", "StConfig", "network_bounds",
           "receive_terms", "send_terms", "st_best_delay"]

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


def send_terms(
    st_bound: DelayBound, network_bound: DelayBound
) -> Tuple[float, float, float, float, float, float]:
    """A stream's send-stage terms ``(deadline, st_a, st_b, net_a, net_b,
    reserve)`` (4.3.1).  A ``size``-byte message's send stage must finish
    ``deadline`` after its arrival, and the message may wait for
    transmission ``(st_a + st_b * size) - (net_a + net_b * size) -
    reserve`` after it, floored at 0: the slack of the ST bound over the
    network's and both stages, which the ST computes per message in that
    float order.  Without a bound (either one unbounded: an infinite
    ``a``) the terms make the slack exactly a generous 1 s, so bounded
    traffic outranks it."""
    if math.isinf(st_bound.a) or math.isinf(network_bound.a):
        return STAGE_ALLOWANCE, 1.0, 0.0, 0.0, 0.0, 0.0
    return (STAGE_ALLOWANCE, st_bound.a, st_bound.b, network_bound.a,
            network_bound.b, STAGE_ALLOWANCE + STAGE_ALLOWANCE)


def receive_terms(st_bound: DelayBound) -> Tuple[float, float, bool]:
    """A stream's receive-stage terms ``(a, b, after_receipt)``: a
    ``size``-byte message's receive stage must finish ``a + b * size``
    after it was sent -- the whole ST bound -- or, on an unbounded
    stream, one stage allowance after it was received."""
    if math.isinf(st_bound.a):
        return STAGE_ALLOWANCE, 0.0, True
    return st_bound.a, st_bound.b, False


@dataclass(frozen=True)
class StConfig:
    """Tunable behaviour of one host's subtransport layer.  Frozen, so
    every layer built without one shares :data:`DEFAULT_CONFIG`."""

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


#: The configuration of every layer built without one.
DEFAULT_CONFIG = StConfig()
