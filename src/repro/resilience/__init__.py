"""Resilience: session establishment, failover, and degradation.

The paper's basic RMS property 3 only promises that "clients are
notified of an RMS failure" (section 2.1).  This subsystem turns that
notification into recovery: one establishment loop keeps an ST RMS, a
stream or an RKOM channel up, and a resilient session retries
establishment with jittered exponential backoff
(:mod:`repro.resilience.policy`), fails over to an alternate attached
network when the node is multi-homed, and gracefully
degrades the requested parameter set from desired toward acceptable
(the section 2.4 compatibility rules) when the surviving network cannot
carry the original request.  Transitions surface through ``Session.on_state_change``,
``obs`` span events on the ``resilience`` layer, and
``SessionStats.transitions`` (the ``rms_failovers_total`` metric family).
"""

from repro.resilience.policy import degradation_ladder
from repro.resilience.session import (
    RkomSession,
    Session,
    SessionState,
    StSession,
    TransportSession,
)

__all__ = [
    "RkomSession",
    "Session",
    "SessionState",
    "StSession",
    "TransportSession",
    "degradation_ladder",
]
