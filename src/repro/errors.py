"""Exception hierarchy for the DASH/RMS reproduction.

Every error raised by the library derives from :class:`ReproError` so that
clients can catch library failures without catching unrelated bugs.  The
sub-hierarchy mirrors the paper's separation between the simulation
substrate, the RMS abstraction itself, and the layered providers.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """A misuse or internal failure of the discrete-event simulator."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or on a stopped event loop."""


class ProcessError(SimulationError):
    """A simulated process was driven incorrectly (e.g. resumed twice)."""


class RmsError(ReproError):
    """Base class for errors of the RMS abstraction (section 2)."""


class ParameterError(RmsError):
    """An RMS parameter set is malformed (section 2.1-2.3)."""


class NegotiationError(RmsError):
    """No compatible parameter set exists for a creation request (2.4)."""


class AdmissionError(RmsError):
    """The provider rejected an RMS creation request (section 2.3).

    Deterministic requests are rejected when worst-case demands cannot be
    met with free resources; statistical requests when the expected delay
    or error rate would be exceeded.  Best-effort requests are never
    rejected, so this error never applies to them.
    """


class RmsFailedError(RmsError):
    """The RMS has failed; clients are notified per basic property (3)."""


class CapacityError(RmsError):
    """A client violated the RMS capacity or maximum-message-size rule.

    The paper makes capacity enforcement a *client* responsibility
    (section 4.4); providers raise this only on hard, checkable limits
    such as the maximum message size.
    """


class MessageTooLargeError(CapacityError):
    """A message exceeded the RMS maximum message size (section 2.2)."""


class SecurityError(ReproError):
    """Authentication or privacy machinery failed (section 2.1)."""


class AuthenticationError(SecurityError):
    """Peer authentication on the ST control channel failed (3.2)."""


class TransportError(ReproError):
    """A transport-protocol failure (RKOM or stream protocols, 3.3)."""


class RkomTimeoutError(TransportError):
    """An RKOM request exhausted its retransmissions without a reply."""


class RkomRefusedError(TransportError):
    """The server held as many of this host's requests as it answers
    retransmissions of, and refused the call without running it (3.3)."""


class NetworkError(ReproError):
    """A failure inside the simulated network substrate (3.1)."""


class RoutingError(NetworkError):
    """No route exists between two hosts of an internetwork."""
