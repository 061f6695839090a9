"""Reproduction of D. P. Anderson, *A Software Architecture for Network
Communication* (UC Berkeley TR, 1987 / ICDCS 1988).

The package implements the paper's Real-Time Message Stream (RMS)
abstraction and the DASH communication architecture built on it, over a
from-scratch discrete-event network simulator:

- :mod:`repro.core` -- RMS parameters, negotiation, the RMS base classes;
- :mod:`repro.sim` -- the discrete-event substrate;
- :mod:`repro.sched` -- deadline-based CPU and interface scheduling;
- :mod:`repro.security` -- the software checksum, transform providers,
  MACs, keys;
- :mod:`repro.netsim` -- simulated Ethernet/internetwork with admission
  control and network-level RMS;
- :mod:`repro.subtransport` -- the ST layer: control channel, caching,
  multiplexing, piggybacking, fragmentation, security elision;
- :mod:`repro.transport` -- RKOM request/reply, stream protocols, flow
  control (section 3.4's sub-user and user RMS levels are out of scope:
  the ST's own CPU stages carry the section 4.1 deadlines);
- :mod:`repro.baselines` -- datagrams, TCP-like stream, datagram RPC;
- :mod:`repro.apps` -- voice/window/RPC workloads;
- :mod:`repro.obs` -- the one recorder (``observe=True``: metrics registry
  and message spans) plus summary statistics and table rendering;
- :mod:`repro.resilience` -- supervised sessions: retry, failover,
  parameter degradation;
- :mod:`repro.dash` -- whole-system assembly.

Quickstart::

    from repro import DashSystem

    system = DashSystem(seed=1)
    system.add_ethernet(trusted=True)
    a = system.add_node("a")
    b = system.add_node("b")
    session = system.connect(a, b, port="app")
    system.run(until=1.0)
    session.port.set_handler(lambda m: print("got", m.size, "bytes"))
    session.send(b"hello DASH")
    system.run(until=2.0)

Pass ``resilience=True`` to :meth:`DashSystem.connect` to
put the session under supervision: automatic re-establishment with
jittered backoff, failover across attached networks, and parameter
degradation toward the acceptable floor (paper section 2.4).
"""

from repro.core import (
    DelayBound,
    DelayBoundType,
    Label,
    Message,
    Rms,
    RmsLevel,
    RmsParams,
    StatisticalSpec,
    is_compatible,
    negotiate,
)
from repro.dash import DashNode, DashSystem
from repro.errors import (
    AdmissionError,
    NegotiationError,
    ReproError,
    RmsError,
    RmsFailedError,
)
from repro.netsim import ChaosSchedule
from repro.resilience import (
    Session,
    SessionState,
)
from repro.sim import SimContext
from repro.subtransport import StConfig, SubtransportLayer
from repro.transport import (
    FlowControlMode,
    RkomService,
    StreamConfig,
    open_stream,
)

__version__ = "1.0.0"

__all__ = [
    "AdmissionError",
    "DashNode",
    "DashSystem",
    "DelayBound",
    "DelayBoundType",
    "FlowControlMode",
    "Label",
    "Message",
    "NegotiationError",
    "ReproError",
    "Rms",
    "RmsError",
    "RmsFailedError",
    "RmsLevel",
    "RmsParams",
    "RkomService",
    "ChaosSchedule",
    "Session",
    "SessionState",
    "SimContext",
    "StConfig",
    "StatisticalSpec",
    "StreamConfig",
    "SubtransportLayer",
    "open_stream",
    "__version__",
    "is_compatible",
    "negotiate",
]
