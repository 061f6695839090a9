"""Transport protocols: RKOM request/reply, stream protocols, flow control."""

from repro.transport.flowcontrol import (
    FlowControlMode,
    RateBasedEnforcer,
    ReceiverCredit,
    WindowEnforcer,
)
from repro.transport.rkom import RkomService, RkomStats
from repro.transport.stream import (
    StreamConfig,
    StreamSession,
    StreamStats,
    open_stream,
)

__all__ = [
    "FlowControlMode",
    "RateBasedEnforcer",
    "ReceiverCredit",
    "RkomService",
    "RkomStats",
    "StreamConfig",
    "StreamSession",
    "StreamStats",
    "WindowEnforcer",
    "open_stream",
]
