"""The DASH subtransport layer (sections 3.2 and 4)."""

from repro.subtransport.config import StConfig
from repro.subtransport.downmux import DownmuxStats, DownwardMux
from repro.subtransport.mux import MuxBinding, mux_violation
from repro.subtransport.piggyback import PiggybackQueue
from repro.subtransport.security import SecurityPlan, plan_security
from repro.subtransport.st import StStats, SubtransportLayer
from repro.subtransport.strms import StRms
from repro.subtransport.wire import (
    decode_bundle,
    decode_control,
    encode_bundle,
    encode_control,
)

__all__ = [
    "DownmuxStats",
    "DownwardMux",
    "MuxBinding",
    "PiggybackQueue",
    "SecurityPlan",
    "StConfig",
    "StRms",
    "StStats",
    "SubtransportLayer",
    "decode_bundle",
    "decode_control",
    "encode_bundle",
    "encode_control",
    "mux_violation",
    "plan_security",
]
