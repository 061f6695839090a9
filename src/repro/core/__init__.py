"""The paper's primary contribution: Real-Time Message Streams."""

from repro.core.message import Label, Message
from repro.core.negotiation import (
    CapabilityTable,
    PerformanceLimits,
    combo_key,
    negotiate,
)
from repro.core.params import (
    UNBOUNDED_DELAY,
    DelayBound,
    DelayBoundType,
    RmsParams,
    StatisticalSpec,
    is_compatible,
)
from repro.core.rms import Rms, RmsLevel, RmsState, RmsStats

__all__ = [
    "CapabilityTable",
    "DelayBound",
    "DelayBoundType",
    "Label",
    "Message",
    "PerformanceLimits",
    "Rms",
    "RmsLevel",
    "RmsParams",
    "RmsState",
    "RmsStats",
    "StatisticalSpec",
    "UNBOUNDED_DELAY",
    "combo_key",
    "is_compatible",
    "negotiate",
]
