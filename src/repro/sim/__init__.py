"""Discrete-event simulation substrate for the DASH/RMS reproduction."""

from repro.sim.context import SimContext
from repro.sim.events import EventHandle, EventLoop, Signal
from repro.sim.ports import FlowControlledPort, Port
from repro.sim.process import Future, Process
from repro.sim.rng import RandomStreams

__all__ = [
    "EventHandle",
    "EventLoop",
    "FlowControlledPort",
    "Future",
    "Port",
    "Process",
    "RandomStreams",
    "Signal",
    "SimContext",
]
