"""Every value a user can set, pinned by name, and each one validated.

A settable survives only as an RMS parameter (section 2), a network
property (section 3.1), a section 5 design choice an experiment
ablates, or a value an experiment, an example or a workload sets to
more than one value; a test setting it does not count.  Everything else
is a module constant citing the section that fixes it, which a test
varies with ``monkeypatch.setattr``.  DESIGN section 5 lists the
survivors with their reasons.  A new field or constructor argument
fails here until the change that adds it updates both the pin and that
table.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import pathlib
import re

import pytest

from repro.apps.media import VoiceCall
from repro.apps.rpcload import RpcWorkload
from repro.apps.window import WindowSystemWorkload
from repro.baselines.rpc import DatagramRpc
from repro.baselines.tcp import TcpConfig
from repro.core.negotiation import PerformanceLimits
from repro.dash.node import DashNode
from repro.dash.system import DashSystem
from repro.errors import ParameterError
from repro.netsim.admission import AdmissionController
from repro.netsim.internet import InternetNetwork
from repro.netsim.topology import Host
from repro.obs import Observability
from repro.obs.linkutil import LinkUtilizationCollector
from repro.obs.spans import SpanTracer
from repro.sched.cpu import HostCpu
from repro.security.keys import KeyRegistry
from repro.sim.context import SimContext
from repro.sim.events import EventLoop
from repro.subtransport.config import StConfig
from repro.transport.rkom import RkomService
from repro.transport.stream import StreamConfig

FIELDS = {
    StConfig: (
        "piggyback_enabled", "piggyback_window_cap", "multiplexing_enabled",
        "enforce_mux_rules", "cache_enabled",
    ),
    StreamConfig: (
        "reliable", "flow_control", "receive_buffer", "sender_port_limit",
        "record_size", "ack_every",
    ),
    TcpConfig: ("mss", "retransmit_timeout"),
    PerformanceLimits: (
        "best_delay", "max_capacity", "max_message_size",
        "floor_bit_error_rate", "strongest_type",
    ),
}

PARAMETERS = {
    DashSystem: ("seed", "st_config", "cpu_policy", "observe"),
    DashNode: (
        "context", "name", "networks", "key_registry", "st_config",
        "cpu_policy",
    ),
    Host: ("context", "name", "cpu_policy"),
    HostCpu: ("context", "name", "policy"),
    SimContext: ("seed", "observe"),
    EventLoop: (),
    KeyRegistry: (),
    Observability: ("loop",),
    SpanTracer: ("loop",),
    LinkUtilizationCollector: ("network",),
    AdmissionController: ("total_bandwidth", "total_buffer_bytes"),
    RkomService: ("context", "st"),
    DatagramRpc: ("context", "dgram"),
    VoiceCall: ("context", "rms", "duration"),
    RpcWorkload: (
        "context", "service", "peer_host", "calls_per_client", "think_time",
    ),
    WindowSystemWorkload: ("context", "event_rms", "graphics_rms", "duration"),
}

#: Arguments that wire objects together rather than set a value.
_WIRING = {
    "context", "name", "networks", "key_registry", "loop", "network", "st",
    "dgram", "rms", "event_rms", "graphics_rms", "service", "peer_host",
}


def _design_section_5_code() -> str:
    """The code spans of DESIGN section 5, one per line."""
    text = (pathlib.Path(__file__).resolve().parents[1] / "DESIGN.md").read_text()
    match = re.search(r"^## 5\..*?(?=^## 6\.)", text, re.M | re.S)
    assert match, "DESIGN.md has no section 5"
    return "\n".join(re.findall(r"`([^`]+)`", match.group(0)))


class TestPinnedKnobs:
    @pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
    def test_config_fields(self, cls):
        assert tuple(f.name for f in dataclasses.fields(cls)) == FIELDS[cls]

    @pytest.mark.parametrize("cls", list(PARAMETERS), ids=lambda c: c.__name__)
    def test_constructor_parameters(self, cls):
        names = tuple(inspect.signature(cls).parameters)
        assert names == PARAMETERS[cls]

    def test_design_lists_every_settable(self):
        code = _design_section_5_code()
        settables = [(cls, name) for cls, names in FIELDS.items()
                     for name in names]
        settables += [(cls, name) for cls, names in PARAMETERS.items()
                      for name in names if name not in _WIRING]
        missing = [f"{cls.__name__}.{name}" for cls, name in settables
                   if not re.search(rf"\b{name}\b", code)]
        assert not missing, f"DESIGN section 5 does not list {missing}"

    def test_one_module_divides_the_delay_bound(self):
        # Section 4.1's division of an ST bound among its stages lives
        # in subtransport/config.py alone; the ST resolves its results.
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        users = sorted(path.relative_to(src / "repro").as_posix()
                       for path in src.rglob("*.py")
                       if "STAGE_ALLOWANCE" in path.read_text())
        assert users == ["subtransport/config.py"]

    def test_no_quench_threshold(self):
        # E11's source quench fires on every buffer overrun; a threshold
        # was stored and read by nothing.
        assert "quench_threshold" not in inspect.signature(
            InternetNetwork).parameters
        assert "source_quench" in inspect.signature(InternetNetwork).parameters


class TestRejectedAtConstruction:
    """A bad value raises where it is written, not at the first send."""

    @pytest.mark.parametrize("changes", [
        {"receive_buffer": 0},
        {"sender_port_limit": 0},
        {"record_size": 0},
    ], ids=repr)
    def test_stream_config(self, changes):
        with pytest.raises(ParameterError):
            StreamConfig(**changes)

    @pytest.mark.parametrize("changes", [
        {"piggyback_window_cap": math.nan},
        {"piggyback_window_cap": math.inf},
        {"piggyback_window_cap": -1.0},
    ], ids=repr)
    def test_st_config(self, changes):
        with pytest.raises(ParameterError):
            StConfig(**changes)

    def test_boundary_values_accepted(self):
        StreamConfig(receive_buffer=1, sender_port_limit=1)
        StConfig(piggyback_window_cap=0.0)
