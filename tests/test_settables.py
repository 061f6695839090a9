"""Every value a user can set, pinned by name, and each one validated.

A settable survives only as an RMS parameter (section 2), a network
property (section 3.1), a section 5 design choice an experiment ablates,
or a bound one test file varies; everything else is a module constant
citing the section that fixes it.  DESIGN section 5 lists the survivors
with their reasons.  A new field or constructor argument fails here
until the change that adds it updates both the pin and that table.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import pathlib
import re

import pytest

from repro.dash.node import DashNode
from repro.dash.system import DashSystem
from repro.errors import ParameterError
from repro.netsim.internet import InternetNetwork
from repro.netsim.topology import Host
from repro.resilience.policy import ResiliencePolicy
from repro.sched.cpu import HostCpu
from repro.subtransport.config import StConfig
from repro.transport.rkom import RkomConfig
from repro.transport.stream import StreamConfig

FIELDS = {
    StConfig: (
        "piggyback_enabled", "piggyback_window_cap", "multiplexing_enabled",
        "enforce_mux_rules", "cache_enabled", "cache_size_per_peer",
        "max_message_multiple", "default_network_capacity",
        "auth_max_retries",
    ),
    RkomConfig: ("request_timeout", "max_retransmits", "backoff"),
    StreamConfig: (
        "reliable", "capacity_mode", "flow_control", "receive_buffer",
        "sender_port_limit", "use_fast_ack", "record_size",
        "retransmit_timeout", "max_retransmits", "ack_every",
        "data_capacity", "data_max_message", "data_delay_bound",
    ),
    ResiliencePolicy: (
        "max_attempts", "backoff_initial", "backoff_factor", "backoff_cap",
        "jitter",
    ),
}

PARAMETERS = {
    DashSystem: ("seed", "st_config", "cpu_policy", "observe"),
    DashNode: (
        "context", "name", "networks", "key_registry", "st_config",
        "cpu_policy",
    ),
    Host: ("context", "name", "cpu_policy"),
    HostCpu: ("context", "name", "policy", "charge_context_switches"),
}

#: Arguments that wire objects together rather than set a value.
_WIRING = {"context", "name", "networks", "key_registry"}


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
        {"retransmit_timeout": -1.0},
        {"retransmit_timeout": math.nan},
        {"retransmit_timeout": 0.0},
        {"retransmit_timeout": math.inf},
        {"max_retransmits": -1},
        {"receive_buffer": 0},
        {"sender_port_limit": 0},
    ], ids=repr)
    def test_stream_config(self, changes):
        with pytest.raises(ParameterError):
            StreamConfig(**changes)

    @pytest.mark.parametrize("changes", [
        {"piggyback_window_cap": math.nan},
        {"piggyback_window_cap": math.inf},
        {"piggyback_window_cap": -1.0},
        {"auth_max_retries": -1},
    ], ids=repr)
    def test_st_config(self, changes):
        with pytest.raises(ParameterError):
            StConfig(**changes)

    @pytest.mark.parametrize("changes", [
        {"request_timeout": -1.0},
        {"request_timeout": 0.0},
        {"request_timeout": math.nan},
        {"request_timeout": math.inf},
        {"max_retransmits": -1},
        {"backoff": 0.5},
        {"backoff": math.nan},
    ], ids=repr)
    def test_rkom_config(self, changes):
        with pytest.raises(ParameterError):
            RkomConfig(**changes)

    def test_boundary_values_accepted(self):
        StreamConfig(max_retransmits=0, receive_buffer=1, sender_port_limit=1,
                     retransmit_timeout=1e-3)
        StConfig(piggyback_window_cap=0.0, auth_max_retries=0)
        RkomConfig(max_retransmits=0, backoff=1.0)
