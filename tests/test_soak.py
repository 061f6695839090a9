"""Memory follows what is open, not what was sent (`benchmarks/soak.py`).

An RMS counts its deliveries and logs none of them, so a steady-state
block of rounds keeps next to nothing of the ``repro`` heap per message
it delivers.  A stream that failed leaves no receiver behind, and a
closed session neither its auto-named port nor itself: after trunk flaps
and re-establishment the grid holds as much per-channel state as it has
open streams.  A built grid holds a bounded heap per link and per host.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "soak.py"
spec = importlib.util.spec_from_file_location("soak", SCRIPT)
soak = importlib.util.module_from_spec(spec)
spec.loader.exec_module(soak)

FLAPS = 3


@pytest.mark.parametrize("name", ["lan_small_burst", "lan_rkom_closed"])
def test_a_steady_block_retains_nothing_per_message(name):
    state = soak.measure(name)
    assert state["messages"] > 0
    assert state["b_per_msg"] <= soak.RETAINED_BOUND, state


def test_flaps_leave_no_channel_state_behind():
    built = soak.WORKLOADS["grid_churn"](soak.SEED)
    built.build()
    built.warmup()
    for _ in range(FLAPS):
        built.round()
    built.drain()
    # Some flap took streams down and they were opened again.
    assert len(built.establish_s) > 1
    streams = len(built.streams)
    assert soak.channel_state(built) == {
        "open_st_rms": streams,
        "rx_streams": streams,
        "open_st_sessions": streams,
        "connect_ports": streams,
        "live_st_sessions": streams,
        "open_streams": 0,
        "acked_streams": 0,
        "stream_data_ports": 0,
        "stream_ack_ports": 0,
    }


def test_figure_tables_follow_the_open_terms():
    """The per-size figure tables are one per distinct set of terms the
    open channels read, however many sizes were sent, through trunk flaps
    and re-establishment."""
    built = soak.WORKLOADS["grid_churn"](soak.SEED)
    built.build()
    built.warmup()
    for _ in range(FLAPS):
        built.round()
    built.drain()
    state = soak.figure_state(built)
    assert 0 < state["figure_tables"] == state["open_terms"]
    cap = soak.sim_context.FIGURE_TABLE_CAP
    assert 0 < state["figure_entries"] <= cap * state["open_terms"]


def test_a_built_grid_holds_its_bound_per_link_and_host():
    """No per-hop closure on a route plan, no reservation object per
    best-effort RMS per hop: what the grid holds once built stays within
    the soak's bounds."""
    state = soak.build_state()
    assert state["links"] == 552 and state["hosts"] == 216
    assert soak.build_failures(state) == [], state
