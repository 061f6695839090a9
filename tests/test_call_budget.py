"""The perf gate (`benchmarks/call_budget.py`) against `BUDGET.json`.

Frames, events, work items, timer fires and routing work per message are
exact on one CPython minor version, so every count is held to this
interpreter's section of the committed budget, up and down.  A fresh
process records the counts into a copy of the budget: the copy must
come back byte-identical.  How the budgeted figures moved over time is
in DESIGN.md section 8.6.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "call_budget.py"
spec = importlib.util.spec_from_file_location("call_budget", SCRIPT)
call_budget = importlib.util.module_from_spec(spec)
spec.loader.exec_module(call_budget)


@pytest.fixture(scope="module")
def recorded(tmp_path_factory) -> Path:
    """A copy of the committed budget with this interpreter's section
    re-recorded by a fresh process."""
    if call_budget.VERSION not in call_budget.load():
        pytest.skip(f"BUDGET.json has no section for CPython {call_budget.VERSION}")
    path = tmp_path_factory.mktemp("budget") / "BUDGET.json"
    shutil.copy(call_budget.BUDGET, path)
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "--record", "--budget", str(path)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return path


@pytest.fixture(scope="module")
def budget(recorded) -> dict:
    return call_budget.load()[call_budget.VERSION]


@pytest.fixture(scope="module")
def counts(recorded) -> dict:
    return call_budget.load(str(recorded))[call_budget.VERSION]


def frames(scenario: dict, layer: str = "") -> int:
    """Frames of ``layer`` (all layers when empty)."""
    return sum(value for key, value in scenario.items()
               if key.endswith(" frames") and key.startswith(layer))


@pytest.fixture(scope="module")
def burst():
    return call_budget.run_workload("lan_small_burst")


@pytest.fixture(scope="module")
def rkom():
    return call_budget.run_workload("lan_rkom_closed")


def test_every_count_matches_the_budget(recorded, budget, counts):
    assert call_budget.differences(budget, counts) == []
    assert recorded.read_bytes() == Path(call_budget.BUDGET).read_bytes()
    assert set(counts) == {name for name, _unit, _run in call_budget.SCENARIOS}


@pytest.mark.parametrize("delta", [1, -1], ids=["raised", "lowered"])
def test_check_fails_on_a_count_raised_or_lowered(tmp_path, counts, delta):
    budget = call_budget.load()
    budget[call_budget.VERSION]["grid_static"]["netsim.link frames"] += delta
    path = tmp_path / "BUDGET.json"
    path.write_text(json.dumps(budget))
    committed = counts["grid_static"]["netsim.link frames"]
    assert call_budget.check(str(path), counts) == [
        f"grid_static netsim.link frames: budget {committed + delta}, "
        f"measured {committed} ({-delta:+d})"
    ]


def test_every_workload_has_per_layer_rows(budget):
    for name in call_budget.WORKLOADS:
        scenario = budget[name]
        assert scenario["messages"] > 0
        for layer in ("sim.events", "sched.cpu", "netsim.link", "core.rms"):
            assert scenario[f"{layer} frames"] > 0, (name, layer)
    assert budget["lan_secured_bulk"]["security frames"] > 0
    assert "security frames" not in budget["lan_small_burst"]


def test_flap_does_the_same_routing_work_for_fewer_frames(budget, counts):
    churn, pinned = counts["grid_churn"], budget["grid_churn"]
    assert churn["flaps"] == 1
    for name in call_budget.ENGINE_COUNTS:
        assert churn[f"netsim.routing {name}"] == pinned[f"netsim.routing {name}"]
    assert churn["netsim.routing table_builds"] >= churn["netsim.routing searches"]
    # The read path: a fixed topology searches nothing after warm-up.
    static = counts["grid_static"]
    assert all(static[f"netsim.routing {name}"] == 0
               for name in call_budget.ENGINE_COUNTS)
    assert frames(churn) == frames(pinned)


def test_a_reachability_sweep_searches_nothing():
    workload = call_budget.workload("grid_churn")  # tables and plans cached
    engine = workload.network._engine
    for up in (False, True):
        workload._set_trunk(*workload.trunks[0], up)
        before = (engine.searches, engine.table_builds)
        workload._sweep()
        assert (engine.searches, engine.table_builds) == before
    assert len(workload.probes) == 1728 and not workload.tally.errors


def test_total_frames_and_control_messages_per_recovery(budget, counts):
    recover = counts["recover"]
    assert recover["messages"] == call_budget.ROUNDS
    # st_create + st_accept per recovery
    assert recover["subtransport.st_send control_messages"] == 2 * recover["messages"]
    assert frames(recover) == frames(budget["recover"])


@pytest.mark.parametrize("trusted", [False, True], ids=["untrusted", "trusted"])
def test_total_frames_and_control_messages_per_established_stream(
        budget, counts, trusted):
    name = "setup_trusted" if trusted else "setup_untrusted"
    result = counts[name]
    assert result["messages"] == call_budget.ROUNDS
    # handshake (6) + st_create + st_accept, or the last two alone
    assert result["subtransport.st_send control_messages"] == (
        result["messages"] * (2 if trusted else 8))
    assert frames(result) == frames(budget[name])


def test_scenarios_deliver_everything(counts):
    burst, rkom = counts["lan_small_burst"], counts["lan_rkom_closed"]
    sends = call_budget.WORKLOADS["lan_small_burst"]
    calls = call_budget.WORKLOADS["lan_rkom_closed"]
    assert burst["messages"] == sends.quick_prefix_rounds * sends.burst
    assert rkom["messages"] == calls.quick_prefix_rounds * calls.calls_per_round
    assert burst["sched.cpu items"] == 2 * burst["messages"]  # send + receive
    assert rkom["sched.cpu items"] == 6 * rkom["messages"]  # request, reply, ack


def test_sched_frames_per_work_item_on_a_busy_cpu(counts):
    for name in ("lan_small_burst", "lan_rkom_closed"):
        scenario = counts[name]
        assert frames(scenario, "sched.cpu") == 2 * scenario["sched.cpu items"]


def test_piggyback_frames_per_component(budget, counts):
    rkom = counts["lan_rkom_closed"]
    piggyback = "subtransport.piggyback"
    assert frames(rkom, piggyback) <= 4.5 * rkom[f"{piggyback} components"]
    assert frames(rkom, piggyback) == frames(budget["lan_rkom_closed"], piggyback)


def test_total_frames_per_rkom_call(budget, counts):
    rkom, pinned = counts["lan_rkom_closed"], budget["lan_rkom_closed"]
    assert frames(rkom) == frames(pinned)
    assert frames(rkom, "transport.rkom") == 10 * rkom["messages"]


def test_total_frames_per_burst_message(budget, counts):
    assert frames(counts["lan_small_burst"]) == frames(budget["lan_small_burst"])


@pytest.mark.parametrize("gate", ["ack"])
def test_total_frames_per_stream_message(budget, counts, gate):
    # The acknowledgement window is a stream's one capacity gate.
    name = f"stream_{gate}"
    assert counts[name]["messages"] == call_budget.ROUNDS * call_budget.BURST
    assert frames(counts[name]) == frames(budget[name])


def test_observed_frames_per_burst_message_and_per_rkom_call(budget, counts):
    for name in ("lan_small_burst", "lan_rkom_closed"):
        plain, observed = counts[name], counts[f"observed_{name}"]
        # Observation records; it does not change what runs.
        assert {key: value for key, value in observed.items()
                if not key.endswith(" frames")} == {
            key: value for key, value in plain.items()
            if not key.endswith(" frames")}
        assert frames(observed) > frames(plain)
        assert frames(observed) == frames(budget[f"observed_{name}"])


def test_two_fresh_systems_count_the_same(burst, rkom):
    assert call_budget.run_workload("lan_small_burst")["counts"] == burst["counts"]
    assert call_budget.run_workload("lan_rkom_closed")["counts"] == rkom["counts"]


def test_table_names_every_module(rkom):
    text = call_budget.table("lan_rkom_closed", "message", rkom, modules=True)
    assert "repro.sched.cpu" in text and "TOTAL" in text
    assert "sched.cpu" in text.split("TOTAL")[0]
