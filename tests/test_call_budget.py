"""The per-message call budget (`benchmarks/call_budget.py`), held by CI.

Python-level frames per delivered message are exact on any host, so the
"fixed price per small message" is asserted as counts, not nanoseconds
(CPython 3.11 counts; from 3.12 comprehensions are no longer frames and
the counts only fall).  The per-component budget sits between the tree
that introduced it and its parent (PR 20: 1.75 against 9.1).

Every total is the count of the tree in which a message became one plain
class with one constructor and a bundle component a plain tuple (no
``fast_message``, no ``BundleEntry`` constructor or property frames):
29.225 per burst message (31.475 before), 108.73 per RKOM call
(115.48), of which 10 in ``repro.transport.rkom`` (22 before three
``_Channel`` objects, three closures and their ``_with_channel``
dispatch per call went), 138.275 / 138.25 per message of the ``stream``
scenario (144.975 / 145.0), 1,009 / 759 per established stream on an
untrusted / trusted Ethernet (1,065 / 791), 846.5 per recovery of a
supervised ST session (882.5) and 49,424.5 per flap (50,848.5), and 3
frames of ``repro.sched`` per work item (4 with the ``WorkItem``
constructor).  A pool, a second arm or a per-send object coming back
shows here.  (History: 61 / 216 per burst message / RKOM call before
PR 20, 33.98 / 137.98 before PR 24, 33.475 / 134.48 before work items
became tuples; 1,159 / 836 per established stream when PR 22 split the
control plane out, 1,132 / 834 before PR 24 took the frame pool out.)
The ``flap`` budget is ``grid_churn``'s flap cycle: its four
forwarding-engine work counts must equal, per flap, those of the tree in
which every link state change began to drop every cached route (8.5
searches, 13 table builds, 13 table drops, 14 plan compiles).  The
three work counts are those of the tree in which ``can_reach`` began to
answer from the up-link graph's strongly connected components, where a
flap dropped only what used the flapped edge (11 scoped table drops
then).  Before that, each of a flap's two 1,728-probe sweeps built every
host's forwarding table to probe it (26 searches, 156 table builds, 156
scoped table drops).  (Its frames: 61,519 before ``_search`` walked a
compiled neighbour view, 52,627 after it took the ``Link.is_up``
property frames out of the search's edge tests, 51,827 once work items
were tuples, 51,349 with the scoped invalidation's reverse indexes.)

The two ``observed`` budgets hold what ``observe=True`` adds (PR 23: the
metrics registry reads the layers' counters on demand instead of being
pushed a copy of each; 107.4 frames per burst message of which 33.5
inside ``repro.obs.registry`` before, 75.8 / 2.0 after; per RKOM call
382.7 / 118.1 before, 270.6 / 6.0 after -- what is left in the registry
is the one ``Histogram.observe`` per CPU work item).  They are held at
71.1 per burst message and 241.36 per RKOM call (73.35 / 248.11 before
the one message constructor and the component tuple).
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "call_budget.py"
spec = importlib.util.spec_from_file_location("call_budget", SCRIPT)
call_budget = importlib.util.module_from_spec(spec)
spec.loader.exec_module(call_budget)


@pytest.fixture(scope="module")
def burst():
    return call_budget.burst(rounds=2)


@pytest.fixture(scope="module")
def rkom():
    return call_budget.rkom(rounds=1)


@pytest.fixture(scope="module")
def observed():
    return (call_budget.burst(rounds=2, observe=True),
            call_budget.rkom(rounds=1, observe=True))


@pytest.fixture(scope="module", params=["ack", "rate"])
def stream(request):
    return request.param, call_budget.stream(rounds=2, capacity_mode=request.param)


@pytest.fixture(scope="module", params=[False, True], ids=["untrusted", "trusted"])
def setup(request):
    return request.param, call_budget.setup(rounds=2, trusted=request.param)


@pytest.fixture(scope="module")
def recover():
    return call_budget.recover(rounds=2)


@pytest.fixture(scope="module")
def flap():
    return call_budget.flap(rounds=2)


def test_flap_does_the_same_routing_work_for_fewer_frames(flap):
    assert flap["messages"] == 2
    assert flap["engine"] == {
        "searches": 17, "table_builds": 2 * 13,
        "scoped_table_drops": 2 * 13, "plan_compiles": 2 * 14,
    }
    assert call_budget.per(flap, "messages") <= 49424.5
    assert call_budget.flap(rounds=2) == flap
    assert "searches per flap 8.5" in call_budget.table(flap, "flap")


def test_a_reachability_sweep_searches_nothing():
    workload = call_budget.grid_churn()
    workload.round()  # tables and plans cached
    engine = workload.network._engine
    for up in (False, True):
        workload._set_trunk(*workload.trunks[0], up)
        before = (engine.searches, engine.table_builds)
        workload._sweep()
        assert (engine.searches, engine.table_builds) == before
    assert len(workload.probes) == 1728 and not workload.tally.errors


def test_total_frames_and_control_messages_per_recovery(recover):
    assert recover["messages"] == 2
    assert recover["control"] == 2 * 2  # st_create + st_accept
    assert call_budget.per(recover, "messages") <= 846.5
    assert call_budget.recover(rounds=2) == recover
    assert "control messages per recovery" in call_budget.table(
        recover, "recovery", "recoveries")


def test_total_frames_and_control_messages_per_established_stream(setup):
    trusted, result = setup
    assert result["messages"] == 2
    # handshake (6) + st_create + st_accept, or the last two alone
    assert result["control"] == result["messages"] * (2 if trusted else 8)
    assert call_budget.per(result, "messages") <= (759 if trusted else 1009)
    assert call_budget.setup(rounds=2, trusted=trusted) == result
    assert "control messages per stream" in call_budget.table(result, "stream")


def test_scenarios_deliver_everything(burst, rkom):
    assert burst["messages"] == 2 * call_budget.BURST
    assert rkom["messages"] == call_budget.CALLS_PER_ROUND
    assert burst["items"] == 2 * burst["messages"]  # send + receive stage
    assert rkom["items"] == 6 * rkom["messages"]  # request, reply, ack


def test_sched_frames_per_work_item_on_a_busy_cpu(burst, rkom):
    assert call_budget.per(burst, "items", "repro.sched") <= 3
    assert call_budget.per(rkom, "items", "repro.sched") <= 3


def test_piggyback_frames_per_component(rkom):
    piggyback = "repro.subtransport.piggyback"
    assert call_budget.per(rkom, "components", piggyback) <= 4.5


def test_total_frames_per_rkom_call(rkom):
    assert call_budget.per(rkom, "messages") <= 108.73
    assert call_budget.per(rkom, "messages", "repro.transport.rkom") <= 10


def test_total_frames_per_burst_message(burst):
    assert call_budget.per(burst, "messages") <= 29.225


def test_total_frames_per_stream_message(stream):
    capacity_mode, result = stream
    assert result["messages"] == 2 * call_budget.BURST
    assert call_budget.per(result, "messages") <= {
        "ack": 138.275, "rate": 138.25}[capacity_mode]
    assert call_budget.stream(rounds=2, capacity_mode=capacity_mode) == result


def test_observed_frames_per_burst_message_and_per_rkom_call(observed, burst, rkom):
    registry = "repro.obs.registry"
    for result, unobserved, inside, total in (
        (observed[0], burst, 2, 71.1), (observed[1], rkom, 6, 241.36),
    ):
        assert result["messages"] == unobserved["messages"]
        assert call_budget.per(result, "messages", registry) <= inside
        assert call_budget.per(result, "messages") <= total
        assert "repro.obs.spans" in call_budget.table(result, "message")


def test_two_fresh_systems_count_the_same(burst, rkom):
    assert call_budget.burst(rounds=2) == burst
    assert call_budget.rkom(rounds=1) == rkom


def test_table_names_every_module(rkom):
    text = call_budget.table(rkom, "call")
    assert "repro.sched.cpu" in text and "TOTAL" in text
