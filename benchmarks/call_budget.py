"""Python-level calls per delivered message, module by module.

A wall-clock-free reading of ROADMAP aim 1's "layer by layer": small
scenarios on one Ethernet are run under ``sys.setprofile`` and
every Python ``call`` event (a function body entered, a generator
resumed) is counted under the module that defines the code.  C functions
are not frames and are not counted.  The simulator is deterministic, so
the counts repeat exactly on any host, which makes them a budget CI can
hold (``tests/test_call_budget.py``) where nanoseconds cannot be.

* ``burst`` -- rounds of 40 x 100 B one-way messages (what
  ``lan_small_burst`` sends), per delivered message;
* ``rkom``  -- 8 closed-loop RKOM callers echoing 64 B (what
  ``lan_rkom_closed`` does), per completed call;
* ``stream`` -- one reliable windowed byte stream, end-to-end flow
  control, rounds of 40 x 1,000 B (the path ``fabric_secured_mix``'s
  flow stream takes through ``transport/``), per delivered message,
  once with acknowledgement-based and once with rate-based capacity
  enforcement;
* ``setup`` -- one stream opened to a peer never spoken to before (the
  control channel, on an untrusted medium the handshake, ``st_create``
  and the data network RMS: what ``grid_churn`` pays per
  re-establishment), per established stream, trusted and untrusted;
* ``recover`` -- one supervised ST session on a trusted Ethernet whose
  segment goes down for 0.5 s each round, the round running until the
  session is up again (the failure notice, the re-establishing attempt
  and the ST RMS it opens once the segment heals), per recovery;
* ``flap`` -- ``grid_churn``'s round, imported from
  ``benchmarks/e2e/workloads.py``: one trunk of the 216-host grid down
  and up, each transition followed by the 1,728-probe ``can_reach``
  sweep, re-establishment and a round of traffic; per flap cycle, with
  the forwarding engine's ``searches``, ``table_builds``,
  ``scoped_table_drops`` (the tables the flap's invalidations discard:
  every link state change drops every cached route) and
  ``plan_compiles`` beside the frames, so a cheaper flap can be told
  from one that skipped work.  The sweep reads the up-link graph's
  strongly connected components and builds no forwarding table: the
  searches and tables a flap still does are the ones
  re-establishment's routes need.  Seed 1, two cycles, CPython 3.11:
  8.5 searches, 13 table builds, 13 table drops and 14 plan compiles
  per flap, 51,196.5 frames.

Only public ``DashSystem`` attributes are used, except the forwarding
engine's counters in ``flap``.  Counting starts after
one warm-up round, so in ``burst`` / ``rkom`` establishment and the
per-size memos are paid, and in ``setup`` whatever the first
establishment in a process pays once.

``--observe`` runs ``burst`` and ``rkom`` on ``DashSystem(observe=True)``
instead: what observation costs, by module (``repro.obs.spans`` and
``repro.obs.registry`` are its own rows).

Usage: ``PYTHONPATH=src python benchmarks/call_budget.py [--rounds N] [--observe]``
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from collections import Counter
from typing import Callable, Dict

from repro import (
    DashSystem,
    DelayBound,
    DelayBoundType,
    FlowControlMode,
    RmsParams,
    StreamConfig,
)

BURST, BURST_BYTES, BURST_ROUND_S = 40, 100, 0.02
CALLERS, CALL_BYTES, CALLS_PER_ROUND, CALL_ROUND_S = 8, 64, 96, 0.25
STREAM_BYTES, STREAM_WINDOW, STREAM_ROUND_S = 1000, 16 * 1024, 1.0
SETUP_ROUND_S = 1.0
RECOVER_DOWN_S, RECOVER_POLL_S = 0.5, 0.05
ENGINE_COUNTS = ("searches", "table_builds", "scoped_table_drops",
                 "plan_compiles")


def _pair(seed: int, trusted: bool = True, peers=("b",),
          observe: bool = False) -> DashSystem:
    system = DashSystem(seed=seed, observe=observe)
    system.add_ethernet(trusted=trusted)
    for name in ("a", *peers):
        system.add_node(name)
    return system


def _counted(system: DashSystem, one_round: Callable[[], None],
             rounds: int, delivered: list) -> dict:
    """Run ``rounds`` rounds under the profiler (after one warm-up)."""
    one_round()
    nodes = list(system.nodes.values())
    before = (len(delivered),
              sum(node.cpu.items_run for node in nodes),
              sum(node.st.stats.components_sent for node in nodes),
              sum(node.st.stats.control_messages for node in nodes))
    calls: Counter = Counter()

    def profiler(frame, event, arg) -> None:
        if event == "call":
            calls[frame.f_globals.get("__name__", "?")] += 1

    previous = sys.getprofile()
    collecting = gc.isenabled()
    gc.disable()  # a collection runs whatever gc.callbacks a host registered
    sys.setprofile(profiler)
    try:
        for _ in range(rounds):
            one_round()
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()
    calls["driver"] = calls.pop(__name__, 0)  # this file's rounds and handlers
    return {
        "messages": len(delivered) - before[0],
        "items": sum(node.cpu.items_run for node in nodes) - before[1],
        "components":
            sum(node.st.stats.components_sent for node in nodes) - before[2],
        "control":
            sum(node.st.stats.control_messages for node in nodes) - before[3],
        "calls": dict(calls),
    }


def burst(rounds: int = 5, seed: int = 1, observe: bool = False) -> dict:
    """One-way bursts of 40 x 100 B; per delivered message."""
    system = _pair(seed, observe=observe)
    params = RmsParams(
        capacity=32 * 1024, max_message_size=4000,
        delay_bound=DelayBound(0.1, 1e-5),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
    )
    session = system.connect("a", "b", desired=params, acceptable=params)
    system.run(until=2.0)
    session.established.result()
    delivered: list = []
    session.port.set_handler(delivered.append)
    payload = bytes(BURST_BYTES)

    def one_round() -> None:
        for _ in range(BURST):
            session.send(payload)
        system.run(until=system.now + BURST_ROUND_S)

    return _counted(system, one_round, rounds, delivered)


def rkom(rounds: int = 2, seed: int = 1, observe: bool = False) -> dict:
    """Eight closed-loop callers echoing 64 B; per completed call."""
    system = _pair(seed, observe=observe)
    system.nodes["b"].rkom.register_handler(
        "echo", lambda payload, sender: payload)
    sessions = [system.connect("a", "b", kind="rkom") for _ in range(CALLERS)]
    payload = bytes(CALL_BYTES)
    done: list = []
    left = [0]

    def issue(session) -> None:
        left[0] -= 1
        session.call("echo", payload).add_done_callback(
            lambda handle: finished(session, handle))

    def finished(session, handle) -> None:
        done.append(handle.result())
        if left[0] > 0:
            issue(session)

    def one_round() -> None:
        left[0] = CALLS_PER_ROUND
        for session in sessions:
            issue(session)
        system.run(until=system.now + CALL_ROUND_S)

    return _counted(system, one_round, rounds, done)


def stream(rounds: int = 3, seed: int = 1, capacity_mode: str = "ack") -> dict:
    """One reliable windowed byte stream, 40 x 1,000 B per round; per
    delivered message."""
    system = _pair(seed)
    config = StreamConfig(
        reliable=True, capacity_mode=capacity_mode,
        flow_control=FlowControlMode.END_TO_END, data_delay_bound=0.1,
        # A burst is 2.5 windows: most sends wait at a gate, some do not.
        data_capacity=STREAM_WINDOW, receive_buffer=STREAM_WINDOW,
    )
    session = system.connect("a", "b", kind="stream", config=config)
    system.run(until=2.0)
    delivered: list = []
    session.established.result().drain_to(delivered.append)
    payload = bytes(STREAM_BYTES)

    def one_round() -> None:
        for _ in range(BURST):
            session.send(payload)
        system.run(until=system.now + STREAM_ROUND_S)

    return _counted(system, one_round, rounds, delivered)


def setup(rounds: int = 3, seed: int = 1, trusted: bool = False) -> dict:
    """One stream to a fresh peer per round; per established stream."""
    peers = [f"b{index}" for index in range(rounds + 1)]
    system = _pair(seed, trusted, peers)
    params = RmsParams(
        capacity=32 * 1024, max_message_size=4000,
        delay_bound=DelayBound(0.1, 1e-5),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
    )
    established: list = []
    fresh = iter(peers)

    def one_round() -> None:
        session = system.connect(
            "a", next(fresh), desired=params, acceptable=params)
        system.run(until=system.now + SETUP_ROUND_S)
        established.append(session.established.result())

    return _counted(system, one_round, rounds, established)


def recover(rounds: int = 3, seed: int = 1) -> dict:
    """One supervised ST session; each round the segment is down for
    ``RECOVER_DOWN_S`` and the round runs until the session is up again;
    per recovery."""
    system = _pair(seed)
    params = RmsParams(
        capacity=32 * 1024, max_message_size=4000,
        delay_bound=DelayBound(0.1, 1e-5),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
    )
    session = system.connect("a", "b", desired=params, acceptable=params,
                             resilience=True)
    system.run(until=2.0)
    session.established.result()
    segment = system.networks["ether0"].segment
    recovered: list = []

    def one_round() -> None:
        segment.set_down()
        system.run(until=system.now + RECOVER_DOWN_S)
        segment.set_up()
        while not session.is_up:
            system.run(until=system.now + RECOVER_POLL_S)
        recovered.append(session.stats.recoveries)

    return _counted(system, one_round, rounds, recovered)


def grid_churn(seed: int = 1):
    """``grid_churn``'s workload, built, from ``benchmarks/e2e/workloads.py``."""
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    try:
        from e2e.workloads import GridChurn
    finally:
        sys.path.pop(0)
    workload = GridChurn(seed)
    workload.build()
    return workload


def flap(rounds: int = 2, seed: int = 1) -> dict:
    """``grid_churn``'s flap cycle on its own grid; per flap, with the
    forwarding engine's work counts (``result["engine"]``)."""
    workload = grid_churn(seed)
    engine = workload.network._engine
    flapped: list = []
    counts: list = []

    def one_round() -> None:
        workload.round()
        flapped.append(workload.flaps)
        counts.append([getattr(engine, name) for name in ENGINE_COUNTS])

    result = _counted(workload.system, one_round, rounds, flapped)
    # counts[0] was taken after the warm-up round.
    result["engine"] = {
        name: last - first
        for name, first, last in zip(ENGINE_COUNTS, counts[0], counts[-1])
    }
    return result


def per(result: dict, unit: str, *modules: str) -> float:
    """Calls per ``unit`` ('messages' / 'items' / 'components') inside the
    modules whose names start with one of ``modules`` (all when empty)."""
    total = sum(
        count for module, count in result["calls"].items()
        if not modules or module.startswith(modules)
    )
    return total / result[unit]


def table(result: dict, what: str, whats: str = "") -> str:
    messages = result["messages"]
    whats = whats or f"{what}s"
    lines = [f"{'module':<36}{'calls/' + what:>12}"]
    rows: Dict[str, int] = result["calls"]
    for module in sorted(rows, key=lambda name: (-rows[name], name)):
        lines.append(f"{module:<36}{rows[module] / messages:>12.2f}")
    lines.append(f"{'TOTAL':<36}{per(result, 'messages'):>12.2f}")
    if result["components"]:  # establishment alone sends none
        lines.append(
            f"{messages} {whats}; repro.sched per work item "
            f"{per(result, 'items', 'repro.sched'):.2f}; piggyback.py per "
            f"component {per(result, 'components', 'repro.subtransport.piggyback'):.2f}"
        )
    else:
        lines.append(
            f"{messages} {whats}; control messages per {what} "
            f"{result['control'] / messages:.2f}; repro.subtransport per "
            f"{what} {per(result, 'messages', 'repro.subtransport'):.2f}"
        )
    if "engine" in result:
        lines.append("; ".join(
            f"{name} per {what} {count / messages:.1f}"
            for name, count in result["engine"].items()
        ))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--observe", action="store_true",
                        help="burst and rkom with observability on")
    args = parser.parse_args(argv)
    mode = ", observe=True" if args.observe else ""
    print(f"# burst: {BURST} x {BURST_BYTES} B one-way per round{mode}")
    print(table(burst(args.rounds, args.seed, args.observe), "message"))
    print(f"\n# rkom: {CALLERS} closed-loop callers echoing {CALL_BYTES} B{mode}")
    print(table(rkom(args.rounds, args.seed, args.observe), "call"))
    for capacity_mode in () if args.observe else ("ack", "rate"):
        print(f"\n# stream: {BURST} x {STREAM_BYTES} B per round, reliable, "
              f"end-to-end flow control, capacity_mode={capacity_mode!r}")
        print(table(stream(args.rounds, args.seed, capacity_mode), "message"))
    for trusted in () if args.observe else (False, True):
        medium = "a trusted" if trusted else "an untrusted"
        print(f"\n# setup: one stream to a fresh peer on {medium} Ethernet")
        print(table(setup(args.rounds, args.seed, trusted), "stream"))
    if not args.observe:
        print(f"\n# recover: one supervised ST session on a trusted Ethernet, "
              f"segment down {RECOVER_DOWN_S} s per round")
        print(table(recover(args.rounds, args.seed), "recovery", "recoveries"))
        print("\n# flap: grid_churn's cycle, one trunk of the 216-host grid "
              "down and up")
        print(table(flap(args.rounds, args.seed), "flap"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
