"""Exact counts per delivered message, layer by layer: the perf gate.

Wall clock on a shared host moves by tens of percent from one run to the
next; what the stack *does* per message does not.  This script runs
fixed amounts of work under ``sys.setprofile`` and counts, per layer of
the e2e ledger (``layer_of`` in ``benchmarks/e2e/trace.py``):

* Python frames of this repository's code: a function body entered or
  a generator resumed.  C functions are not frames, and frames of the
  standard library are not counted: they belong to the interpreter's
  patch release, which CI picks, not to this repository.  The
  ``security`` row's frames are the security calls;
* loop events (``sim.events``), CPU work items (``sched.cpu``), timer
  fires (``sim.timers``), piggybacked components
  (``subtransport.piggyback``) and control messages
  (``subtransport.st_send``);
* the forwarding engine's searches, table builds, table drops and plan
  compiles (``netsim.routing``), where the system has an engine.

The simulator is deterministic, so every count repeats exactly on one
CPython minor version, and ``BUDGET.json`` at the repository root holds
them, one section per version.  ``--check`` fails on any count that
differs from this interpreter's section, up or down: a change that
makes the stack do less re-records the file and says so.

The scenarios, each counted after its warm-up:

* the six workloads of ``benchmarks/e2e/workloads.py`` at their quick
  prefix, final drain included; per delivered message, and
  ``grid_churn``'s routing counts per flap;
* ``observed_lan_small_burst`` / ``observed_lan_rkom_closed``: the same
  on ``DashSystem(observe=True)``, what observation costs;
* ``stream_ack``: one reliable windowed byte stream, end-to-end flow
  control, rounds of 40 x 1,000 B against a 16 KB window; per delivered
  message;
* ``setup_untrusted`` / ``setup_trusted``: one stream to a peer never
  spoken to before (the control channel, on an untrusted medium the
  handshake, ``st_create`` and the data network RMS); per established
  stream;
* ``recover``: one supervised ST session whose Ethernet segment goes
  down for 0.5 s each round, the round running until the session is up
  again; per recovery.

Allocated blocks per message (``sys.getallocatedblocks`` over the
counted work, collector disabled, profiler on) are printed but not
budgeted: they depend on the free lists that earlier systems in the
process left behind, so two fresh systems in one process differ.

Usage::

    python benchmarks/call_budget.py            # print the counts
    python benchmarks/call_budget.py --check    # exit 1 if one differs from BUDGET.json
    python benchmarks/call_budget.py --record   # rewrite this version's section
"""

from __future__ import annotations

import argparse
import ast
import functools
import gc
import json
import os
import sys
from collections import Counter
from typing import Callable, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUDGET = os.path.join(ROOT, "BUDGET.json")
for path in (HERE, SRC):
    if path not in sys.path:
        sys.path.insert(0, path)

from e2e.trace import layer_of  # noqa: E402
from e2e.workloads import WORKLOADS  # noqa: E402
from repro import (  # noqa: E402
    DashSystem,
    DelayBound,
    DelayBoundType,
    FlowControlMode,
    RmsParams,
    StreamConfig,
)
from repro.sim.events import TimerGroup  # noqa: E402

BURST = 40
STREAM_BYTES, STREAM_WINDOW, STREAM_ROUND_S = 1000, 16 * 1024, 1.0
SETUP_ROUND_S = 1.0
RECOVER_DOWN_S, RECOVER_POLL_S = 0.5, 0.05
ROUNDS = 2
SEED = 1
ENGINE_COUNTS = ("searches", "table_builds", "scoped_table_drops",
                 "plan_compiles")
VERSION = "%d.%d" % sys.version_info[:2]
#: The ST RMS of ``setup`` and ``recover``.
PARAMS = RmsParams(
    capacity=32 * 1024, max_message_size=4000,
    delay_bound=DelayBound(0.1, 1e-5),
    delay_bound_type=DelayBoundType.BEST_EFFORT,
)


def _pair(trusted: bool = True, peers=("b",)) -> DashSystem:
    system = DashSystem(seed=SEED)
    system.add_ethernet(trusted=trusted)
    for name in ("a", *peers):
        system.add_node(name)
    return system


# -- counting -------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _defs(path: str) -> List[tuple]:
    """``(first line, last line, qualname)`` of every ``def`` in ``path``;
    a decorated function starts at its first decorator, as its code does."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), path)
    found = []

    def walk(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                found.append((first, child.end_lineno, prefix + child.name))
                walk(child, prefix + child.name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    walk(tree, "")
    return found


def _qualname(code) -> str:
    """The innermost ``def`` around ``code`` (a lambda or a comprehension
    answers its enclosing function), the same on every CPython version."""
    if not os.path.isfile(code.co_filename):  # generated, e.g. dataclasses
        return code.co_name
    line = code.co_firstlineno
    around = [(first, name) for first, last, name in _defs(code.co_filename)
              if first <= line <= last]
    return max(around)[1] if around else code.co_name


def _layer(frame):
    """The ledger layer of ``frame``'s code; None outside ``repro`` and
    ``benchmarks/`` (not counted)."""
    module = frame.f_globals.get("__name__", "")
    if module.startswith("repro."):
        return layer_of(module, _qualname(frame.f_code))
    if frame.f_code.co_filename.startswith(HERE + os.sep):
        return "driver"
    return None


def _counters(system) -> Counter:
    """The stack's own running totals, keyed ``"<layer> <count>"``."""
    nodes = list(system.nodes.values())
    loop = system.context.loop
    counts = Counter({
        "sim.events events": loop.events_run,
        # Timer groups hang off private attributes: the collector finds them.
        "sim.timers fires": sum(obj.fires for obj in gc.get_objects()
                                if type(obj) is TimerGroup
                                and obj._loop is loop),
        "sched.cpu items": sum(node.cpu.items_run for node in nodes),
        "subtransport.piggyback components":
            sum(node.st.stats.components_sent for node in nodes),
        "subtransport.st_send control_messages":
            sum(node.st.stats.control_messages for node in nodes),
    })
    engines = [network._engine for network in system.networks.values()
               if hasattr(network, "_engine")]
    for name in ENGINE_COUNTS if engines else ():
        counts[f"netsim.routing {name}"] = sum(
            getattr(engine, name) for engine in engines)
    return counts


def _counted(system, work: Callable[[], None],
             delivered: Callable[[], int]) -> dict:
    """Run ``work`` under the profiler; its counts, frames by layer and
    by module, and the allocated blocks it left."""
    layers: Counter = Counter()
    modules: Counter = Counter()
    seen: Dict[int, tuple] = {}

    def profiler(frame, event, arg) -> None:
        if event != "call":
            return
        code = frame.f_code
        entry = seen.get(id(code))
        if entry is None:
            # ``code`` is kept so that its id is not reused.
            entry = seen[id(code)] = (
                _layer(frame), frame.f_globals.get("__name__", "?"), code)
        if entry[0] is not None:
            layers[entry[0]] += 1
            modules[entry[1]] += 1

    previous = sys.getprofile()
    collecting = gc.isenabled()
    gc.collect()
    before = _counters(system)
    messages = delivered()
    gc.disable()  # a collection runs whatever gc.callbacks a host registered
    blocks = sys.getallocatedblocks()
    sys.setprofile(profiler)
    try:
        work()
    finally:
        sys.setprofile(previous)
        blocks = sys.getallocatedblocks() - blocks
        if collecting:
            gc.enable()
    counts = _counters(system)
    counts.subtract(before)
    counts["messages"] = delivered() - messages
    for layer, frames in layers.items():
        counts[f"{layer} frames"] = frames
    return {"counts": dict(counts), "modules": dict(modules),
            "alloc_blocks": blocks}


# -- scenarios ------------------------------------------------------------


class _Observed:
    """Mixin: a workload built on ``DashSystem(observe=True)``."""

    def _system(self) -> DashSystem:
        self.system = DashSystem(seed=self.seed, observe=True)
        self.loop = self.system.context.loop
        return self.system


def workload(name: str, observe: bool = False):
    """``name``'s workload, built and warmed up."""
    cls = WORKLOADS[name]
    if observe:
        cls = type("Observed" + cls.__name__, (_Observed, cls), {})
    built = cls(SEED)
    built.build()
    built.warmup()
    return built


def run_workload(name: str, observe: bool = False) -> dict:
    """One e2e workload's quick prefix and final drain; per delivered
    message (and per flap)."""
    built = workload(name, observe)
    flaps = built.flaps

    def work() -> None:
        for _ in range(built.quick_prefix_rounds):
            built.round()
        built.drain()

    result = _counted(built.system, work, lambda: built.tally.delivered)
    errors = built.leftover_errors()
    if errors:
        raise RuntimeError(f"{name}: {errors}")
    if built.flaps > flaps:
        result["counts"]["flaps"] = built.flaps - flaps
    return result


def _rounds(system, one_round: Callable[[], None],
            delivered: list) -> dict:
    """``ROUNDS`` rounds counted after one warm-up round."""
    one_round()

    def work() -> None:
        for _ in range(ROUNDS):
            one_round()

    return _counted(system, work, lambda: len(delivered))


def stream() -> dict:
    """One reliable windowed byte stream, 40 x 1,000 B per round; per
    delivered message."""
    system = _pair()
    config = StreamConfig(
        reliable=True, flow_control=FlowControlMode.END_TO_END,
        # A burst is 2.5 windows: most sends wait at a gate, some do not.
        receive_buffer=STREAM_WINDOW,
    )
    desired = RmsParams(capacity=STREAM_WINDOW, max_message_size=8 * 1024,
                        delay_bound=DelayBound(0.1, 2e-6))
    session = system.connect("a", "b", kind="stream", desired=desired,
                             config=config)
    system.run(until=2.0)
    delivered: list = []
    session.established.result().drain_to(delivered.append)
    payload = bytes(STREAM_BYTES)

    def one_round() -> None:
        for _ in range(BURST):
            session.send(payload)
        system.run(until=system.now + STREAM_ROUND_S)

    return _rounds(system, one_round, delivered)


def setup(trusted: bool) -> dict:
    """One stream to a fresh peer per round; per established stream."""
    peers = [f"b{index}" for index in range(ROUNDS + 1)]
    system = _pair(trusted, peers)
    established: list = []
    fresh = iter(peers)

    def one_round() -> None:
        session = system.connect(
            "a", next(fresh), desired=PARAMS, acceptable=PARAMS)
        system.run(until=system.now + SETUP_ROUND_S)
        established.append(session.established.result())

    return _rounds(system, one_round, established)


def recover() -> dict:
    """One supervised ST session; each round the segment is down for
    ``RECOVER_DOWN_S`` and the round runs until the session is up again;
    per recovery."""
    system = _pair()
    session = system.connect("a", "b", desired=PARAMS, acceptable=PARAMS,
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

    return _rounds(system, one_round, recovered)


#: ``(name, unit, scenario)`` in the order they run.
SCENARIOS = [
    *((name, "message", functools.partial(run_workload, name))
      for name in WORKLOADS),
    *((f"observed_{name}", "message",
       functools.partial(run_workload, name, observe=True))
      for name in ("lan_small_burst", "lan_rkom_closed")),
    ("stream_ack", "message", stream),
    ("setup_untrusted", "stream", functools.partial(setup, False)),
    ("setup_trusted", "stream", functools.partial(setup, True)),
    ("recover", "recovery", recover),
]


def measure() -> Dict[str, dict]:
    """Every scenario, in order, in this process."""
    return {name: scenario() for name, _unit, scenario in SCENARIOS}


# -- the budget -----------------------------------------------------------


def differences(budget: Dict[str, dict], fresh: Dict[str, dict]) -> List[str]:
    """One line per count that differs, naming scenario, layer and count
    (a missing count is 0)."""
    lines = []
    for scenario in sorted(budget.keys() | fresh.keys()):
        old, new = budget.get(scenario), fresh.get(scenario)
        if old is None or new is None:
            lines.append(f"{scenario}: "
                         + ("not in the budget" if old is None else "not run"))
            continue
        for key in sorted(old.keys() | new.keys()):
            was, now = old.get(key, 0), new.get(key, 0)
            if was != now:
                lines.append(f"{scenario} {key}: budget {was}, "
                             f"measured {now} ({now - was:+d})")
    return lines


def load(path: str = BUDGET) -> dict:
    with open(path) as handle:
        return json.load(handle)


def check(path: str, fresh: Dict[str, dict]) -> List[str]:
    """The differences between ``fresh`` counts and this version's
    section of the budget at ``path``."""
    section = load(path).get(VERSION)
    if section is None:
        return [f"{path} has no section for CPython {VERSION}: "
                "run call_budget.py --record"]
    return differences(section, fresh)


def record(path: str, fresh: Dict[str, dict]) -> None:
    """Rewrite this version's section of the budget at ``path``."""
    budget = load(path) if os.path.exists(path) else {}
    budget[VERSION] = fresh
    with open(path, "w") as handle:
        json.dump(budget, handle, indent=1, sort_keys=True)
        handle.write("\n")


def table(name: str, unit: str, result: dict, modules: bool = False) -> str:
    counts = result["counts"]
    messages = counts["messages"]
    flaps = counts.get("flaps")
    rows: Dict[str, List[str]] = {}
    frames: Dict[str, int] = {}
    for key, value in counts.items():
        if key in ("messages", "flaps"):
            continue
        layer, what = key.split(" ")
        if what == "frames":
            frames[layer] = value
        elif layer == "netsim.routing" and flaps:
            rows.setdefault(layer, []).append(f"{what} {value / flaps:g}/flap")
        else:
            rows.setdefault(layer, []).append(f"{what} {value / messages:.2f}")
    lines = [f"# {name}: per {unit}, over {messages}"
             + (f"; routing per flap, over {flaps}" if flaps else ""),
             f"{'layer':<26}{'frames/' + unit:>16}  other counts per {unit}"]
    for layer in sorted(frames.keys() | rows.keys(),
                        key=lambda layer: (-frames.get(layer, 0), layer)):
        lines.append(f"{layer:<26}{frames.get(layer, 0) / messages:>16.2f}  "
                     + ", ".join(rows.get(layer, ())))
    lines.append(f"{'TOTAL':<26}{sum(frames.values()) / messages:>16.2f}")
    lines.append(f"allocated blocks per {unit} (not budgeted): "
                 f"{result['alloc_blocks'] / messages:.2f}")
    if modules:
        by_module = result["modules"]
        for module in sorted(by_module, key=lambda m: (-by_module[m], m)):
            lines.append(f"  {module:<40}{by_module[module] / messages:>10.2f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group()
    action.add_argument("--check", action="store_true",
                        help=f"exit 1 if a count differs from {BUDGET}")
    action.add_argument("--record", action="store_true",
                        help="rewrite this CPython version's section")
    parser.add_argument("--budget", default=BUDGET,
                        help="the budget file (default: %(default)s)")
    args = parser.parse_args(argv)
    results = measure()
    fresh = {name: result["counts"] for name, result in results.items()}
    failures = check(args.budget, fresh) if args.check else []
    failed = {line.split(" ")[0].rstrip(":") for line in failures}
    for name, unit, _scenario in SCENARIOS:
        print(table(name, unit, results[name], modules=name in failed) + "\n")
    if args.record:
        record(args.budget, fresh)
        print(f"recorded CPython {VERSION}'s counts in {args.budget}")
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    if args.check and not failures:
        print(f"every count matches CPython {VERSION}'s section of {args.budget}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
