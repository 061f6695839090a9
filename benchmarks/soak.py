"""Memory follows what is open, not what was sent: the soak check.

Two properties of each of the six workloads of
``benchmarks/e2e/workloads.py`` (imported, not edited):

* **retained heap per message.**  ``tracemalloc`` traces from before
  ``build()``.  The workload runs until every stream has sent each of
  its payload bodies once, so the per-size memos of its streams are
  full, then two equal blocks of rounds, each followed by its final
  drain.  What the heap of ``repro`` code grew by across the second
  block, per message delivered in it, is at most ``RETAINED_BOUND``
  bytes: a stack that logs per message fails it.  A block is the quick
  prefix, lengthened to deliver at least ``BLOCK_MESSAGES``: the
  interpreter's free lists and a closed loop's calls in flight move the
  traced heap by a few hundred bytes from one snapshot to the next,
  which a block of 16 messages would read as tens of bytes each.
* **state per channel**, after those blocks.  Each open ST RMS has one
  receiver (``RxStream``) and a failed or closed one none; each open ST
  session holds one auto-named (``connect-N``) port on its receiving
  host and a closed one none, and no closed ``StSession`` stays in
  memory.

Before it counts, the check empties the event loop's free pool of
handles: a pooled handle keeps the callback it last ran until it is
reused (DESIGN 8.1), a bounded set of stale references that is not the
stack's own state.

Usage::

    python benchmarks/soak.py            # print the figures
    python benchmarks/soak.py --check    # exit 1 if a property fails
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
import tracemalloc
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
for path in (HERE, SRC):
    if path not in sys.path:
        sys.path.insert(0, path)

from e2e.workloads import BODIES, WORKLOADS  # noqa: E402
from repro.resilience.session import StSession  # noqa: E402
from repro.subtransport.strms import StRms  # noqa: E402

SEED = 1
#: Bytes of ``repro`` heap a steady-state block may keep per delivered
#: message.
RETAINED_BOUND = 4.0
#: Fewest messages a block delivers.
BLOCK_MESSAGES = 1000
_REPRO = [tracemalloc.Filter(True, os.path.join("*", "repro", "*"))]


def _settle(built) -> None:
    """Drop the loop's free pool and collect, so that what is counted
    next is what the stack holds."""
    built.loop._pool.clear()
    gc.collect()


def _repro_heap() -> int:
    snapshot = tracemalloc.take_snapshot().filter_traces(_REPRO)
    return sum(stat.size for stat in snapshot.statistics("filename"))


def measure(name: str) -> Dict[str, float]:
    """Bytes of ``repro`` heap the second of two equal steady-state
    blocks kept, the rounds and messages it took, and the
    :func:`channel_state` after it."""
    cls = WORKLOADS[name]
    tracemalloc.start()
    try:
        built = cls(SEED)
        built.build()
        built.warmup()
        start, prelude = built.tally.delivered, 0
        while not prelude or min(s.sent for s in built.streams) < BODIES:
            built.round()
            prelude += 1
        per_round = (built.tally.delivered - start) / prelude
        rounds = max(cls.quick_prefix_rounds,
                     math.ceil(BLOCK_MESSAGES / per_round))
        heap = []
        delivered = []
        for _ in range(2):
            for _ in range(rounds):
                built.round()
            built.drain()
            _settle(built)
            heap.append(_repro_heap())
            delivered.append(built.tally.delivered)
    finally:
        tracemalloc.stop()
    messages = delivered[1] - delivered[0]
    grown = heap[1] - heap[0]
    return {"rounds": rounds, "messages": messages, "retained_b": grown,
            "b_per_msg": grown / messages, **channel_state(built)}


def channel_state(built) -> Dict[str, int]:
    """What the stack holds per channel, beside what is open."""
    _settle(built)
    objects = gc.get_objects()
    nodes = list(built.system.nodes.values())
    return {
        "open_st_rms": sum(1 for obj in objects
                           if isinstance(obj, StRms) and obj.is_open),
        "rx_streams": sum(len(node.st._rx) for node in nodes),
        "open_st_sessions": sum(1 for session in built.sessions
                                if session.kind == "st" and session.is_up),
        "connect_ports": sum(1 for node in nodes for port in node.host.ports
                             if port.startswith("connect-")),
        "live_st_sessions": sum(1 for obj in objects
                                if type(obj) is StSession),
    }


def failures(name: str, state: Dict[str, float]) -> List[str]:
    """One line per property ``name`` fails."""
    lines = []
    if state["b_per_msg"] > RETAINED_BOUND:
        lines.append(f"{name}: retains {state['b_per_msg']:.2f} B per "
                     f"message (bound {RETAINED_BOUND:g})")
    if state["rx_streams"] != state["open_st_rms"]:
        lines.append(f"{name}: {state['rx_streams']} receivers for "
                     f"{state['open_st_rms']} open ST RMSs")
    for held in ("connect_ports", "live_st_sessions"):
        if state[held] != state["open_st_sessions"]:
            lines.append(f"{name}: {state[held]} {held} for "
                         f"{state['open_st_sessions']} open ST sessions")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if a property fails")
    args = parser.parse_args(argv)
    failed: List[str] = []
    print(f"{'workload':<20}{'rounds':>7}{'msgs':>6}{'retained B':>12}"
          f"{'B/msg':>8}{'open RMS':>10}{'rx':>5}{'sessions':>10}"
          f"{'ports':>7}{'live':>6}")
    for name in WORKLOADS:
        state = measure(name)
        print(f"{name:<20}{state['rounds']:>7}{state['messages']:>6}"
              f"{state['retained_b']:>12}{state['b_per_msg']:>8.2f}"
              f"{state['open_st_rms']:>10}{state['rx_streams']:>5}"
              f"{state['open_st_sessions']:>10}{state['connect_ports']:>7}"
              f"{state['live_st_sessions']:>6}")
        failed += failures(name, state)
    for line in failed:
        print(f"FAIL {line}")
    return 1 if args.check and failed else 0


if __name__ == "__main__":
    sys.exit(main())
