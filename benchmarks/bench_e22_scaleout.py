"""E22 -- scale-out routing: forwarding tables, compiled plans, one cache
lifetime.

Earlier benches kept topologies tiny (a segment, a dumbbell), so routing
cost never showed.  At mesh scale it dominates.  The forwarding engine
runs one full-run Dijkstra per gateway amortized over every destination
and every host behind it, compiles per-pair route plans with cached
per-hop deliver callbacks, and drops every cached route at each link
state change, so a route resolved after a flap is a fresh search's.

The engine is the only resolver in ``src/``.  Until PR 16 this bench ran
a second arm on the per-pair resolver the engine replaced (one
Dijkstra per pair, whole-cache clears, a lambda per hop per frame);
the last comparison, 28.7x routed msgs/s
under churn, is frozen in EXPERIMENTS.md.  Route exactness against that
resolver and the static delivery trace are tier-1 tests now
(``tests/routing_reference.py``, ``tests/test_routing_engine.py``).

One workload on a 200+-host router grid:

* **Static leg** -- steady traffic over a fixed topology; routed msgs/s
  and route resolutions per delivered message.
* **Churn leg** -- trunk links flap while traffic continues; every flap
  triggers stream re-establishment and a reachability sweep (the
  management plane's behavior).  The headline is routed msgs/s here.
* **Recovery** -- after the last flap heals, the fraction of pairs
  delivering again (must be 1.0: the grid stays connected).
* **Soak leg** -- a long horizon of flap cycles checking recovery holds
  and the engine's caches stay bounded.

Its exact checks are also tier-1 tests (``tests/test_mesh_experiments.py``);
see DESIGN.md section 8.7 for the engine design.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Tuple

from common import Table, bench_main, make_run, report
from repro.core.message import Label
from repro.core.params import DelayBound, DelayBoundType, RmsParams
from repro.errors import AdmissionError, NegotiationError, RoutingError
from repro.netsim.internet import InternetNetwork
from repro.netsim.topology import MeshSpec, build_grid
from repro.sim.context import SimContext

SEED = 22

#: 6x6 router grid, 6 hosts per router: 216 hosts, worst paths ~12 trunks.
GRID_ROWS = 6
GRID_COLS = 6
HOSTS_PER_ROUTER = 6
#: Concurrently established traffic pairs.
PAIRS = 100
#: Reachability probes per host in the management plane's sweep (run
#: after every link transition): every host checks a fixed sample of
#: destinations.  The engine pays one table build per *source* and a
#: dict probe per destination.
PROBES_PER_HOST = 8
#: Messages per pair per traffic round.
MSGS_PER_ROUND = 2
#: Traffic rounds in the static leg.
STATIC_ROUNDS = 8
#: Down/up flap cycles in the churn leg (each runs two traffic rounds).
FLAPS = 6
#: Extra flap cycles in the soak leg.
SOAK_FLAPS = 12
#: Simulated seconds given to each traffic round / setup wave.
ROUND_TIME = 0.4
PAYLOAD = b"\xe2\x22" * 32  # 64 bytes


def _params() -> RmsParams:
    return RmsParams(
        capacity=32 * 1024,
        max_message_size=512,
        delay_bound=DelayBound(0.5, 1e-4),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
    )


class _MeshRun:
    """The experiment's system: a grid mesh plus PAIRS streams."""

    def __init__(self, seed: int) -> None:
        self.context = SimContext(seed=seed)
        self.network = InternetNetwork(self.context, trusted=True)
        self.mesh = build_grid(
            self.network, GRID_ROWS, GRID_COLS,
            hosts_per_router=HOSTS_PER_ROUTER,
            spec=MeshSpec(trunk_bandwidth=2.5e6, trunk_delay=5e-4,
                          access_bandwidth=5e6, access_delay=1e-4),
        )
        rng = random.Random(seed * 1009 + 7)
        hosts = list(self.mesh.hosts)
        self.pairs: List[Tuple[str, str]] = []
        seen = set()
        while len(self.pairs) < PAIRS:
            src, dst = rng.sample(hosts, 2)
            if (src, dst) not in seen:
                seen.add((src, dst))
                self.pairs.append((src, dst))
        #: Router-router edges, flappable without partitioning the grid
        #: (every grid trunk lies on a cycle); host access links stay up.
        routers = set(self.mesh.routers)
        self.trunks = sorted(
            (u, v) for (u, v) in self.network._links
            if u in routers and v in routers and u < v
        )
        self.flap_rng = random.Random(seed * 2003 + 11)
        self.probe_pairs: List[Tuple[str, str]] = []
        for src in hosts:
            for dst in rng.sample(hosts, PROBES_PER_HOST):
                if dst != src:
                    self.probe_pairs.append((src, dst))
        self.rms_by_pair: Dict[Tuple[str, str], object] = {}
        self.dead: set = set()
        self.delivered = 0
        self.delivered_by_pair: Dict[Tuple[str, str], int] = {
            pair: 0 for pair in self.pairs
        }
        self.params = _params()

    # -- streams ----------------------------------------------------------

    def _on_delivery(self, pair: Tuple[str, str]):
        def handler(message) -> None:
            self.delivered += 1
            self.delivered_by_pair[pair] += 1
        return handler

    def establish(self) -> None:
        """(Re-)establish every pair without an open stream."""
        futures = []
        for pair in self.pairs:
            rms = self.rms_by_pair.get(pair)
            if rms is not None and rms.is_open and pair not in self.dead:
                continue
            src, dst = pair
            try:
                future = self.network.create_rms(
                    Label(src), Label(dst), self.params, self.params,
                )
            except (RoutingError, AdmissionError, NegotiationError):
                continue
            futures.append((pair, future))
        if futures:
            self.context.run(until=self.context.now + ROUND_TIME)
        for pair, future in futures:
            if future.done and not future.failed:
                rms = future.result()
                self.rms_by_pair[pair] = rms
                self.dead.discard(pair)
                rms.port.set_handler(self._on_delivery(pair))
                rms.on_failure.listen(
                    lambda r, reason, pair=pair: self.dead.add(pair)
                )

    def traffic_round(self) -> None:
        for pair, rms in self.rms_by_pair.items():
            if rms.is_open:
                for _ in range(MSGS_PER_ROUND):
                    rms.send(PAYLOAD)
        self.context.run(until=self.context.now + ROUND_TIME)

    def sweep(self) -> int:
        """The management plane's post-transition reachability scan:
        every host re-validates its sampled destination set."""
        can_reach = self.network.can_reach
        return sum(1 for src, dst in self.probe_pairs if can_reach(src, dst))

    # -- legs -------------------------------------------------------------

    def static_leg(self) -> Dict[str, float]:
        self.establish()
        before = self.delivered
        resolutions = self.network.route_resolutions
        started = time.perf_counter()
        for _ in range(STATIC_ROUNDS):
            self.traffic_round()
        elapsed = max(time.perf_counter() - started, 1e-9)
        delivered = self.delivered - before
        return {
            "delivered": delivered,
            "msgs_per_sec": delivered / elapsed,
            "resolutions_per_msg":
                (self.network.route_resolutions - resolutions)
                / max(delivered, 1),
        }

    def flap_cycle(self) -> None:
        u, v = self.trunks[self.flap_rng.randrange(len(self.trunks))]
        self.network.link(u, v).set_down()
        self.network.link(v, u).set_down()
        self.sweep()
        self.establish()
        self.traffic_round()
        self.network.link(u, v).set_up()
        self.network.link(v, u).set_up()
        self.sweep()
        self.establish()
        self.traffic_round()

    def churn_leg(self, flaps: int = FLAPS) -> Dict[str, float]:
        before = self.delivered
        resolutions = self.network.route_resolutions
        started = time.perf_counter()
        for _ in range(flaps):
            self.flap_cycle()
        elapsed = max(time.perf_counter() - started, 1e-9)
        delivered = self.delivered - before
        return {
            "delivered": delivered,
            "msgs_per_sec": delivered / elapsed,
            "resolutions_per_msg":
                (self.network.route_resolutions - resolutions)
                / max(delivered, 1),
        }

    def recovery_ratio(self) -> float:
        """Fraction of pairs delivering again after churn heals."""
        self.establish()
        marks = dict(self.delivered_by_pair)
        for pair, rms in self.rms_by_pair.items():
            if rms.is_open:
                rms.send(PAYLOAD)
        self.context.run(until=self.context.now + ROUND_TIME)
        recovered = sum(
            1 for pair in self.pairs
            if self.delivered_by_pair[pair] > marks[pair]
        )
        return recovered / len(self.pairs)


#: Repetitions of the (short) static leg; the fastest is kept.  The
#: simulated work is identical across reps -- only the wall-clock rate
#: is noisy, and at ~0.1 s per rep a single sample swings +-15% on a
#: shared runner.  The churn leg is long enough to run once.
STATIC_REPS = 6


def _soak(run: _MeshRun) -> Dict[str, float]:
    """Long-horizon churn: recovery must hold and the engine's caches
    must stay bounded by the live working set."""
    before = run.delivered
    started = time.perf_counter()
    for _ in range(SOAK_FLAPS):
        run.flap_cycle()
    elapsed = max(time.perf_counter() - started, 1e-9)
    recovery = run.recovery_ratio()
    engine = run.network._engine
    return {
        "flaps": SOAK_FLAPS,
        "delivered": run.delivered - before,
        "msgs_per_sec": (run.delivered - before) / elapsed,
        "recovery_ratio": recovery,
        "cached_tables": len(engine._tables),
        "cached_plans": engine._compiled,
    }


def run_experiment(seed: int = SEED):
    run = _MeshRun(seed)
    static = max(
        (run.static_leg() for _ in range(STATIC_REPS)),
        key=lambda sample: sample["msgs_per_sec"],
    )
    churn = run.churn_leg()
    recovery = run.recovery_ratio()
    result = {
        "hosts": len(run.mesh.hosts),
        "routers": len(run.mesh.routers),
        "pairs": PAIRS,
        "static_msgs_per_sec": static["msgs_per_sec"],
        "churn_msgs_per_sec": churn["msgs_per_sec"],
        "static_resolutions_per_msg": static["resolutions_per_msg"],
        "resolutions_per_msg": churn["resolutions_per_msg"],
        "churn_recovery_ratio": recovery,
        "churn_delivered": churn["delivered"],
        "static_delivered": static["delivered"],
        "soak": _soak(run),
        "seed": seed,
    }
    return result


def render(result):
    legs = Table(
        "E22: scale-out routing on a "
        f"{result['routers']}-router / {result['hosts']}-host grid "
        f"({result['pairs']} pairs)",
        ["leg", "msg/s", "delivered", "resolutions/msg"],
    )
    legs.add_row(
        "static", round(result["static_msgs_per_sec"]),
        result["static_delivered"],
        f"{result['static_resolutions_per_msg']:.3f}",
    )
    legs.add_row(
        "churn", round(result["churn_msgs_per_sec"]),
        result["churn_delivered"],
        f"{result['resolutions_per_msg']:.3f}",
    )
    checks = Table("E22: recovery and soak", ["check", "value"])
    checks.add_row("churn recovery ratio",
                   round(result["churn_recovery_ratio"], 3))
    soak = result["soak"]
    checks.add_row(
        "soak",
        f"{soak['flaps']} flaps, {soak['delivered']} msgs, "
        f"recovery {soak['recovery_ratio']:.3f}",
    )
    checks.add_row(
        "engine caches after soak",
        f"{soak['cached_tables']} tables / {soak['cached_plans']} plans",
    )
    return legs, checks


def test_e22_scaleout(run_once):
    result = run_once(run_experiment)
    report("e22_scaleout", *render(result))
    # One search per gateway shared by its hosts (simulation-exact:
    # 0.075 at the committed seed; one search per host measured 0.43,
    # the per-pair resolver 8.6), and none at all on a fixed topology.
    assert result["resolutions_per_msg"] < 0.1
    assert result["static_resolutions_per_msg"] == 0.0
    # Every pair recovers once the last flap heals (the grid never
    # partitions), and recovery must survive the long soak.
    assert result["churn_recovery_ratio"] == 1.0
    assert result["soak"]["recovery_ratio"] == 1.0
    # Caches bounded by the live working set: at most a table per host.
    assert result["soak"]["cached_tables"] <= result["hosts"]


run = make_run("e22_scaleout", run_experiment, render)


if __name__ == "__main__":
    raise SystemExit(bench_main(run))
