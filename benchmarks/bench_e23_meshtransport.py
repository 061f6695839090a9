"""E23 -- mesh-scale full-stack transport: ECMP over a two-tier fabric.

E22 proved the routing engine scales *route resolution*; this bench is
the first to drive the **whole DASH stack** -- secured ST streams
(privacy + authentication, software transforms on the untrusted
medium), piggybacking, and RKOM request/reply -- over a router fabric,
and measures what the engine's equal-cost multipath mode buys at the
saturated core.

The fabric is a spine/leaf two-tier (``build_two_tier``): every
inter-leaf pair has one equal-cost path per spine.  The single-path
engine deterministically tie-breaks them all onto ``spine0`` (heap
order), so one trunk saturates while its siblings idle -- the ROADMAP
gap this PR closes.  With ``ecmp=True`` each flow (one per network RMS,
keyed per (src, dst) creation order) is pinned by a deterministic hash
to one equal-cost plan, spreading distinct flows across the spines
while every flow keeps in-order delivery on its pinned path.

Four legs, asserted by ``check``:

* **Throughput ablation** -- identical secured-stream workload, arms
  ``ecmp=True`` / ``ecmp=False``, offered load ~2.5x one trunk per
  leaf.  The headline ``ecmp_speedup`` is the ratio of aggregate
  delivered payload bytes per *simulated* second (deterministic, so CI
  can gate it exactly); Jain's fairness index over per-trunk bytes
  (``repro.obs.LinkUtilizationCollector``) shows *why*: the single
  path arm sits near 1/spines, ECMP near 1.
* **RKOM leg** -- request/reply calls from every leaf cross the same
  saturated core; calls per simulated second, both arms.
* **Flap leg** (ECMP arm) -- one loaded trunk dies: only the streams
  whose pinned plan traverses it fail, surviving equal-cost siblings
  absorb the re-established flows while unaffected streams keep
  delivering, and the trunk's return restores the spread.
* **Tie-free trace equality** -- the same full stack over a tie-free
  WAN, ECMP on vs off, one seed, lossy links: byte-identical delivery
  traces (ECMP must be a provable no-op without cost ties).

Its exact checks are also tier-1 tests (``tests/test_mesh_experiments.py``);
see DESIGN.md section 8.8 for the engine design.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from common import Table, bench_main, make_run
from repro.core.params import DelayBound, DelayBoundType, RmsParams
from repro.dash.system import DashSystem
from repro.netsim.topology import MeshSpec
from repro.obs import LinkUtilizationCollector

SEED = 23

#: The fabric: 4 spines x 6 leaves, 3 hosts per leaf = 18 hosts, every
#: inter-leaf pair with 4 equal-cost two-trunk paths across the core.
SPINES = 4
LEAVES = 6
HOSTS_PER_LEAF = 3
#: Slow trunks against fast access links put the bottleneck squarely in
#: the core; 125 KB/s per trunk keeps the simulated second cheap.
SPEC = MeshSpec(
    trunk_bandwidth=1.25e5,
    trunk_delay=1e-3,
    access_bandwidth=2.5e6,
    access_delay=1e-4,
    buffer_bytes=64 * 1024,
)
#: One secured stream per host (a perfect cross-leaf matching: every
#: host sends one stream and receives one).
PAYLOAD = b"\xe2\x23" * 200  # 400 bytes, sealed + MAC'd in software
#: Messages per stream per round; at 4 rounds/sim-second this offers
#: ~2.4x one trunk's bandwidth per leaf uplink.
BURST = 56
ROUND_TIME = 0.25  # simulated seconds per traffic round
WARMUP_ROUNDS = 2
MEASURED_ROUNDS = 8
#: RKOM leg: echo calls per leaf client per round.
RKOM_CALLS = 4
RKOM_ROUNDS = 4


def _secured_params() -> RmsParams:
    return RmsParams(
        privacy=True,
        authentication=True,
        capacity=16 * 1024,
        max_message_size=512,
        delay_bound=DelayBound(0.5, 1e-4),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
    )


def _stream_pairs() -> List[Tuple[str, str]]:
    """A deterministic cross-leaf perfect matching, host i -> one peer."""
    pairs = []
    for leaf in range(LEAVES):
        for slot in range(HOSTS_PER_LEAF):
            peer_leaf = (leaf + 1 + slot) % LEAVES
            pairs.append((
                f"h{leaf * HOSTS_PER_LEAF + slot}",
                f"h{peer_leaf * HOSTS_PER_LEAF + slot}",
            ))
    return pairs


class _MeshArm:
    """One ablation arm: the full DASH stack over the two-tier fabric."""

    def __init__(self, seed: int, ecmp: bool) -> None:
        self.ecmp = ecmp
        self.system = DashSystem(seed=seed)
        self.network, self.mesh = self.system.add_mesh(
            "two_tier",
            ecmp=ecmp,
            spines=SPINES,
            leaves=LEAVES,
            hosts_per_leaf=HOSTS_PER_LEAF,
            spec=SPEC,
        )
        # One flap before any streams exist, identical in both arms:
        # the committed figures were measured with it.
        primer = self.network.link("leaf0", "spine0")
        primer.set_down()
        primer.set_up()
        self.pairs = _stream_pairs()
        self.params = _secured_params()
        self.streams: Dict[Tuple[str, str], object] = {}
        self.delivered_bytes: Dict[Tuple[str, str], int] = {}
        self.failed: Dict[Tuple[str, str], str] = {}
        self.collector = LinkUtilizationCollector(self.network)

    # -- streams ----------------------------------------------------------

    def _watch(self, pair: Tuple[str, str], rms) -> None:
        self.streams[pair] = rms
        self.delivered_bytes.setdefault(pair, 0)

        def on_message(message, pair=pair):
            self.delivered_bytes[pair] += len(message.payload)

        rms.port.set_handler(on_message)
        rms.on_failure.listen(
            lambda rms, reason, pair=pair: self.failed.setdefault(pair, reason)
        )

    def establish(self, pairs: Optional[List[Tuple[str, str]]] = None,
                  tag: str = "s") -> None:
        pending = []
        for index, pair in enumerate(pairs or self.pairs):
            session = self.system.connect(
                pair[0], pair[1],
                desired=self.params, acceptable=self.params,
                port=f"{tag}{index}", fast_ack=False,
            )
            pending.append((pair, session))
        self.system.run(until=self.system.now + 2.0)
        for pair, session in pending:
            rms = session.established.result()
            assert rms.plan.encrypt and rms.plan.mac, \
                "untrusted medium must force software security"
            self._watch(pair, rms)

    def traffic_round(self) -> None:
        for pair, rms in self.streams.items():
            if pair in self.failed:
                continue
            try:
                for _ in range(BURST):
                    rms.send(PAYLOAD)
            except Exception:
                # A stream torn down mid-round (flap leg): counted via
                # its on_failure listener, not here.
                pass
        self.system.run(until=self.system.now + ROUND_TIME)

    # -- legs -------------------------------------------------------------

    def throughput_leg(self) -> Dict[str, float]:
        self.establish()
        for _ in range(WARMUP_ROUNDS):
            self.traffic_round()
        marks = dict(self.delivered_bytes)
        self.collector.mark()
        sim_start = self.system.now
        for _ in range(MEASURED_ROUNDS):
            self.traffic_round()
        sim_elapsed = self.system.now - sim_start
        delivered = sum(
            self.delivered_bytes[pair] - marks.get(pair, 0)
            for pair in self.pairs
        )
        spines = {f"spine{i}" for i in range(SPINES)}
        uplinks = [
            edge for edge in self.collector.delta()
            if edge[1] in spines
        ]
        return {
            "delivered_bytes": delivered,
            "bytes_per_sec": delivered / sim_elapsed,
            "jain_trunks": self.collector.fairness(),
            "jain_uplinks": self.collector.fairness(uplinks),
            "capacity_violations": sum(
                rms.stats.capacity_violations for rms in self.streams.values()
            ),
        }

    def rkom_leg(self) -> Dict[str, float]:
        clients = []
        for leaf in range(LEAVES):
            client = f"h{leaf * HOSTS_PER_LEAF}"
            server_leaf = (leaf + LEAVES // 2) % LEAVES
            server = f"h{server_leaf * HOSTS_PER_LEAF + 1}"
            self.system.nodes[server].rkom.register_handler(
                "echo", lambda payload, sender: payload
            )
            clients.append(self.system.connect(client, server, kind="rkom"))
        handles = []
        sim_start = self.system.now
        for _ in range(RKOM_ROUNDS):
            for rpc in clients:
                for _ in range(RKOM_CALLS):
                    handles.append(rpc.call("echo", b"e23-ping"))
            self.system.run(until=self.system.now + ROUND_TIME)
        self.system.run(until=self.system.now + 1.0)
        sim_elapsed = self.system.now - sim_start
        completed = sum(
            1 for handle in handles if handle.done and not handle.failed
        )
        return {
            "calls": len(handles),
            "completed": completed,
            "calls_per_sec": completed / sim_elapsed,
        }

    # -- flap leg (ECMP arm only) -----------------------------------------

    def flap_leg(self) -> Dict[str, object]:
        engine = self.network._engine
        network = self.network

        def data_route(rms) -> List[str]:
            return list(rms.binding.network_rms.route)

        # Flap the loaded uplink trunk of leaf0's first stream.
        first = self.streams[self.pairs[0]]
        spine = data_route(first)[2]
        edge = ("leaf0", spine)

        def crosses(route: List[str]) -> bool:
            return any(
                (route[i], route[i + 1]) in (edge, edge[::-1])
                for i in range(len(route) - 1)
            )

        pinned_through = {
            pair for pair, rms in self.streams.items()
            if crosses(data_route(rms))
        }
        survivors = set(self.pairs) - pinned_through
        self.failed.clear()
        marks = dict(self.delivered_bytes)
        full_before = engine.full_invalidations
        prunes_before = engine.dag_prunes
        network.link(*edge).set_down()
        network.link(edge[1], edge[0]).set_down()
        self.traffic_round()
        self.traffic_round()
        failed_streams = set(self.failed)
        survivors_delivering = sum(
            1 for pair in survivors
            if self.delivered_bytes[pair] > marks.get(pair, 0)
        )
        # Re-establish exactly the failed streams: their new flows must
        # pin onto surviving equal-cost siblings.
        rerouted = sorted(failed_streams)
        self.establish(rerouted, tag="r")
        for pair in rerouted:
            self.failed.pop(pair, None)
        rerouted_avoid_edge = all(
            not crosses(data_route(self.streams[pair])) for pair in rerouted
        )
        self.traffic_round()
        network.link(*edge).set_up()
        network.link(edge[1], edge[0]).set_up()
        marks = dict(self.delivered_bytes)
        self.failed.clear()
        self.traffic_round()
        all_delivering = sum(
            1 for pair in self.pairs
            if self.delivered_bytes[pair] > marks.get(pair, 0)
        )
        return {
            "flapped_edge": list(edge),
            "streams": len(self.pairs),
            "pinned_through": len(pinned_through),
            "failed": len(failed_streams),
            "failed_match_pinned": failed_streams == pinned_through,
            "survivors_delivering": survivors_delivering,
            "survivors": len(survivors),
            "rerouted_avoid_edge": rerouted_avoid_edge,
            "full_invalidations": engine.full_invalidations - full_before,
            "dag_prunes": engine.dag_prunes - prunes_before,
            "recovered_delivering": all_delivering,
        }


# ----------------------------------------------------------------------
# Tie-free trace equality: the full stack, ECMP on vs off
# ----------------------------------------------------------------------


def _tiefree_trace(ecmp: bool) -> List[Tuple[object, object]]:
    """Secured ST delivery trace over a tie-free lossy WAN, one seed."""
    system = DashSystem(seed=77)
    network = system.add_internet("wan0", trusted=False, ecmp=ecmp)
    system.add_node("a", network_names=["wan0"])
    system.add_node("b", network_names=["wan0"])
    network.add_router("r1")
    network.add_router("r2")
    network.add_link("a", "r1", bandwidth=2.5e5, propagation_delay=1e-3)
    network.add_link("r1", "r2", bandwidth=1.25e5, propagation_delay=2e-3,
                     frame_loss_rate=0.08)
    network.add_link("r2", "b", bandwidth=2.5e5, propagation_delay=1e-3)
    params = _secured_params()
    session = system.connect("a", "b", desired=params, acceptable=params,
                             port="trace")
    system.run(until=system.now + 2.0)
    rms = session.established.result()
    assert rms.plan.encrypt and rms.plan.mac
    trace: List[Tuple[object, object]] = []
    rms.port.set_handler(
        lambda message: trace.append((bytes(message.payload), system.now))
    )
    for index in range(80):
        rms.send(bytes([index % 251]) * 120)
        if index % 8 == 7:
            system.run(until=system.now + 0.05)
    system.run(until=system.now + 3.0)
    trace.append((rms.stats.messages_sent, rms.stats.messages_delivered))
    return trace


# ----------------------------------------------------------------------


def run_experiment(seed: int = SEED):
    arms = {}
    for name, ecmp in (("ecmp", True), ("single", False)):
        arm = _MeshArm(seed, ecmp=ecmp)
        arms[name] = {
            "arm": arm,
            "throughput": arm.throughput_leg(),
            "rkom": arm.rkom_leg(),
        }
    flap = arms["ecmp"]["arm"].flap_leg()
    trace_on = _tiefree_trace(ecmp=True)
    trace_off = _tiefree_trace(ecmp=False)
    ecmp_tp = arms["ecmp"]["throughput"]
    single_tp = arms["single"]["throughput"]
    result = {
        "hosts": len(arms["ecmp"]["arm"].mesh.hosts),
        "routers": len(arms["ecmp"]["arm"].mesh.routers),
        "streams": len(arms["ecmp"]["arm"].pairs),
        "ecmp_bytes_per_sec": ecmp_tp["bytes_per_sec"],
        "single_bytes_per_sec": single_tp["bytes_per_sec"],
        "ecmp_speedup":
            ecmp_tp["bytes_per_sec"] / single_tp["bytes_per_sec"],
        "jain_ecmp": ecmp_tp["jain_uplinks"],
        "jain_single": single_tp["jain_uplinks"],
        "jain_trunks_ecmp": ecmp_tp["jain_trunks"],
        "jain_trunks_single": single_tp["jain_trunks"],
        "ecmp_rkom_calls_per_sec": arms["ecmp"]["rkom"]["calls_per_sec"],
        "single_rkom_calls_per_sec": arms["single"]["rkom"]["calls_per_sec"],
        "rkom_calls": arms["ecmp"]["rkom"]["calls"],
        "rkom_completed": arms["ecmp"]["rkom"]["completed"],
        "flap": flap,
        "tiefree_trace_identical": trace_on == trace_off,
        "trace_deliveries": len(trace_on) - 1,
        "seed": seed,
    }
    return result


def render(result):
    throughput = Table(
        "E23: secured full-stack transport over a "
        f"{SPINES}-spine/{LEAVES}-leaf fabric "
        f"({result['streams']} streams, saturated core)",
        ["arm", "payload B/s (sim)", "RKOM calls/s", "Jain (uplinks)"],
    )
    throughput.add_row(
        "ecmp", round(result["ecmp_bytes_per_sec"]),
        round(result["ecmp_rkom_calls_per_sec"], 1),
        round(result["jain_ecmp"], 3),
    )
    throughput.add_row(
        "single-path", round(result["single_bytes_per_sec"]),
        round(result["single_rkom_calls_per_sec"], 1),
        round(result["jain_single"], 3),
    )
    flap = result["flap"]
    checks = Table(
        "E23: speedup, trunk flap, and tie-free trace equality",
        ["check", "value"],
    )
    checks.add_row("ecmp speedup (delivered bytes/sim-s)",
                   round(result["ecmp_speedup"], 2))
    checks.add_row(
        "flap: failed == pinned-through",
        f"{flap['failed_match_pinned']} "
        f"({flap['pinned_through']}/{flap['streams']} pinned through "
        f"{'->'.join(flap['flapped_edge'])})",
    )
    checks.add_row(
        "flap: unaffected streams kept delivering",
        f"{flap['survivors_delivering']}/{flap['survivors']}",
    )
    checks.add_row("flap: re-pinned flows avoid the dead trunk",
                   flap["rerouted_avoid_edge"])
    checks.add_row(
        "flap: full invalidations / DAG prunes",
        f"{flap['full_invalidations']} / {flap['dag_prunes']}",
    )
    checks.add_row(
        "flap: streams delivering after the trunk healed",
        f"{flap['recovered_delivering']}/{flap['streams']}",
    )
    checks.add_row("tie-free full-stack trace identical (ecmp on vs off)",
                   result["tiefree_trace_identical"])
    checks.add_row("trace deliveries", result["trace_deliveries"])
    return throughput, checks


def check(result) -> None:
    # The tentpole claim: spreading flows across equal-cost trunks
    # delivers >= 1.5x the aggregate secured payload of the single-path
    # engine at the saturated core (simulated-time rates: exact).
    assert result["ecmp_speedup"] >= 1.5
    # The mechanism: trunk load balance, not some second-order effect.
    assert result["jain_ecmp"] > result["jain_single"]
    # The flap kills exactly the pinned-through streams, and the
    # siblings absorb the re-established flows.
    flap = result["flap"]
    assert flap["failed_match_pinned"]
    assert 0 < flap["pinned_through"] < flap["streams"]
    assert flap["survivors_delivering"] == flap["survivors"]
    assert flap["rerouted_avoid_edge"]
    assert flap["recovered_delivering"] == flap["streams"]
    # RKOM crossed the same core in both arms.
    assert result["rkom_completed"] == result["rkom_calls"]
    # ECMP without cost ties is a no-op, byte for byte.
    assert result["tiefree_trace_identical"]
    assert result["trace_deliveries"] > 0


run = make_run("e23_meshtransport", run_experiment, render, check)


if __name__ == "__main__":
    raise SystemExit(bench_main(run))
