"""The six workloads of the end-to-end benchmark.

Each workload builds a fresh :class:`repro.DashSystem` from the seed,
establishes its channels, and then issues *rounds*: a round's sends are
issued, then ``system.run(until=now + round_sim_s)`` drains them.  The
seed drives ``DashSystem(seed=...)``, payload sizes and bytes and pair
selection; the stack receives only those inputs.

Every payload carries ``(stream id, sequence, sim send time)`` ahead of a
seeded body.  The receiving side checks per-stream order, exact length
(message boundaries) and, on a 1-in-64 sample, the body's crc32, and
folds ``(sim time, stream, seq, length)`` into a running digest of the
delivery trace.

Only default configuration and public attributes of ``repro`` are used
(``ecmp=True`` on the fabric is the one negotiated parameter set), so
the workloads keep measuring the same thing when datapath knobs are
deleted or ``st.py`` is split.
"""

from __future__ import annotations

import itertools
import random
import struct
import time
from zlib import crc32

from repro import DashSystem, DelayBound, DelayBoundType, RmsParams
from repro.netsim import MeshSpec

#: Payload header: stream id, sequence number, simulated send time.
HEADER = struct.Struct("<IId")
#: One delivery-trace record folded into the digest.
DIGEST_RECORD = struct.Struct("<dIII")
#: Distinct seeded bodies per stream.  Prime, so the 1-in-64 crc sample
#: (sequence numbers divisible by 64) walks every body.
BODIES = 61
#: Sizes are drawn uniformly within +-1/32 of the nominal size, so the
#: seed reaches the simulated timings as well as the payload bytes.
SIZE_JITTER = 32

perf_counter = time.perf_counter


def best_effort(capacity: int, max_message_size: int, delay: float,
                per_byte: float, **security) -> RmsParams:
    return RmsParams(
        capacity=capacity,
        max_message_size=max_message_size,
        delay_bound=DelayBound(delay, per_byte),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
        **security,
    )


class Tally:
    """What the receiving side saw, for one rep."""

    __slots__ = ("attempted", "delivered", "payload_bytes", "delays",
                 "digest", "errors")

    def __init__(self) -> None:
        self.attempted = 0
        self.delivered = 0
        self.payload_bytes = 0
        #: Simulated send->deliver delay of every delivery, in order.
        self.delays = []
        self.digest = 0
        self.errors = []

    def error(self, text: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(text)
        else:
            self.errors[-1] = "... more errors"


class Stream:
    """Seeded bodies and sequence state of one checked stream."""

    __slots__ = ("sid", "bodies", "sizes", "crcs", "sent", "expected",
                 "session", "largest")

    def __init__(self, sid: int, rng: random.Random, nominal: int) -> None:
        self.sid = sid
        spread = nominal // SIZE_JITTER
        self.bodies = []
        for _ in range(BODIES):
            size = nominal - HEADER.size + rng.randint(-spread, spread)
            self.bodies.append(rng.randbytes(size))
        self.sizes = [len(body) + HEADER.size for body in self.bodies]
        self.crcs = [crc32(body) for body in self.bodies]
        self.largest = max(self.sizes)
        self.sent = 0
        self.expected = 0
        self.session = None

    def payload(self, now: float) -> bytes:
        seq = self.sent
        self.sent = seq + 1
        return HEADER.pack(self.sid, seq, now) + self.bodies[seq % BODIES]


def check_delivery(stream: Stream, tally: Tally, payload: bytes,
                   now: float) -> None:
    """Verify one delivered payload and account it."""
    sid, seq, sent = HEADER.unpack_from(payload)
    size = len(payload)
    slot = seq % BODIES
    if sid != stream.sid or seq != stream.expected:
        tally.error(
            f"stream {stream.sid}: expected seq {stream.expected}, "
            f"got stream {sid} seq {seq}"
        )
    elif size != stream.sizes[slot]:
        tally.error(
            f"stream {sid} seq {seq}: {size} B delivered, "
            f"{stream.sizes[slot]} B sent"
        )
    elif not seq & 63 and crc32(payload[HEADER.size:]) != stream.crcs[slot]:
        tally.error(f"stream {sid} seq {seq}: body crc mismatch")
    else:
        tally.delivered += 1
        tally.payload_bytes += size
    stream.expected = seq + 1
    tally.delays.append(now - sent)
    tally.digest = crc32(DIGEST_RECORD.pack(now, sid, seq, size), tally.digest)


class Workload:
    """Base class: the rep lifecycle the harness drives."""

    name = ""
    why = ""
    #: Simulated seconds one round is given to drain.
    round_sim_s = 0.0
    #: Rounds in the fixed prefix that the ``sim_`` metrics and the
    #: delivery digest cover; every rep runs at least this many.
    prefix_rounds = 1
    quick_prefix_rounds = 1
    #: Simulated seconds the final drain runs after the last round.
    drain_sim_s = 0.5

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed * 7919 + 17)
        self.system = None
        self.loop = None
        self.tally = Tally()
        self.streams = []
        self.sessions = []
        #: Host seconds per channel of each establishment phase.
        self.establish_s = []
        self.flaps = 0
        #: Deepest event queue seen right after a round's sends.
        self.queue_depth_max = 0

    # -- lifecycle ---------------------------------------------------------

    def build(self) -> None:
        raise NotImplementedError

    def round(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        self.round()

    def drain(self) -> None:
        self.system.run(until=self.system.now + self.drain_sim_s)

    def close(self) -> None:
        for session in self.sessions:
            session.close()
        self.system.run(until=self.system.now + self.drain_sim_s)

    def start_measuring(self) -> None:
        """Forget the warm-up's deliveries; sequence state carries on."""
        tally = Tally()
        self.tally = tally
        for stream in self.streams:
            self._bind(stream, tally)

    def leftover_errors(self):
        """Checks that need the whole rep: nothing sent went missing."""
        tally = self.tally
        errors = list(tally.errors)
        for stream in self.streams:
            if stream.expected != stream.sent:
                errors.append(
                    f"stream {stream.sid}: sent {stream.sent}, "
                    f"delivered {stream.expected}"
                )
        return errors

    # -- helpers -----------------------------------------------------------

    def _system(self) -> DashSystem:
        self.system = DashSystem(seed=self.seed)
        self.loop = self.system.context.loop
        return self.system

    def _bind(self, stream: Stream, tally: Tally) -> None:
        loop = self.loop
        session = stream.session
        if session is None:  # a call stream: its caller checks the replies
            return

        def on_payload(payload) -> None:
            check_delivery(stream, tally, payload, loop.now)

        def on_message(message) -> None:
            check_delivery(stream, tally, message.payload, loop.now)

        if session.kind == "stream":
            session.established.result().drain_to(on_payload)
        else:
            session.port.set_handler(on_message)

    def _new_stream(self, nominal: int) -> Stream:
        stream = Stream(len(self.streams), self.rng, nominal)
        self.streams.append(stream)
        return stream

    def _connect(self, stream: Stream, src: str, dst: str,
                 params: RmsParams, kind: str = "st") -> None:
        session = self.system.connect(src, dst, desired=params,
                                      acceptable=params, kind=kind)
        stream.session = session
        self.sessions.append(session)

    def _establish(self, streams, sim_s: float) -> None:
        """Run until the streams' pending sessions are up."""
        started = perf_counter()
        self.system.run(until=self.system.now + sim_s)
        for stream in streams:
            stream.session.established.result()  # raises what failed it
            if not stream.session.is_up:
                raise RuntimeError(f"{stream.session.name} did not stay up")
            self._bind(stream, self.tally)
        self.establish_s.append((perf_counter() - started) / len(streams))

    def _run_round(self) -> None:
        """Drain what the round just issued."""
        depth = self.loop.queue_depth
        if depth > self.queue_depth_max:
            self.queue_depth_max = depth
        self.system.run(until=self.system.now + self.round_sim_s)

    def _burst(self, stream: Stream, count: int) -> None:
        now = self.loop.now
        send = stream.session.send
        payload = stream.payload
        for _ in range(count):
            send(payload(now))
        self.tally.attempted += count


# ----------------------------------------------------------------------
# LAN workloads
# ----------------------------------------------------------------------


class LanSmallBurst(Workload):
    name = "lan_small_burst"
    why = ("trusted LAN, bursts of 40 x 100 B: piggybacking bundles, security "
           "is elided, no routing - per-message cost of ST, timers, CPU model "
           "and the event loop is everything")
    round_sim_s = 0.02
    prefix_rounds = 400
    quick_prefix_rounds = 40
    burst = 40
    nominal = 100

    def build(self) -> None:
        system = self._system()
        system.add_ethernet(trusted=True)
        system.add_node("a")
        system.add_node("b")
        stream = self._new_stream(self.nominal)
        self._connect(stream, "a", "b",
                      best_effort(32 * 1024, 4000, 0.1, 1e-5))
        self._establish([stream], 2.0)

    def round(self) -> None:
        self._burst(self.streams[0], self.burst)
        self._run_round()


class LanSecuredBulk(Workload):
    name = "lan_secured_bulk"
    why = ("untrusted LAN, privacy+authentication, 4 x 8000 B per round: each "
           "message fragments into ~6 frames sealed and MAC'd in software, so "
           "per-byte security cost dominates and piggybacking is bypassed")
    round_sim_s = 0.1
    prefix_rounds = 60
    quick_prefix_rounds = 4
    drain_sim_s = 1.0
    burst = 4
    nominal = 8000

    def build(self) -> None:
        system = self._system()
        system.add_ethernet(trusted=False)
        system.add_node("a")
        system.add_node("b")
        stream = self._new_stream(self.nominal)
        params = best_effort(64 * 1024, stream.largest, 0.1, 1e-5,
                             privacy=True, authentication=True)
        self._connect(stream, "a", "b", params)
        self._establish([stream], 2.0)
        plan = stream.session.established.result().plan
        if not (plan.encrypt and plan.mac):
            raise RuntimeError("untrusted medium must force software security")

    def round(self) -> None:
        self._burst(self.streams[0], self.burst)
        self._run_round()


class Caller:
    """One closed-loop RKOM caller: its next call leaves from the
    completion callback of the previous one."""

    __slots__ = ("workload", "stream", "rpc", "on_done")

    def __init__(self, workload: "Workload", stream: Stream, rpc) -> None:
        self.workload = workload
        self.stream = stream
        self.rpc = rpc
        self.on_done = self._done  # one bound method, reused per call

    def issue(self) -> None:
        workload = self.workload
        workload.round_calls_left -= 1
        workload.tally.attempted += 1
        handle = self.rpc.call("echo", self.stream.payload(workload.loop.now))
        handle.add_done_callback(self.on_done)

    def _done(self, handle) -> None:
        workload = self.workload
        tally = workload.tally
        if handle.failed:
            tally.error(f"stream {self.stream.sid}: a call failed")
            self.stream.expected += 1
        else:
            check_delivery(self.stream, tally, handle.result(),
                           workload.loop.now)
        if workload.round_calls_left > 0:
            self.issue()


class RkomMixin:
    """Echo service plus checked calls, shared by two workloads."""

    round_calls_left = 0

    def _serve_echo(self, server: str) -> None:
        self.system.nodes[server].rkom.register_handler(
            "echo", lambda payload, sender: payload
        )

    def _new_caller(self, client: str, server: str, nominal: int) -> Caller:
        rpc = self.system.connect(client, server, kind="rkom")
        self.sessions.append(rpc)
        return Caller(self, self._new_stream(nominal), rpc)


class LanRkomClosed(RkomMixin, Workload):
    name = "lan_rkom_closed"
    why = ("trusted LAN, 8 closed-loop callers echoing 64 B: the only "
           "workload where RKOM and both directions of ST on both hosts "
           "carry the load, as request/reply rather than one-way bursts")
    round_sim_s = 0.25
    prefix_rounds = 30
    quick_prefix_rounds = 3
    callers = 8
    calls_per_round = 100
    nominal = 64

    def build(self) -> None:
        system = self._system()
        system.add_ethernet(trusted=True)
        system.add_node("a")
        system.add_node("b")
        self._serve_echo("b")
        self.clients = [
            self._new_caller("a", "b", self.nominal)
            for _ in range(self.callers)
        ]

    def round(self) -> None:
        self.round_calls_left = self.calls_per_round
        for caller in self.clients:
            caller.issue()
        self._run_round()
        if self.round_calls_left:
            self.tally.error(
                f"round ended with {self.round_calls_left} calls unissued"
            )


# ----------------------------------------------------------------------
# Routed workloads
# ----------------------------------------------------------------------


class GridStatic(Workload):
    name = "grid_static"
    why = ("216-host 6x6 router grid, 100 seeded pairs, 2 x 64 B per pair per "
           "round: multi-hop forwarding over compiled route plans - link, "
           "forwarding and the event loop dominate; routing's read path")
    round_sim_s = 0.4
    prefix_rounds = 50
    quick_prefix_rounds = 3
    rows = cols = 6
    hosts_per_router = 6
    pairs = 100
    per_pair = 2
    nominal = 64
    establish_sim_s = 2.0

    def build(self) -> None:
        system = self._system()
        self.network, self.mesh = system.add_mesh(
            "grid", rows=self.rows, cols=self.cols,
            hosts_per_router=self.hosts_per_router,
            network_kwargs={"trusted": True},
        )
        self.params = best_effort(32 * 1024, 512, 0.5, 1e-4)
        self.endpoints = self._choose_pairs()
        for src, dst in self.endpoints:
            self._connect(self._new_stream(self.nominal), src, dst,
                          self.params)
        self._establish(self.streams, self.establish_sim_s)

    def _choose_pairs(self):
        """Seeded host pairs with a fixed profile of router distances.

        Which hosts talk is the seed's choice; how far apart they sit is
        not, or the hop count -- and with it the work and the delay per
        message -- would change from seed to seed.  The profile is that
        of uniformly drawn router pairs, rounded to ``self.pairs``.
        """
        cells = [(row, col) for row in range(self.rows)
                 for col in range(self.cols)]
        by_distance = {}
        for a in cells:
            for b in cells:
                distance = abs(a[0] - b[0]) + abs(a[1] - b[1])
                by_distance.setdefault(distance, []).append((a, b))
        hosts_at = {}
        for host, router in self.mesh.host_router.items():
            hosts_at.setdefault(router, []).append(host)
        total = len(cells) ** 2
        profile = []
        for distance in sorted(by_distance):
            share = len(by_distance[distance]) * self.pairs / total
            profile.extend([distance] * round(share))
        typical = max(by_distance, key=lambda d: len(by_distance[d]))
        profile.extend([typical] * (self.pairs - len(profile)))  # rounding
        chosen = []
        taken = set()
        for distance in profile[:self.pairs]:
            while True:
                a, b = self.rng.choice(by_distance[distance])
                src = self.rng.choice(hosts_at[f"g{a[0]}x{a[1]}"])
                dst = self.rng.choice(hosts_at[f"g{b[0]}x{b[1]}"])
                if src != dst and (src, dst) not in taken:
                    break
            taken.add((src, dst))
            chosen.append((src, dst))
        return chosen

    def traffic(self) -> None:
        for stream in self.streams:
            self._burst(stream, self.per_pair)
        self._run_round()

    round = traffic


class GridChurn(GridStatic):
    name = "grid_churn"
    why = ("same grid and pairs under trunk flaps, each followed by a "
           "1,728-probe reachability sweep and re-establishment: routing's "
           "write path (invalidation, rebuild) plus the channel set-up path")
    prefix_rounds = 4
    quick_prefix_rounds = 1
    probes_per_host = 8

    def build(self) -> None:
        super().build()
        #: Router-router trunks; every grid trunk lies on a cycle, so a
        #: single flap never partitions the mesh.
        self.trunks = []
        for row in range(self.rows):
            for col in range(self.cols):
                here = f"g{row}x{col}"
                if col + 1 < self.cols:
                    self.trunks.append((here, f"g{row}x{col + 1}"))
                if row + 1 < self.rows:
                    self.trunks.append((here, f"g{row + 1}x{col}"))
        hosts = list(self.mesh.hosts)
        self.probes = [
            (src, dst)
            for src in hosts
            for dst in self.rng.sample(hosts, self.probes_per_host)
        ]
        # The flap order is fixed, not seeded.  How many forwarding tables a
        # flap invalidates depends on the trunk and on the flaps before it
        # (90 to 216 of 252 here), and the twenty or so flaps of a rep do
        # not average that out: seeded orders differed by 15% in work.
        order = list(self.trunks)
        random.Random(0).shuffle(order)
        self.flap_order = itertools.cycle(order)
        #: Host seconds of each link transition and each sweep.
        self.transition_s = []
        self.sweep_s = []

    def _set_trunk(self, u: str, v: str, up: bool) -> None:
        started = perf_counter()
        for link in (self.network.link(u, v), self.network.link(v, u)):
            if up:
                link.set_up()
            else:
                link.set_down()
        self.transition_s.append(perf_counter() - started)

    def _sweep(self) -> None:
        started = perf_counter()
        can_reach = self.network.can_reach
        reachable = sum(1 for src, dst in self.probes if can_reach(src, dst))
        self.sweep_s.append(perf_counter() - started)
        if reachable != len(self.probes):
            self.tally.error(
                f"sweep reached {reachable} of {len(self.probes)} probes"
            )

    def _reestablish(self) -> None:
        failed = [
            stream for stream in self.streams if not stream.session.is_up
        ]
        if not failed:
            return
        for stream in failed:
            stream.session.close()
            self.sessions.remove(stream.session)
            src, dst = self.endpoints[stream.sid]
            self._connect(stream, src, dst, self.params)
        self._establish(failed, self.establish_sim_s)

    def round(self) -> None:
        u, v = next(self.flap_order)
        self.flaps += 1
        for up in (False, True):
            self._set_trunk(u, v, up)
            self._sweep()
            self._reestablish()
            self.traffic()


class FabricSecuredMix(RkomMixin, Workload):
    name = "fabric_secured_mix"
    why = ("4-spine/6-leaf ECMP fabric at ~80% of a trunk per leaf uplink: 18 "
           "secured 400 B streams, 6 RKOM clients, 1 windowed byte stream - "
           "how flows spread over the spines sets core queueing, p95 delay, "
           "loss")
    round_sim_s = 0.25
    prefix_rounds = 6
    quick_prefix_rounds = 2
    drain_sim_s = 1.0
    spines = 4
    leaves = 6
    hosts_per_leaf = 3
    burst = 20
    nominal = 400
    calls_per_client = 4
    call_nominal = 64
    #: The flow-controlled stream: messages per round, and a window of
    #: fewer bytes than they add up to.
    flow_burst = 8
    flow_window = 2048

    def build(self) -> None:
        system = self._system()
        self.network, self.mesh = system.add_mesh(
            "two_tier", ecmp=True, spines=self.spines, leaves=self.leaves,
            hosts_per_leaf=self.hosts_per_leaf,
            spec=MeshSpec(trunk_bandwidth=1.25e5, trunk_delay=1e-3,
                          access_bandwidth=2.5e6, access_delay=1e-4,
                          buffer_bytes=64 * 1024),
        )
        params = best_effort(16 * 1024, 512, 0.5, 1e-4,
                             privacy=True, authentication=True)
        per_leaf = self.hosts_per_leaf
        # A cross-leaf perfect matching: every host sends one stream and
        # receives one.
        for leaf in range(self.leaves):
            for slot in range(per_leaf):
                peer_leaf = (leaf + 1 + slot) % self.leaves
                self._connect(
                    self._new_stream(self.nominal),
                    f"h{leaf * per_leaf + slot}",
                    f"h{peer_leaf * per_leaf + slot}",
                    params,
                )
        self.data_streams = list(self.streams)
        self._establish(self.data_streams, 2.0)
        for stream in self.data_streams:
            plan = stream.session.established.result().plan
            if not (plan.encrypt and plan.mac):
                raise RuntimeError(
                    "untrusted fabric must force software security"
                )
        self.clients = []
        for leaf in range(self.leaves):
            server_leaf = (leaf + self.leaves // 2) % self.leaves
            server = f"h{server_leaf * per_leaf + 1}"
            self._serve_echo(server)
            self.clients.append(
                self._new_caller(f"h{leaf * per_leaf}", server,
                                 self.call_nominal)
            )
        # One reliable byte stream across the core, flow-controlled the
        # default way (ack-paced window and receiver credit).  A round's
        # burst exceeds the window, so the enforcers refuse, queue and
        # release on acknowledgements in every round.
        self.flow_stream = self._new_stream(self.nominal)
        self._connect(
            self.flow_stream, f"h{per_leaf - 1}",
            f"h{(self.leaves // 2 + 1) * per_leaf - 1}",
            best_effort(self.flow_window, 512, 0.5, 1e-4),
            kind="stream",
        )
        self._establish([self.flow_stream], 2.0)

    def round(self) -> None:
        for stream in self.data_streams:
            self._burst(stream, self.burst)
        self._burst(self.flow_stream, self.flow_burst)
        # Open-loop calls: nothing is re-issued from a completion.
        self.round_calls_left = 0
        for caller in self.clients:
            for _ in range(self.calls_per_client):
                caller.issue()
        self._run_round()


WORKLOADS = {
    cls.name: cls
    for cls in (LanSmallBurst, LanSecuredBulk, LanRkomClosed, GridStatic,
                GridChurn, FabricSecuredMix)
}
