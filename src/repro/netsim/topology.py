"""Hosts and links: the physical pieces of simulated networks.

A :class:`Link` serializes frames at a fixed bandwidth with a
propagation delay, holds a bounded, deadline-ordered transmission queue
(section 4.3.1: "transmission deadlines determine the order in which
messages are sent"), and applies an impairment model.  A :class:`Host`
owns a CPU (for deadline-scheduled protocol processing, section 4.1) and
its network attachments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Dict, Optional

from repro.errors import NetworkError
from repro.netsim.errors_model import ImpairmentModel
from repro.netsim.packet import Frame
from repro.obs.registry import families
from repro.sched.cpu import HostCpu
from repro.sched.policies import key_slot
from repro.sim.context import SimContext
from repro.sim.events import Signal
from repro.sim.ports import Port

__all__ = [
    "Link",
    "Host",
    "LinkStats",
    "Mesh",
    "MeshSpec",
    "build_grid",
    "build_two_tier",
]


@dataclass
class LinkStats:
    """Counters for one link."""

    frames_transmitted: int = 0
    bytes_transmitted: int = 0
    frames_dropped_overrun: int = 0
    frames_dropped_loss: int = 0
    frames_corrupted: int = 0
    max_queue_bytes: int = 0


_FAMILIES = {
    **families("link", LinkStats),
    **families("link", ("max_queue_bytes",), kind="gauge"),
}


class Link:
    """A simplex transmission resource with a bounded deadline queue.

    ``deliver`` (per-transmit) is invoked at the far end after
    transmission and propagation.  Frames offered while the queue holds
    ``buffer_bytes`` are dropped as buffer overruns.  Queue order follows
    the configured policy; EDF realizes the paper's deadline-based
    interface scheduling, FIFO is the ablation baseline.

    Per hop a frame runs :meth:`transmit` (with ``Frame.size``) and
    ``_transmission_done`` (with the impairment model's ``loses_frame``
    and ``maybe_corrupt``), which push and pop the stable ``(key, seq,
    frame, size, deliver, on_drop)`` heap themselves (DESIGN 8.3), and on
    a routed path the route plan's deliver closure for the next hop.  The
    ``netsim.link`` and ``netsim.routing`` rows of ``BUDGET.json`` hold
    what that comes to per message.
    """

    def __init__(
        self,
        context: SimContext,
        name: str,
        bandwidth: float,  # bytes per second
        propagation_delay: float,  # seconds
        buffer_bytes: int = 256 * 1024,
        policy: str = "edf",
        impairment: Optional[ImpairmentModel] = None,
    ) -> None:
        if bandwidth <= 0:
            raise NetworkError(f"link bandwidth must be > 0: {bandwidth}")
        if propagation_delay < 0:
            raise NetworkError(f"propagation delay must be >= 0: {propagation_delay}")
        self.context = context
        self.name = name
        self.bandwidth = bandwidth
        self.propagation_delay = propagation_delay
        self.buffer_bytes = buffer_bytes
        self.impairment = impairment or ImpairmentModel()
        self._ready: list = []
        self._key_slot = key_slot(policy)
        self._seq = itertools.count()
        self.policy = policy
        self._queued_bytes = 0
        self._busy = False
        self._up = True
        self.stats = LinkStats()
        context.obs.metrics.watch(self.stats, _FAMILIES, link=name)
        self.on_down: Signal = Signal(context.loop)
        self.on_up: Signal = Signal(context.loop)
        self._rng = context.rng.stream(f"link:{name}")
        #: Optional observer of overruns (used by source-quench gateways).
        self.on_overrun: Optional[Callable[[Frame], None]] = None

    @property
    def is_up(self) -> bool:
        return self._up

    @property
    def queued_bytes(self) -> int:
        return self._queued_bytes

    @property
    def queue_length(self) -> int:
        return len(self._ready)

    def transmission_time(self, size_bytes: int) -> float:
        return size_bytes / self.bandwidth

    def transmit(
        self,
        frame: Frame,
        deliver: Callable[[Frame], None],
        on_drop: Optional[Callable[[Frame, str], None]] = None,
    ) -> bool:
        """Queue ``frame`` for transmission; returns False on overrun drop."""
        if not self._up:
            if on_drop is not None:
                on_drop(frame, "link down")
            return False
        size = frame.size
        queued = self._queued_bytes + size
        if queued > self.buffer_bytes:
            self.stats.frames_dropped_overrun += 1
            if self.on_overrun is not None:
                self.on_overrun(frame)
            if on_drop is not None:
                on_drop(frame, "buffer overrun")
            return False
        self._queued_bytes = queued
        if queued > self.stats.max_queue_bytes:
            self.stats.max_queue_bytes = queued
        if self._busy:
            key = (0, frame.deadline, 0)[self._key_slot]
            heappush(self._ready,
                     (key, next(self._seq), frame, size, deliver, on_drop))
        else:
            # Idle link: start transmitting directly (any policy pops a
            # singleton heap identically).  ``_busy`` alone says whether
            # the frame has company: a non-empty queue implies it, since
            # ``set_down`` drains the whole queue, ``transmit`` refuses
            # while down and a completion holds ``_busy`` until it has
            # started the next frame.
            self._busy = True
            self.context.loop.call_after(
                size / self.bandwidth, self._transmission_done,
                frame, size, deliver, on_drop,
            )
        return True

    def _transmission_done(
        self,
        frame: Frame,
        size: int,
        deliver: Callable[[Frame], None],
        on_drop: Optional[Callable[[Frame, str], None]],
    ) -> None:
        self._queued_bytes -= size
        if not self._up:
            self._busy = False
            if on_drop is not None:
                on_drop(frame, "link down")
            return
        stats = self.stats
        stats.frames_transmitted += 1
        stats.bytes_transmitted += size
        loop = self.context.loop
        try:
            if self.impairment.loses_frame(self._rng):
                stats.frames_dropped_loss += 1
                if on_drop is not None:
                    on_drop(frame, "medium loss")
            else:
                if self.impairment.maybe_corrupt(frame, self._rng):
                    stats.frames_corrupted += 1
                loop.call_after(self.propagation_delay, deliver, frame)
        finally:
            # ``_busy`` is held across the drop callback -- a frame it
            # offers queues behind what is already waiting instead of
            # jumping it -- and released here even when it raises.
            ready = self._ready
            if ready and self._up:
                _, _, frame, size, deliver, on_drop = heappop(ready)
                loop.call_after(
                    size / self.bandwidth, self._transmission_done,
                    frame, size, deliver, on_drop,
                )
            else:
                self._busy = False

    def set_down(self) -> None:
        """Fail the link; queued frames are discarded, listeners notified."""
        if not self._up:
            return
        self._up = False
        ready = self._ready
        errors = []
        try:
            while ready:
                _, _, frame, size, _deliver, on_drop = heappop(ready)
                self._queued_bytes -= size
                if on_drop is not None:
                    try:
                        on_drop(frame, "link down")
                    except Exception as error:  # the drain goes on
                        errors.append(error)
        finally:
            self.on_down.fire(self)
        if errors:
            raise errors[0]

    def set_up(self) -> None:
        """Restore the link and resume transmission of queued frames."""
        if self._up:
            return
        self._up = True
        self.on_up.fire(self)

    def __repr__(self) -> str:
        state = "up" if self._up else "down"
        return f"<Link {self.name} {state} queued={self._queued_bytes}B>"


class Host:
    """A simulated machine: a name, a CPU, named ports, attachments."""

    def __init__(
        self, context: SimContext, name: str, cpu_policy: str = "edf"
    ) -> None:
        self.context = context
        self.name = name
        self.cpu = HostCpu(context, name=f"{name}.cpu", policy=cpu_policy)
        self.ports: Dict[str, Port] = {}
        self.networks: Dict[str, "object"] = {}  # network name -> network

    def bind_port(self, port_name: str) -> Port:
        """Create (or return) a named passive port on this host."""
        if port_name not in self.ports:
            self.ports[port_name] = Port(
                self.context.loop, name=f"{self.name}:{port_name}"
            )
        return self.ports[port_name]

    def pause(self) -> None:
        """Chaos hook: freeze protocol processing on this host's CPU."""
        self.cpu.pause()

    def resume(self) -> None:
        """Undo :meth:`pause`; queued protocol stages dispatch again."""
        self.cpu.resume()

    def __repr__(self) -> str:
        return f"<Host {self.name} nets={sorted(self.networks)}>"


# -- mesh builders (scale-out benchmarking, section 4.3) ---------------------
#
# The paper's internetwork is "point-to-point links between packet
# switches"; these helpers stamp out the standard switch fabrics used by
# the scale-out routing benchmarks: a grid (long multi-hop paths) and a
# two-tier spine/leaf fabric (many equal-cost core crossings).  They only *build*
# topology -- hosts come from an ``attach_host`` callback so the same
# builders serve plain netsim benches and full DASH systems.


class MeshSpec:
    """Link parameters shared by the mesh builders.

    Trunk links connect routers; access links connect hosts to their
    edge router.  Access links are faster and shorter so router-to-
    router forwarding, not the last hop, dominates path cost.
    """

    __slots__ = (
        "trunk_bandwidth", "trunk_delay", "access_bandwidth",
        "access_delay", "buffer_bytes",
    )

    def __init__(
        self,
        trunk_bandwidth: float = 1.25e6,
        trunk_delay: float = 1e-3,
        access_bandwidth: float = 2.5e6,
        access_delay: float = 2e-4,
        buffer_bytes: int = 64 * 1024,
    ) -> None:
        self.trunk_bandwidth = trunk_bandwidth
        self.trunk_delay = trunk_delay
        self.access_bandwidth = access_bandwidth
        self.access_delay = access_delay
        self.buffer_bytes = buffer_bytes


class Mesh:
    """What a mesh builder made: node names by role."""

    __slots__ = ("routers", "hosts", "host_router")

    def __init__(self, routers, hosts, host_router) -> None:
        self.routers: list = routers
        self.hosts: list = hosts
        #: host name -> its edge router's name.
        self.host_router: Dict[str, str] = host_router

    def __repr__(self) -> str:
        return f"<Mesh routers={len(self.routers)} hosts={len(self.hosts)}>"


def _require_size(value: int, floor: int, what: str, why: str) -> None:
    # Builder shape validation.  Degenerate sizes used to produce
    # *silently* broken meshes (a 1xN "grid" is a chain, a single-spine
    # "fabric" has no path diversity); reject them loudly instead.
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if value < floor:
        raise ValueError(f"{what} must be >= {floor} ({why}), got {value}")


def _default_attach_host(network, name: str) -> str:
    network.attach(Host(network.context, name))
    return name


def _attach_hosts(network, mesh, router, count, prefix, spec, attach_host):
    attach = attach_host or _default_attach_host
    for _ in range(count):
        name = attach(network, f"{prefix}{len(mesh.hosts)}")
        network.add_link(
            name, router,
            bandwidth=spec.access_bandwidth,
            propagation_delay=spec.access_delay,
            buffer_bytes=spec.buffer_bytes,
        )
        mesh.hosts.append(name)
        mesh.host_router[name] = router


def build_grid(
    network,
    rows: int,
    cols: int,
    hosts_per_router: int = 1,
    spec: Optional[MeshSpec] = None,
    attach_host: Optional[Callable[[object, str], str]] = None,
    host_prefix: str = "h",
) -> Mesh:
    """A rows x cols router grid with 4-neighbor trunks.

    Worst-case paths are ``rows + cols`` hops, so this is the builder
    that stresses multi-hop forwarding cost.
    """
    _require_size(rows, 2, "grid rows", "a 1xN grid degenerates to a chain")
    _require_size(cols, 2, "grid cols", "an Nx1 grid degenerates to a chain")
    _require_size(hosts_per_router, 0, "hosts_per_router", "cannot be negative")
    spec = spec or MeshSpec()
    mesh = Mesh([], [], {})
    for row in range(rows):
        for col in range(cols):
            name = f"g{row}x{col}"
            network.add_router(name)
            mesh.routers.append(name)
    for row in range(rows):
        for col in range(cols):
            name = f"g{row}x{col}"
            if col + 1 < cols:
                network.add_link(
                    name, f"g{row}x{col + 1}",
                    bandwidth=spec.trunk_bandwidth,
                    propagation_delay=spec.trunk_delay,
                    buffer_bytes=spec.buffer_bytes,
                )
            if row + 1 < rows:
                network.add_link(
                    name, f"g{row + 1}x{col}",
                    bandwidth=spec.trunk_bandwidth,
                    propagation_delay=spec.trunk_delay,
                    buffer_bytes=spec.buffer_bytes,
                )
    for router in mesh.routers:
        _attach_hosts(
            network, mesh, router, hosts_per_router, host_prefix, spec,
            attach_host,
        )
    return mesh


def build_two_tier(
    network,
    spines: int,
    leaves: int,
    hosts_per_leaf: int = 1,
    spec: Optional[MeshSpec] = None,
    attach_host: Optional[Callable[[object, str], str]] = None,
    host_prefix: str = "h",
) -> Mesh:
    """A fat-tree-ish spine/leaf fabric: full spine-leaf bipartite trunks.

    Many equal-cost two-trunk paths cross the core, so this is the
    builder that stresses tie-breaking stability and table reuse (and,
    under ECMP, flow spreading across the spine trunks).
    """
    _require_size(spines, 2, "two-tier spines",
                  "a single spine has no equal-cost path diversity")
    _require_size(leaves, 2, "two-tier leaves",
                  "one leaf has no inter-leaf traffic")
    _require_size(hosts_per_leaf, 0, "hosts_per_leaf", "cannot be negative")
    spec = spec or MeshSpec()
    mesh = Mesh([], [], {})
    for spine in range(spines):
        name = f"spine{spine}"
        network.add_router(name)
        mesh.routers.append(name)
    for leaf in range(leaves):
        name = f"leaf{leaf}"
        network.add_router(name)
        mesh.routers.append(name)
        for spine in range(spines):
            network.add_link(
                name, f"spine{spine}",
                bandwidth=spec.trunk_bandwidth,
                propagation_delay=spec.trunk_delay,
                buffer_bytes=spec.buffer_bytes,
            )
        _attach_hosts(
            network, mesh, name, hosts_per_leaf, host_prefix, spec,
            attach_host,
        )
    return mesh
