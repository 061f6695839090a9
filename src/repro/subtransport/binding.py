"""Which network reaches a peer, and which network RMS carries a stream
(paper section 4.2).

Per peer host the ST keeps a set of *data network RMSs*, cached and
multiplexed, each wrapped in a :class:`~repro.subtransport.mux.MuxBinding`
with its piggybacking queue.  :class:`NetworkBindings` picks the network
a peer is reached over (and re-points the peer when that network dies),
places a new ST RMS on a live, cached or fresh network RMS under the
multiplexing rules, and retires a binding when its last ST RMS leaves.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.message import Label
from repro.core.params import DelayBoundType, RmsParams, StatisticalSpec
from repro.errors import AdmissionError, TransportError
from repro.netsim.network import Network
from repro.netsim.topology import Host
from repro.sim.context import SimContext
from repro.sim.events import TimerGroup
from repro.subtransport.config import StConfig, network_bounds
from repro.subtransport.control import ControlChannel
from repro.subtransport.mux import MuxBinding
from repro.subtransport.piggyback import QUEUE_FAMILIES, PiggybackQueue
from repro.subtransport.security import plan_security
from repro.subtransport.strms import StRms

__all__ = ["DATA_PORT", "NetworkBindings", "Peer"]

DATA_PORT = "st-data"
#: Cached idle data network RMSs kept per peer host (4.2).
CACHE_SIZE_PER_PEER = 4
#: Least capacity asked of a best-effort data network RMS.
DEFAULT_NETWORK_CAPACITY = 64 * 1024


class Peer:
    """Everything the ST knows about one remote host."""

    def __init__(self, host_name: str, timers: TimerGroup) -> None:
        self.host_name = host_name
        #: Set by the layer, once.  A live control channel pins the
        #: peer to its network, so ``control.network`` is the peer's.
        self.control: ControlChannel = None
        self.bindings: List[MuxBinding] = []
        self.cached: List[MuxBinding] = []
        #: One coalesced deadline heap for every protocol timer aimed at
        #: this peer (piggyback flushes, control retransmissions, auth
        #: retries).
        self.timers = timers


class NetworkBindings:
    """Network selection and mux-and-cache assignment for one host."""

    def __init__(
        self,
        context: SimContext,
        host: Host,
        networks: List[Network],
        config: StConfig,
        stats,
        make_flusher: Callable[[MuxBinding], Callable],
    ) -> None:
        self.context = context
        self.host = host
        self.networks = networks
        self.config = config
        self.stats = stats  # the layer's StStats
        self._make_flusher = make_flusher
        self._network_preference: Dict[str, str] = {}

    def network_for(self, peer_host: str) -> Network:
        """The preferred usable network shared with ``peer_host``.

        Candidates are the configured networks both hosts attach to, in
        configuration order.  Among candidates that can currently reach
        the peer (:meth:`Network.can_reach`), an explicit per-peer
        preference -- set by the resilience layer on failover -- wins,
        then configuration order.  When no candidate is usable the first
        candidate is returned, so establishment on a dead network still
        fails through the normal setup-timeout path.
        """
        candidates = [
            network
            for network in self.networks
            if self.host.name in network.hosts and peer_host in network.hosts
        ]
        if not candidates:
            raise TransportError(
                f"no common network between {self.host.name} and {peer_host}"
            )
        preferred = self._network_preference.get(peer_host)
        if preferred is not None:
            for network in candidates:
                if network.name == preferred and network.can_reach(
                    self.host.name, peer_host
                ):
                    return network
        for network in candidates:
            if network.can_reach(self.host.name, peer_host):
                return network
        return candidates[0]

    def set_network_preference(
        self, peer_host: str, network_name: Optional[str]
    ) -> None:
        """Prefer one attached network for a peer (resilience failover)."""
        if network_name is None:
            self._network_preference.pop(peer_host, None)
            return
        if network_name not in {network.name for network in self.networks}:
            raise TransportError(
                f"{self.host.name} is not attached to network {network_name!r}"
            )
        self._network_preference[peer_host] = network_name

    def retarget(self, peer: Peer) -> None:
        """Re-point a peer at a usable network after its old one died.

        Only legal while no control channel exists or is being created:
        a live channel pins the peer to its network, and a failed one
        resets its ``out_state`` to "none" first -- which is exactly
        what lets the next request migrate.
        """
        if peer.control.out_state != "none":
            return
        target = self.network_for(peer.host_name)
        if target is peer.control.network:
            return
        retargets = self.stats.peer_retargets
        retargets[target.name] = retargets.get(target.name, 0) + 1
        # Cached bindings on another network are useless to the new one;
        # live bindings were already failed by the network itself.
        for binding in list(peer.cached):
            if binding.network_rms.network is not target:
                peer.cached.remove(binding)
                binding.network_rms.close()
        peer.control.move_to(target)

    def assign(self, peer: Peer, st_params: RmsParams):
        """Generator yielding a binding that can carry the new ST RMS."""
        enforce = self.config.enforce_mux_rules
        if self.config.multiplexing_enabled:
            for binding in peer.bindings:
                if binding.can_accept(st_params, enforce) is None:
                    self.stats.mux_joins += 1
                    return binding
        if self.config.cache_enabled:
            for binding in list(peer.cached):
                if binding.can_accept(st_params, enforce) is None:
                    peer.cached.remove(binding)
                    peer.bindings.append(binding)
                    self.stats.cache_hits += 1
                    return binding
        desired, acceptable = self.network_params_for(peer, st_params)
        network = peer.control.network
        source = Label(self.host.name, DATA_PORT)
        target = Label(peer.host_name, DATA_PORT)
        try:
            future = network.create_rms(source, target, desired, acceptable)
        except AdmissionError:
            # The headroom-inflated request did not fit; retry with the
            # exact acceptable parameters before giving up.
            future = network.create_rms(source, target, acceptable, acceptable)
        network_rms = yield future
        binding = MuxBinding(network_rms)
        binding.queue = PiggybackQueue(
            self.context,
            max_bundle_payload=network_rms.params.max_message_size,
            flush_fn=self._make_flusher(binding),
            ordering_floor=binding.ordering_floor,
            timer_group=peer.timers,
            enabled=self.config.piggyback_enabled,
        )
        self.context.obs.metrics.watch(
            binding.queue, QUEUE_FAMILIES,
            host=self.host.name, queue=network_rms.name,
        )
        peer.bindings.append(binding)
        network_rms.on_failure.listen(
            lambda rms, reason, b=binding, p=peer: self._network_rms_failed(
                p, b, reason
            )
        )
        self.stats.network_rms_created += 1
        return binding

    def _network_rms_failed(
        self, peer: Peer, binding: MuxBinding, reason: str
    ) -> None:
        for st_rms in list(binding.st_rms.values()):
            st_rms.fail(f"network RMS failed: {reason}")
        if binding in peer.bindings:
            peer.bindings.remove(binding)
        if binding in peer.cached:
            peer.cached.remove(binding)

    def network_params_for(self, peer: Peer, st_params: RmsParams):
        """Derive the network RMS request for a new binding (section 4.2)."""
        network = peer.control.network
        plan = plan_security(st_params, network)
        mtu = network.properties.mtu
        guaranteed = st_params.delay_bound_type != DelayBoundType.BEST_EFFORT
        if guaranteed:
            # Reserved resources scale with capacity and tighten with the
            # delay bound, so guaranteed streams ask lean: modest
            # capacity headroom for multiplexing (and, network_bounds,
            # the loosest legal bound).
            capacity = st_params.capacity * 2
        else:
            capacity = max(DEFAULT_NETWORK_CAPACITY, st_params.capacity)
        desired_bound, acceptable_bound = network_bounds(
            st_params.delay_bound, guaranteed
        )
        statistical = None
        if st_params.delay_bound_type == DelayBoundType.STATISTICAL:
            spec = st_params.statistical
            statistical = StatisticalSpec(
                average_load=spec.average_load * 2,
                burstiness=spec.burstiness,
                delay_probability=spec.delay_probability,
            )
        desired = RmsParams(
            reliability=False,
            authentication=plan.network_authentication,
            privacy=plan.network_privacy,
            capacity=capacity,
            max_message_size=mtu,
            delay_bound=desired_bound,
            delay_bound_type=st_params.delay_bound_type,
            statistical=statistical,
            bit_error_rate=max(
                st_params.bit_error_rate, network.medium_bit_error_rate
            ),
        )
        if st_params.delay_bound_type == DelayBoundType.STATISTICAL:
            acceptable_stat = st_params.statistical
        else:
            acceptable_stat = None
        acceptable = desired.with_(
            capacity=st_params.capacity,
            delay_bound=acceptable_bound,
            statistical=acceptable_stat,
        )
        return desired, acceptable

    def detach(self, peer: Peer, st_rms: StRms) -> None:
        """Take ``st_rms`` off its binding; an idle binding is cached or
        its network RMS deleted."""
        binding = st_rms.binding
        if binding is None:
            return
        binding.detach(st_rms)
        if not binding.is_idle or binding not in peer.bindings:
            return
        peer.bindings.remove(binding)
        binding.queue.flush("forced")
        if (
            self.config.cache_enabled
            and len(peer.cached) < CACHE_SIZE_PER_PEER
            and binding.network_rms.is_open
        ):
            peer.cached.append(binding)
        else:
            peer.control.network.delete_rms(binding.network_rms)
