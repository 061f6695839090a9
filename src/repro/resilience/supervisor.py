"""The RMS supervisor: establishment attempts under a resilience policy.

One supervisor drives one supervised ST RMS.  Its reaction to a failed
attempt depends on why it failed:

* ``AdmissionError`` -- the network refused the reservation; a leaner
  rung of the degradation ladder might fit, so degrade and retry now.
* ``NegotiationError`` -- the provider cannot meet even the acceptable
  floor; no rung will help *on this network*, so back off and let the
  next attempt prefer an alternate network.
* anything else (setup timeout, control-channel failure, ...) -- back
  off with jitter and retry, avoiding the network that just failed.

Every transition is reported through ``on_transition``; the owning
session counts it (``SessionStats.transitions``, exported as the
``rms_failovers_total`` family) and span-logs it.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.params import RmsRequest, is_compatible
from repro.errors import AdmissionError, NegotiationError
from repro.resilience.policy import ResiliencePolicy, degradation_ladder
from repro.sim.context import SimContext
from repro.sim.events import TIMER_FAMILIES, TimerGroup
from repro.sim.process import Future
from repro.subtransport.st import SubtransportLayer

__all__ = ["RmsSupervisor"]


class RmsSupervisor:
    """Keeps one ST RMS established on behalf of a session."""

    def __init__(
        self,
        context: SimContext,
        st: SubtransportLayer,
        peer_host: str,
        port: str,
        request: RmsRequest,
        policy: ResiliencePolicy,
        fast_ack: bool = False,
        name: str = "supervised",
        on_established: Optional[Callable] = None,
        on_transition: Optional[Callable[[str, str], None]] = None,
        on_gave_up: Optional[Callable[[Exception], None]] = None,
    ) -> None:
        self.context = context
        self.st = st
        self.peer_host = peer_host
        self.port = port
        self.request = request
        self.policy = policy
        self.fast_ack = fast_ack
        self.name = name
        self.on_established = on_established or (lambda rms, degraded: None)
        #: Called with (kind, detail); kind is one of retry / failover /
        #: degrade / reestablishing / recovered / gave_up.
        self.on_transition = on_transition or (lambda kind, detail: None)
        self.on_gave_up = on_gave_up or (lambda error: None)
        self.rms = None
        if policy.degrade:
            self._rungs = degradation_ladder(request, policy.max_rungs)
        else:
            self._rungs = [RmsRequest(request.desired, request.floor)]
        self._rung = 0
        self._consecutive = 0
        self._closed = False
        self._current_network: Optional[str] = None
        self._avoid_network: Optional[str] = None
        self._rng = context.rng.stream(f"resilience:{name}")
        #: Backoff retries share one coalesced loop timer; ``stop``
        #: cancels any in-flight retry outright via ``cancel_all``.
        self._timers = TimerGroup(context.loop)
        context.obs.metrics.watch(
            self._timers, TIMER_FAMILIES, group=f"supervisor:{name}"
        )

    # ------------------------------------------------------------------

    def start(self) -> None:
        self._attempt()

    def stop(self) -> None:
        """Detach; a live RMS is left to the owning session to close."""
        self._closed = True
        self._timers.cancel_all()
        self.st.set_network_preference(self.peer_host, None)

    # ------------------------------------------------------------------

    def _attempt(self) -> None:
        if self._closed:
            return
        self._pick_network()
        rung = self._rungs[min(self._rung, len(self._rungs) - 1)]
        future = self.st.create_st_rms(
            self.peer_host, port=self.port, request=rung, fast_ack=self.fast_ack
        )
        future.add_done_callback(self._attempt_done)

    def _pick_network(self) -> None:
        """Steer the ST toward a usable network, avoiding the last bad one."""
        if not self.policy.failover:
            return
        usable = [
            network
            for network in self.st.networks
            if self.st.host.name in network.hosts
            and self.peer_host in network.hosts
            and network.can_reach(self.st.host.name, self.peer_host)
        ]
        if not usable:
            return
        pick = usable[0]
        for network in usable:
            if network.name != self._avoid_network:
                pick = network
                break
        if self._current_network is not None and pick.name != self._current_network:
            self.on_transition("failover", f"{self._current_network}->{pick.name}")
        self.st.set_network_preference(self.peer_host, pick.name)
        self._current_network = pick.name

    def _attempt_done(self, future: Future) -> None:
        if self._closed:
            if not future.failed:
                self.st.close_st_rms(future.result())
            return
        try:
            rms = future.result()
        except AdmissionError as error:
            if self.policy.degrade and self._rung < len(self._rungs) - 1:
                # A leaner reservation may be admitted: degrade and
                # retry immediately on the same network.
                self._rung += 1
                self.on_transition("degrade", str(error))
                self._attempt()
                return
            self._failure(error)
            return
        except NegotiationError as error:
            # Even the floor is beyond this provider; degradation
            # cannot help here.  Back off and try elsewhere.
            self._failure(error)
            return
        except Exception as error:  # setup timeout, control failure, ...
            self._failure(error)
            return
        self._established(rms)

    def _failure(self, error: Exception) -> None:
        self._consecutive += 1
        self._avoid_network = self._current_network
        if self._consecutive >= self.policy.max_attempts:
            self.on_transition("gave_up", str(error))
            self.on_gave_up(error)
            return
        delay = self.policy.backoff_delay(self._consecutive - 1, self._rng)
        self.on_transition(
            "retry", f"attempt {self._consecutive + 1} in {delay:.3f}s ({error})"
        )
        self._timers.call_after(delay, self._attempt)

    def _established(self, rms) -> None:
        self._consecutive = 0
        self._avoid_network = None
        self.rms = rms
        if rms.binding is not None:
            self._current_network = rms.binding.network_rms.network.name
        degraded = not is_compatible(rms.params, self.request.desired)
        rms.on_failure.listen(self._rms_failed)
        self.on_transition("recovered", f"network={self._current_network}")
        self.on_established(rms, degraded)

    def _rms_failed(self, rms, reason: str) -> None:
        if self._closed or rms is not self.rms:
            return
        self.rms = None
        self._avoid_network = self._current_network
        # Aim for full quality again: a different network (or a healed
        # one) may satisfy the original desired set.
        self._rung = 0
        self.on_transition("reestablishing", reason)
        self._attempt()
