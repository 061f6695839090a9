"""The piggybacking queue algorithm of section 4.3.1.

For each outgoing network RMS the ST keeps a queue of client messages
awaiting transmission, bounded by the network RMS maximum message size.
Each message has a *maximum transmission deadline* (its arrival time
plus the ST-minus-network delay-bound slack) and a *minimum transmission
deadline* (the deadline actually passed to the network for the previous
message of the same ST RMS, which preserves per-stream ordering under
deadline-ordered interface queues).

The queue is flushed when a component's maximum transmission deadline
is reached or when appending would overflow the network maximum message
size; the transmission deadline passed down is the queue's maximum
transmission deadline, floored by the ordering rule.  The flush timer
fires at the *earliest* component maximum deadline -- flushing any later
would make that component late, so we read the paper's "its maximum
transmission deadline is reached" as the queue's binding (earliest)
maximum.  Messages that require fragmentation are never piggybacked.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import TransportError
from repro.obs.registry import families
from repro.sim.context import SimContext
from repro.sim.events import EventHandle, TimerGroup
from repro.subtransport.wire import SUBHEADER_BYTES, Component, encode_bundle

__all__ = ["PiggybackQueue", "QUEUE_FAMILIES"]

#: Encoded bytes of the bundle count header.
_BUNDLE_HEADER_BYTES = 2
#: The flush-by time of an empty queue.
_NEVER = float("inf")

FlushCallback = Callable[[bytes, float, List[int], int], None]
_Entry = Tuple[Component, float, float, Optional[int]]

#: How a queue's counters export; the owner of the queue registers it.
QUEUE_FAMILIES = families(
    "st", ("flushes", "bundle_components"),
    flushes="st_piggyback_flushes{reason}",
    bundle_components="st_bundle_components{components}",
)


class PiggybackQueue:
    """Deadline-driven component queue for one outgoing network RMS.

    ``flush_fn(payload, deadline, st_ids, components)`` is invoked with
    the encoded bundle, the network transmission deadline, the ST RMS
    ids involved, and the component count.
    """

    def __init__(
        self,
        context: SimContext,
        max_bundle_payload: int,
        flush_fn: FlushCallback,
        ordering_floor: Callable[[List[int]], float],
        timer_group: TimerGroup,
        enabled: bool = True,
    ) -> None:
        if max_bundle_payload <= _BUNDLE_HEADER_BYTES:
            raise TransportError(
                f"network max message size {max_bundle_payload}B too small "
                f"for bundles"
            )
        self.context = context
        self.max_bundle_payload = max_bundle_payload
        self.flush_fn = flush_fn
        self.ordering_floor = ordering_floor
        self.enabled = enabled
        #: (component, network transmission deadline, flush-by time,
        #: trace id): the trace id rides beside the component, never on
        #: the wire.
        self._entries: List[_Entry] = []
        self._encoded_bytes = _BUNDLE_HEADER_BYTES
        #: Earliest flush-by time among ``_entries`` (inf when empty).
        self._flush_by = _NEVER
        #: Flush deadlines share the owning peer's coalesced timer group.
        self._timers = timer_group
        self._timer: Optional[EventHandle] = None
        #: Flushes by reason, and bundles sent by component count.
        self.flushes: Dict[str, int] = dict.fromkeys(
            ("timer", "overflow", "immediate", "forced"), 0
        )
        self.bundle_components: Dict[int, int] = defaultdict(int)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def queued_bytes(self) -> int:
        return self._encoded_bytes

    def submit(
        self,
        component: Component,
        max_deadline: float,
        flush_by: Optional[float] = None,
        trace_id: Optional[int] = None,
    ) -> None:
        """Queue one component, flushing as the deadline rules demand.

        ``max_deadline`` is the section-4.3.1 maximum transmission
        deadline (arrival plus ST-minus-network slack): it is what the
        network layer schedules by.  ``flush_by`` is when the ST stops
        hoping for piggyback companions and actually sends -- at most
        ``max_deadline``, usually much earlier (the configured window
        cap), so that waiting for companions does not consume the whole
        slack.  ``trace_id`` is the component's observability span.
        """
        if flush_by is None or flush_by > max_deadline:
            flush_by = max_deadline
        size = SUBHEADER_BYTES + len(component[3])  # never a fragment
        limit = self.max_bundle_payload
        if size + _BUNDLE_HEADER_BYTES > limit:
            raise TransportError(
                f"component of {size}B cannot fit a bundle of "
                f"{limit}B; fragment it first"
            )
        if not self.enabled:
            # Piggybacking off: every component ships alone, immediately.
            self.flushes["immediate"] += 1
            self._send([(component, max_deadline, flush_by, trace_id)])
            return
        if self._encoded_bytes + size > limit:
            # Does not fit: the queue goes first, the component follows,
            # still in order.
            self.flush("overflow")
        self._entries.append((component, max_deadline, flush_by, trace_id))
        self._encoded_bytes += size
        if flush_by < self._flush_by:
            self._flush_by = flush_by
        now = self.context.loop._now
        if flush_by <= now:
            # No queueing slack left: flush everything queued together
            # with this component (sending it *after* the queue would
            # break arrival order on the shared network RMS).
            self.flush("immediate")
            return
        # The flush timer sits at the earliest flush-by time queued; a
        # live one that already fires by then stays.
        earliest = self._flush_by
        timer = self._timer
        if timer is not None:
            if timer.time <= earliest and not timer.cancelled:
                return
            timer.cancel()
        self._timer = self._timers.call_at(
            earliest if earliest > now else now, self._timer_fired
        )

    def flush(self, reason: str = "forced") -> None:
        """Send every queued component as one bundle now."""
        if not self._entries:
            return
        self.flushes[reason] += 1
        entries, self._entries = self._entries, []
        self._encoded_bytes = _BUNDLE_HEADER_BYTES
        self._flush_by = _NEVER
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._send(entries)

    def _send(self, entries: List[_Entry]) -> None:
        # The deadline passed to the network layer is the queue's maximum
        # transmission deadline, floored by the per-stream ordering rule.
        if len(entries) == 1:
            component, deadline, _, _ = entries[0]
            payload = encode_bundle([component])
            st_ids = [component[0]]
        else:
            components = [entry[0] for entry in entries]
            payload = encode_bundle(components)
            st_ids = sorted({component[0] for component in components})
            deadline = max([entry[1] for entry in entries])
        floor = self.ordering_floor(st_ids)
        if floor > deadline:
            deadline = floor
        self.bundle_components[len(entries)] += 1
        obs = self.context.obs
        if obs.enabled:
            for component, _, _, trace_id in entries:
                obs.spans.event(
                    trace_id, "net", "tx",
                    st_rms=component[0], seq=component[1],
                    bundled=len(entries),
                )
        self.flush_fn(payload, deadline, st_ids, len(entries))

    def _timer_fired(self) -> None:
        self._timer = None
        if self._entries:
            self.flush("timer")

    def __repr__(self) -> str:
        return (
            f"<PiggybackQueue {len(self._entries)} entries "
            f"{self._encoded_bytes}B/{self.max_bundle_payload}B>"
        )
