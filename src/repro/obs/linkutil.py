"""Per-link utilization and load-imbalance observation.

The ECMP work (DESIGN.md 8.8) needs one number that says "the trunks
share the load" — the classic choice is **Jain's fairness index** over
per-trunk transmitted bytes::

    J(x) = (sum x_i)^2 / (n * sum x_i^2)

``J`` is 1.0 when every trunk carries the same bytes and ``1/n`` when a
single trunk carries everything, independent of scale.  The single-path
engine concentrates a two-tier fabric's inter-leaf traffic on one spine
(deterministic tie-break), so its index sits near ``1/spines``; ECMP's
flow spreading pushes it toward 1.

:class:`LinkUtilizationCollector` snapshots an internetwork's directed
link counters and reports per-link deltas, so a bench can mark the
start of a measured window and read utilization for just that window.
It reads the existing :class:`~repro.netsim.topology.LinkStats`
counters — no instrumentation cost on the datapath, usable whether or
not the full observability layer is on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["jain_fairness", "LinkUtilizationCollector"]

_EdgeKey = Tuple[str, str]


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index of ``values``; 1.0 for an empty/zero set.

    The degenerate cases read as "nothing to be unfair about": no
    samples, or no traffic at all, is perfectly fair.
    """
    if not values:
        return 1.0
    total = float(sum(values))
    if total == 0.0:
        return 1.0
    squares = sum(float(v) * float(v) for v in values)
    return (total * total) / (len(values) * squares)


class LinkUtilizationCollector:
    """Windowed per-link byte counters over an internetwork's trunks.

    Only router-to-router links -- the contended fabric core -- are
    tracked; the host access links are per-flow by construction and
    would dilute an imbalance measurement.
    """

    def __init__(self, network) -> None:
        self.network = network
        routers = getattr(network, "routers", set())
        self._links: Dict[_EdgeKey, object] = {
            edge: link
            for edge, link in network._links.items()
            if edge[0] in routers and edge[1] in routers
        }
        self._marks: Dict[_EdgeKey, int] = {}
        self.mark()

    def mark(self) -> None:
        """Start a new measurement window at the current counters."""
        self._marks = {
            edge: link.stats.bytes_transmitted
            for edge, link in self._links.items()
        }

    def delta(self) -> Dict[_EdgeKey, int]:
        """Bytes transmitted per directed link since the last mark."""
        marks = self._marks
        return {
            edge: link.stats.bytes_transmitted - marks.get(edge, 0)
            for edge, link in self._links.items()
        }

    def fairness(self, edges: Optional[Sequence[_EdgeKey]] = None) -> float:
        """Jain's index over the window's per-link bytes.

        ``edges`` restricts the sample (e.g. one leaf's uplinks); the
        default is every tracked link.
        """
        deltas = self.delta()
        if edges is not None:
            values: List[int] = [deltas.get(edge, 0) for edge in edges]
        else:
            values = list(deltas.values())
        return jain_fairness(values)

    def __repr__(self) -> str:
        return (
            f"<LinkUtilizationCollector links={len(self._links)} "
            f"network={self.network.name}>"
        )
