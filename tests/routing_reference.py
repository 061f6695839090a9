"""The oracle the forwarding engine is checked against.

A pure per-pair early-exit Dijkstra over ``(adjacency, weights,
link.is_up)``: the resolver ``InternetNetwork`` shipped before the
forwarding engine, moved here when the engine became the only resolver
in ``src/``.  It shares no code with ``ForwardingEngine``: no tables, no
memo, no invalidation -- every call searches the graph as it is now.
The tie-break is the old resolver's: strict ``<`` relaxation in
adjacency order, a ``(distance, name)`` heap, stop when ``dst`` is
popped.
"""

from __future__ import annotations

import heapq
from itertools import islice

from repro.netsim.packet import FRAME_OVERHEAD_BYTES


def reference_search(network, src, dst=None):
    """``(distances, previous)`` from ``src`` over live links.

    With ``dst`` the search stops when ``dst`` is settled, so only the
    entries on the way to it are final; without, every reachable node
    is settled.
    """
    links, weights = network._links, network._weights
    distances = {src: 0.0}
    previous = {}
    heap = [(0.0, src)]
    visited = set()
    while heap:
        dist, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        if node == dst:
            break
        for neighbor in network._adjacency.get(node, []):
            edge = (node, neighbor)
            if edge not in links or not links[edge].is_up:
                continue
            candidate = dist + weights[edge]
            if candidate < distances.get(neighbor, float("inf")):
                distances[neighbor] = candidate
                previous[neighbor] = node
                heapq.heappush(heap, (candidate, neighbor))
    return distances, previous


def reference_distances(network, src):
    """Final shortest distance to every node reachable from ``src``."""
    return reference_search(network, src)[0]


def reference_route(network, src, dst):
    """The shortest route as a node list, or ``None`` when there is none."""
    if src == dst:
        return [src]
    distances, previous = reference_search(network, src, dst)
    if dst not in distances:
        return None
    route = [dst]
    while route[-1] != src:
        route.append(previous[route[-1]])
    route.reverse()
    return route


def reference_pathsets(network, src, bound):
    """Per destination reachable from ``src`` (not ``src`` itself), its
    first ``bound`` equal-cost routes in ECMP order.

    A node's equal-cost predecessors are every ``u`` with an up link
    ``u -> v`` and ``dist[u] + w == dist[v]``, ordered as a full search
    settles them: by ``(distance, name)``.  The routes are a depth-first
    walk back from the destination over them, first predecessor first.
    """
    distances = reference_distances(network, src)
    preds = {}
    for (u, v), link in network._links.items():
        if (link.is_up and u in distances and v in distances
                and distances[u] + network._weights[(u, v)] == distances[v]):
            preds.setdefault(v, []).append(u)
    for nodes in preds.values():
        nodes.sort(key=lambda u: (distances[u], u))

    def walk(node, suffix):
        if node == src:
            yield [src] + suffix
            return
        for pred in preds[node]:
            yield from walk(pred, [node] + suffix)

    return {dst: list(islice(walk(dst, []), bound))
            for dst in distances if dst != src}


def reference_can_reach(network, src, dst):
    return (src in network.hosts and dst in network.hosts
            and reference_route(network, src, dst) is not None)


def reference_profile(network, route):
    """``(fixed seconds, seconds/byte)`` summed hop by hop along ``route``."""
    fixed = 0.0
    per_byte = 0.0
    for hop in zip(route, route[1:]):
        link = network._links[hop]
        fixed += link.propagation_delay + link.transmission_time(
            FRAME_OVERHEAD_BYTES
        )
        per_byte += 1.0 / link.bandwidth
    return fixed, per_byte
