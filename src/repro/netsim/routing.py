"""Scale-out routing: forwarding tables, compiled plans, one cache lifetime.

A resolver that runs one Dijkstra per (src, dst) pair on demand (the
internetwork's first; now the oracle in ``tests/routing_reference.py``)
is invisible at a handful of nodes; at hundreds of hosts over a router
mesh with link churn it is an O(N^2) recompute storm on the hot path.
This module amortizes that work:

* **Forwarding tables** -- one full-run Dijkstra covers every
  destination at once (`ForwardingTable`: the shortest-path-tree
  predecessor map).  Tables are built lazily.
  Because Dijkstra's relaxations are
  deterministic and a settled node's predecessor never changes after it
  is popped, the route reconstructed from a full-run table is *exactly*
  the route the per-pair early-exit search would have produced -- not
  merely cost-equal -- so fixed-seed traces are byte-identical with
  that resolver's.

* **One search per gateway, not per host** -- a node of degree 1 (a
  host behind its gateway) relays nothing: popped, it could only relax
  the link back to the already-settled node that reached it.  So the
  search settles it when its parent is popped and never pushes it; the
  pop order of every other node, and every float, is unchanged.
  Likewise a leaf *source*'s search is, after its first pop, the
  search from its gateway started at the access link's weight ``d0``
  (``0.0 + w == w``), so its table *is* that search, shared with its
  siblings: a route walks the shared predecessors back to the gateway
  and puts the leaf in front.  Nothing is copied per leaf.  The memo
  key is ``(gateway, d0)``, not the gateway: every distance is a float
  sum that starts at ``d0``, so hosts with different access bandwidths
  need their own search to stay bit-exact.  The memo keeps only what
  the walks read (predecessors); distances die with the search.
  Measured on the 216-host grid under flaps (e2e ``grid_churn``, seed
  3): 139 tables per flap from 23 searches instead of 139; 3,344 ->
  8,426 msgs/s.

* **A compiled neighbour view** -- the search walks, per node, a tuple
  of ``(neighbor, link, weight, relays)`` built from the network's
  adjacency, links and static weights on first use and dropped by
  ``invalidate_all`` (which every ``add_link`` calls), so an edge costs
  a tuple unpack where it cost an edge-tuple build, three dict probes
  and an ``is_up`` property call.  Only what changes with the topology
  is frozen; each link's up flag is read live as its edge is relaxed,
  so a search run after ``set_down`` flipped it but before the
  ``on_down`` listeners ran sees it down.

* **Reachability is not a route** -- ``reaches`` (``can_reach``) answers
  from the strongly connected components of the up-link graph, one
  iterative Tarjan pass over the view per link state, and per source
  component the components it reaches.  A reachability sweep builds no
  forwarding table.

* **Compiled route plans** -- per (src, dst) a `RoutePlan` freezes the
  resolved `Link` sequence, the admission pools along it, the path
  profile (fixed and per-byte delay), and one pre-built deliver
  callback per hop.  Forwarding a frame does zero dict lookups and
  zero closure allocation: each hop is a tuple index plus a read of
  the link's ``_up`` flag (the ``is_up`` property would be one more
  frame per hop).  The per-frame drop callback rides on the frame
  itself (``Frame.on_drop``) instead of being captured per hop per
  frame.

* **Equal-cost multipath (ECMP)** -- with ``ecmp=True`` the same full
  run also records *every* equal-cost predecessor per node, turning the
  shortest-path tree into a DAG.  Per (src, dst) the engine enumerates
  a bounded, deterministic set of equal-cost routes (`PathSet`) and
  pins each *flow* -- identified by a small integer threaded down from
  the RMS layer -- to one of them via a seed-independent hash
  (``zlib.crc32``, never Python's salted ``hash``).  A flow keeps
  byte-identical in-order delivery on its pinned plan while distinct
  flows spread across the parallel trunks.  Tie-free topologies
  enumerate exactly one route and hand out the *same* canonical plan
  object as the single-path engine, so their traces are byte-identical
  by construction.

* **One cache lifetime** -- the search memo, the components, the
  tables, the canonical plans and the path sets live exactly as long as
  the link state they were computed from: every ``link_down`` and
  ``link_up`` empties them all, so every resolution after a flap is a
  from-scratch search and its route is the reference's, ties included.
  The view outlives a flap (it holds no up state); only ``add_link``
  drops it.  A plan an admitted RMS holds stays the RMS's: its frames
  keep following it, and a downed link on it fails the RMS through
  the network.
"""

from __future__ import annotations

import heapq
import zlib
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import RoutingError
from repro.netsim.admission import NULL_POOLS
from repro.netsim.packet import FRAME_OVERHEAD_BYTES, Frame
from repro.obs.registry import families

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.internet import InternetNetwork

__all__ = [
    "ForwardingTable",
    "RoutePlan",
    "PathSet",
    "ForwardingEngine",
    "flow_hash",
]

def flow_hash(src: str, dst: str, flow: int) -> int:
    """A deterministic, process-independent hash of one flow's identity.

    Python's builtin ``hash`` is salted per interpreter, which would make
    path pinning irreproducible across runs; CRC-32 over the canonical
    flow label is stable everywhere and cheap enough for a once-per-RMS
    operation.
    """
    return zlib.crc32(f"{src}|{dst}|{flow}".encode("ascii", "replace"))


class ForwardingTable:
    """One source's shortest paths to every reachable node.

    A route from ``src`` walks ``prev`` from the destination back to
    ``root`` and, when ``root`` is not ``src`` (a leaf reading its
    gateway's shared search), puts ``src`` in front.
    """

    __slots__ = ("src", "root", "prev", "preds")

    def __init__(
        self,
        src: str,
        root: str,
        prev: Dict[str, str],
        preds: Optional[Dict[str, Tuple[str, ...]]] = None,
    ) -> None:
        self.src = src
        #: Where the search started: ``src``, or a leaf's gateway.
        self.root = root
        #: Shortest-path-tree predecessor per reachable node (except the
        #: root); routes are reconstructed by walking it.  A leaf's is
        #: its gateway search's own dict, shared with its siblings:
        #: nothing may write to it.
        self.prev = prev
        #: ECMP only: *all* equal-cost predecessors per node, in settle
        #: order, with the invariant ``preds[v][0] == prev[v]``.  None
        #: when the engine runs single-path.  Shared like ``prev``.
        self.preds = preds

    def __repr__(self) -> str:
        return (f"<ForwardingTable src={self.src} root={self.root} "
                f"reach={len(self.prev) + 1}>")


class RoutePlan:
    """A compiled (src, dst) route: links, pools, deliver callbacks."""

    __slots__ = (
        "src", "dst", "route", "links", "pools", "delivers",
        "fixed_delay", "per_byte_delay",
    )

    def __init__(self, src: str, dst: str, route: List[str]) -> None:
        self.src = src
        self.dst = dst
        #: Node names, shared (never mutated): frames and RMSs reference
        #: this list directly instead of copying it per frame.
        self.route = route
        self.links: Tuple = ()
        self.pools: List = []
        self.delivers: Tuple = ()
        self.fixed_delay = 0.0
        self.per_byte_delay = 0.0

    def __repr__(self) -> str:
        return f"<RoutePlan {self.src}->{self.dst} hops={len(self.links)}>"


class PathSet:
    """The bounded equal-cost route set for one (src, dst) pair.

    ``routes[0]`` starts as the canonical predecessor-tree route (the
    one the single-path engine would compile); plans are compiled
    lazily, one per pinned route, and cached in ``plans`` parallel to
    ``routes``.
    """

    __slots__ = ("src", "dst", "routes", "plans")

    def __init__(self, src: str, dst: str, routes: List[List[str]]) -> None:
        self.src = src
        self.dst = dst
        self.routes = routes
        self.plans: List[Optional[RoutePlan]] = [None] * len(routes)

    def __repr__(self) -> str:
        return f"<PathSet {self.src}->{self.dst} routes={len(self.routes)}>"


_FAMILIES = families("route", (
    "searches", "table_builds", "plan_compiles", "pathset_builds",
    "flow_pins", "dag_prunes", "scoped_table_drops", "scoped_plan_drops",
    "full_invalidations",
))


class ForwardingEngine:
    """Next-hop tables and compiled plans for one
    :class:`~repro.netsim.internet.InternetNetwork`, all dropped at every
    link state change.

    The counters are bench telemetry.  ``full_invalidations`` counts the
    invalidations: one per link state change and one per ``add_link``.
    ``scoped_table_drops`` / ``scoped_plan_drops`` count the tables and
    the plans those invalidations discarded, and ``dag_prunes`` is always
    0.  The last three keep names from when a flap dropped only the
    routes over the flapped edge: ``benchmarks/e2e/ledger.py`` reads them
    under those names.
    """

    def __init__(
        self,
        network: "InternetNetwork",
        ecmp: bool = False,
        max_paths: int = 8,
    ) -> None:
        self.network = network
        #: Spread flows across equal-cost routes when True; the default
        #: single-path mode reproduces the per-pair reference exactly.
        self.ecmp = ecmp
        #: Cap on enumerated equal-cost routes per (src, dst); the DFS
        #: over the predecessor DAG stops once the bound is reached, in
        #: deterministic settle order, so the bound never introduces
        #: nondeterminism.
        self.max_paths = max(1, max_paths)
        self._tables: Dict[str, ForwardingTable] = {}
        self._plans: Dict[Tuple[str, str], RoutePlan] = {}
        self._pathsets: Dict[Tuple[str, str], PathSet] = {}
        #: Shared leaf searches, ``(prev, preds)``, by (gateway, distance
        #: at the gateway).
        self._search_memo: Dict[Tuple[str, float], tuple] = {}
        #: The compiled neighbour view ``_search`` walks; built on first
        #: use and dropped by ``invalidate_all``.
        self._view: Optional[Dict[str, tuple]] = None
        #: The up-link graph's strongly connected components (node -> its
        #: component's root) and, per source component, the components it
        #: reaches: built by the first ``reaches`` in a link state.
        self._components: Optional[Tuple[Dict[str, str], Dict[str, Set[str]]]] = None
        self.table_builds = 0  # host tables materialised
        self.searches = 0  # Dijkstra runs (shared by the hosts of a gateway)
        self.plan_compiles = 0
        self.pathset_builds = 0
        self.flow_pins = 0
        self.dag_prunes = 0
        self.scoped_table_drops = 0
        self.scoped_plan_drops = 0
        self.full_invalidations = 0
        network.context.obs.metrics.watch(self, _FAMILIES, network=network.name)

    # -- resolution ---------------------------------------------------------

    def table(self, src: str) -> ForwardingTable:
        """The forwarding table for ``src``, built lazily."""
        table = self._tables.get(src)
        if table is not None:
            return table
        return self._build_table(src)

    def _compile_view(self) -> Dict[str, tuple]:
        # Per node, ``(neighbor, link, weight, relays)`` for each edge
        # out of it, in adjacency order; ``relays``: the neighbour has
        # degree > 1.  Only ``add_link`` changes any of it; the up state
        # is left out (module docstring).
        network = self.network
        adjacency = network._adjacency
        links = network._links
        weights = network._weights
        return {
            node: tuple(
                (neighbor, links[(node, neighbor)], weights[(node, neighbor)],
                 len(adjacency[neighbor]) > 1)
                for neighbor in neighbors
            )
            for node, neighbors in adjacency.items()
        }

    def _search(self, view: Dict[str, tuple], root: str, d0: float):
        # One full-run Dijkstra from ``root`` at distance ``d0``:
        # identical float operations, relaxation order, and tie-breaking
        # as the per-pair reference search, minus the early exit and the
        # heap traffic of degree-1 neighbours (module docstring).
        # Under ECMP the only extra work is the equal-cost bookkeeping:
        # a strict improvement resets preds[v], an exact tie appends, so
        # preds[v][0] is always the canonical tree predecessor.
        distances: Dict[str, float] = {root: d0}
        previous: Dict[str, str] = {}
        preds: Optional[Dict[str, Tuple[str, ...]]] = {} if self.ecmp else None
        heap: List[Tuple[float, str]] = [(d0, root)]
        visited: Set[str] = set()
        heappop = heapq.heappop
        heappush = heapq.heappush
        inf = float("inf")
        while heap:
            dist, node = heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            for neighbor, link, weight, relays in view.get(node, ()):
                if not link._up:
                    continue
                candidate = dist + weight
                best = distances.get(neighbor, inf)
                if candidate < best:
                    distances[neighbor] = candidate
                    previous[neighbor] = node
                    if preds is not None:
                        preds[neighbor] = (node,)
                    if relays:
                        heappush(heap, (candidate, neighbor))
                elif preds is not None and candidate == best:
                    preds[neighbor] += (node,)
        self.searches += 1
        self.network.route_resolutions += 1
        return previous, preds

    def reaches(self, src: str, dst: str) -> bool:
        """True when a path of up links leads from ``src`` to ``dst``: both
        in one strongly connected component, or ``dst``'s reachable from
        ``src``'s in the condensation.  Builds no table, runs no search."""
        if self._components is None:
            self._components = (self._compile_components(), {})
        component, memo = self._components
        here, there = component.get(src), component.get(dst)
        if here is None or here == there:
            return here is not None  # a node off every link reaches nothing
        reach = memo.get(here)
        if reach is None:
            # The components a walk from ``src`` enters, once per component.
            reach = memo[here] = {here}
            seen, todo, view = {src}, [src], self._view
            while todo:
                for neighbor, link, _weight, _relays in view[todo.pop()]:
                    if link._up and neighbor not in seen:
                        seen.add(neighbor)
                        reach.add(component[neighbor])
                        todo.append(neighbor)
        return there in reach

    def _compile_components(self) -> Dict[str, str]:
        # Tarjan's algorithm, iterative, over the compiled view with each
        # link's up flag read live (as ``_search`` reads it).  A component
        # is named by its root; a visited node not yet in one is stacked.
        view = self._view
        if view is None:
            view = self._view = self._compile_view()
        order: Dict[str, int] = {}
        low: Dict[str, int] = {}
        component: Dict[str, str] = {}
        stack: List[str] = []
        for root in view:
            if root in order:
                continue
            order[root] = low[root] = len(order)
            stack.append(root)
            work = [(root, iter(view[root]))]
            while work:
                node, edges = work[-1]
                for neighbor, link, _weight, _relays in edges:
                    if not link._up:
                        continue
                    if neighbor not in order:
                        order[neighbor] = low[neighbor] = len(order)
                        stack.append(neighbor)
                        work.append((neighbor, iter(view[neighbor])))
                        break
                    if neighbor not in component:
                        low[node] = min(low[node], order[neighbor])
                else:
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        low[parent] = min(low[parent], low[node])
                    if low[node] == order[node]:
                        member = None
                        while member != node:
                            member = stack.pop()
                            component[member] = node
        return component

    def _build_table(self, src: str) -> ForwardingTable:
        view = self._view
        if view is None:
            view = self._view = self._compile_view()
        edges = view.get(src, ())
        if len(edges) == 1 and edges[0][1]._up:
            # A leaf's table is its gateway's search, shared with its
            # siblings; routes put the leaf in front of the gateway.
            gateway, _link, weight, _relays = edges[0]
            key = (gateway, weight)
            shared = self._search_memo.get(key)
            if shared is None:
                shared = self._search_memo[key] = self._search(view, *key)
            table = ForwardingTable(src, gateway, *shared)
        else:
            table = ForwardingTable(src, src, *self._search(view, src, 0.0))
        self._tables[src] = table
        self.table_builds += 1
        return table

    def plan(self, src: str, dst: str) -> RoutePlan:
        """The compiled canonical plan for (src, dst); raises RoutingError."""
        key = (src, dst)
        plan = self._plans.get(key)
        if plan is not None:
            return plan
        network = self.network
        if not network._node_exists(src) or not network._node_exists(dst):
            raise RoutingError(f"unknown endpoint in {src}->{dst}")
        if src == dst:
            plan = self._plans[key] = self.compile_route([src])
            return plan
        table = self.table(src)
        prev, root = table.prev, table.root
        if dst not in prev and dst != root:
            raise RoutingError(f"no route from {src} to {dst} in {network.name}")
        route = [dst]
        while route[-1] != root:
            route.append(prev[route[-1]])
        if root != src:
            route.append(src)
        route.reverse()
        plan = self._plans[key] = self.compile_route(route)
        return plan

    def plan_for_flow(self, src: str, dst: str, flow: Optional[int]) -> RoutePlan:
        """The compiled plan a given flow is pinned to.

        Single-path mode, an anonymous flow, or a tie-free pair all
        resolve to the canonical :meth:`plan` (same object, so tie-free
        ECMP traces are byte-identical to the single-path engine).  With
        real equal-cost alternatives the flow hash picks one route and
        the pinned plan is compiled lazily and cached in the PathSet.
        """
        if not self.ecmp or flow is None or src == dst:
            return self.plan(src, dst)
        pathset = self._pathset(src, dst)
        routes = pathset.routes
        if len(routes) == 1:
            return self.plan(src, dst)
        index = flow_hash(src, dst, flow) % len(routes)
        plan = pathset.plans[index]
        if plan is None:
            plan = pathset.plans[index] = self.compile_route(routes[index])
        self.flow_pins += 1
        return plan

    def pathset(self, src: str, dst: str) -> PathSet:
        """The equal-cost route set for (src, dst) (ECMP mode only)."""
        if not self.ecmp:
            raise RoutingError("pathset() requires ecmp=True")
        return self._pathset(src, dst)

    def _pathset(self, src: str, dst: str) -> PathSet:
        key = (src, dst)
        pathset = self._pathsets.get(key)
        if pathset is not None:
            return pathset
        network = self.network
        if not network._node_exists(src) or not network._node_exists(dst):
            raise RoutingError(f"unknown endpoint in {src}->{dst}")
        table = self.table(src)
        if dst == src or (dst not in table.prev and dst != table.root):
            raise RoutingError(f"no route from {src} to {dst} in {network.name}")
        routes = self._enumerate_routes(table, src, dst)
        pathset = PathSet(src, dst, routes)
        self._pathsets[key] = pathset
        self.pathset_builds += 1
        return pathset

    def _enumerate_routes(
        self, table: ForwardingTable, src: str, dst: str
    ) -> List[List[str]]:
        # Bounded DFS over the predecessor DAG, walking backwards from
        # the destination to the table's root (a leaf goes in front of
        # it).  Predecessor lists are in settle order and
        # preds[v][0] == prev[v], so the first emitted route is exactly
        # the canonical tree route and the whole enumeration order is
        # deterministic; the bound truncates it without reordering.
        preds = table.preds
        assert preds is not None
        root = table.root
        head = [src] if root != src else []
        bound = self.max_paths
        routes: List[List[str]] = []
        suffix = [dst]

        def walk(node: str) -> None:
            if node == root:
                routes.append(head + suffix[::-1])
                return
            for pred_node in preds[node]:
                if len(routes) >= bound:
                    return
                suffix.append(pred_node)
                walk(pred_node)
                suffix.pop()

        walk(dst)
        return routes

    def compile_route(self, route: List[str]) -> RoutePlan:
        """Compile a plan for an explicit node list.

        This is how a re-pinned ``NetworkRms.route`` (downward-mux path
        diversity) gets onto the datapath, and how every resolved route
        is compiled.  Called directly, the plan belongs to its caller
        alone: it is in no ``_plans`` entry or path set, so it is never
        handed out for a resolution.  Raises :class:`RoutingError` when
        a hop is not a link of the network.
        """
        network = self.network
        if not route:
            raise RoutingError(f"empty route in {network.name}")
        plan = RoutePlan(route[0], route[-1], route)
        links = []
        pools = []
        fixed = 0.0
        per_byte = 0.0
        for hop in zip(route, route[1:]):
            link = network._links.get(hop)
            if link is None:
                raise RoutingError(
                    f"no link {hop[0]}->{hop[1]} in {network.name}"
                )
            links.append(link)
            pool = network._pools.get(hop)
            if pool is not None:
                pools.append(pool)
            fixed += link.propagation_delay + link.transmission_time(
                FRAME_OVERHEAD_BYTES
            )
            per_byte += 1.0 / link.bandwidth
        plan.links = tuple(links)
        plan.pools = pools or NULL_POOLS
        plan.fixed_delay = fixed
        plan.per_byte_delay = per_byte
        plan.delivers = tuple(
            self._make_deliver(plan, i + 1) for i in range(len(links))
        )
        self.plan_compiles += 1
        return plan

    # -- forwarding ---------------------------------------------------------

    def _make_deliver(self, plan: RoutePlan, next_hop: int) -> Callable:
        """The cached deliver callback for arrival at route[next_hop]."""
        network = self.network
        if next_hop == len(plan.route) - 1:
            # Final hop: deliver straight into the network's demux; the
            # bound method itself is the callback (no closure at all).
            return network._frame_arrived

        def deliver(frame: Frame) -> None:
            link = plan.links[next_hop]
            if not link._up:
                on_drop = frame.on_drop
                if on_drop is not None:
                    on_drop(
                        frame,
                        f"no usable link {plan.route[next_hop]}->"
                        f"{plan.route[next_hop + 1]}",
                    )
                return
            link.transmit(frame, deliver=plan.delivers[next_hop],
                          on_drop=frame.on_drop)

        return deliver

    def transmit(self, frame: Frame, plan: RoutePlan, on_drop) -> None:
        """Send ``frame`` along ``plan``: the zero-allocation datapath."""
        frame.on_drop = on_drop
        links = plan.links
        if not links:
            self.network._frame_arrived(frame)
            return
        link = links[0]
        if not link._up:
            if on_drop is not None:
                on_drop(frame, f"no usable link {plan.route[0]}->{plan.route[1]}")
            return
        link.transmit(frame, deliver=plan.delivers[0], on_drop=on_drop)

    # -- invalidation -------------------------------------------------------

    def _drop_routes(self) -> None:
        # Everything computed from the link state; plans that admitted
        # RMSs hold stay theirs.
        self.scoped_table_drops += len(self._tables)
        self.scoped_plan_drops += len(self._plans) + sum(
            plan is not None
            for pathset in self._pathsets.values() for plan in pathset.plans
        )
        self._tables.clear()
        self._plans.clear()
        self._pathsets.clear()
        self._search_memo.clear()
        self._components = None
        self.full_invalidations += 1

    def invalidate_all(self) -> None:
        """Drop every cached route and the neighbour view: the topology
        grew."""
        self._drop_routes()
        self._view = None

    def link_down(self, u: str, v: str) -> None:
        """Link (u, v) died: any cached route may cross it."""
        self._drop_routes()

    def link_up(self, u: str, v: str) -> None:
        """Link (u, v) recovered: any cached route may now be beaten or
        tied by one across it."""
        self._drop_routes()

    def __repr__(self) -> str:
        return (
            f"<ForwardingEngine tables={len(self._tables)} "
            f"plans={len(self._plans)} pathsets={len(self._pathsets)} "
            f"ecmp={self.ecmp}>"
        )
