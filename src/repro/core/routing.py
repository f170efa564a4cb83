"""Routing for the multi-ring fabric.

Two layers, matching Section 4.1:

- *direction selection* on a full ring — "a straightforward approach to
  achieve the shortest routing path according to the source and
  destination address" — implemented by :func:`ring_direction` and
  :func:`ring_distance`;
- *segment routing* across rings — the flit's route is a list of
  :class:`Hop` segments, one per ring traversed, separated by ring
  bridges.  :class:`Router` runs one Dijkstra search per source
  position (over bridge endpoints, weighted by in-ring hop distance
  plus a per-bridge penalty) and keeps it; each (src, dst) pair then
  picks its best arrival point on the destination ring from that
  search and rebuilds its bridge chain, and the route is cached.  On
  the AI processor's grid of rings this reduces to X-Y/Y-X routing with
  at most one ring change (a property test asserts this).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import TopologySpec


@dataclass(frozen=True)
class Hop:
    """One route segment: travel on ``ring`` until ``exit_stop``.

    ``port_key`` identifies the interface the flit leaves through:
    ``("node", node_id)`` for final delivery or ``("bridge", bridge_id,
    side)`` for a transfer onto the next ring (side 0 = the bridge's
    ring_a endpoint, 1 = ring_b).
    """

    ring: int
    exit_stop: int
    port_key: Tuple


def ring_distance(nstops: int, src: int, dst: int, bidirectional: bool) -> int:
    """Hops from ``src`` to ``dst`` using the shortest allowed direction."""
    cw = (dst - src) % nstops
    if not bidirectional:
        return cw
    return min(cw, (src - dst) % nstops)


def ring_direction(nstops: int, src: int, dst: int, bidirectional: bool) -> int:
    """Shortest direction: +1 clockwise, -1 counterclockwise.

    Ties break clockwise, which keeps the choice deterministic; the
    round-robin injection arbitration (not direction choice) provides
    fairness.
    """
    if not bidirectional:
        return 1
    cw = (dst - src) % nstops
    ccw = (src - dst) % nstops
    return 1 if cw <= ccw else -1


#: One source position's search: (cost to each reached position,
#: post-crossing position -> (pre-crossing position, bridge, side)).
_Search = Tuple[Dict[Tuple[int, int], int],
                Dict[Tuple[int, int], Tuple[Tuple[int, int], object, int]]]


class Router:
    """Computes and caches multi-ring routes for a topology."""

    def __init__(self, topology: TopologySpec, bridge_penalty: int = 8):
        topology.validate()
        self._rings = {r.ring_id: r for r in topology.rings}
        self._placement = {p.node: (p.ring, p.stop) for p in topology.nodes}
        self._bridges = list(topology.bridges)
        self._bridge_penalty = bridge_penalty
        self._cache: Dict[Tuple[int, int], List[Hop]] = {}
        # Per source position: that position's Dijkstra (dist, prev).
        self._searches: Dict[Tuple[int, int], _Search] = {}
        # Adjacency: ring -> list of (bridge, side) endpoints on that ring.
        self._ring_bridges: Dict[int, List[Tuple]] = {r: [] for r in self._rings}
        for b in self._bridges:
            self._ring_bridges[b.ring_a].append((b, 0))
            self._ring_bridges[b.ring_b].append((b, 1))

    def __deepcopy__(self, memo):
        # Routes are a pure function of the immutable topology, and the
        # route cache and the per-source search memo are append-only, so
        # fabric clones (repro.verify's model checker deep-copies whole
        # fabrics per explored transition) can share one router instead
        # of re-deriving every route.
        memo[id(self)] = self
        return self

    def placement(self, node: int) -> Tuple[int, int]:
        """(ring, stop) of a node's interface."""
        return self._placement[node]

    def _dist(self, ring: int, a: int, b: int) -> int:
        spec = self._rings[ring]
        return ring_distance(spec.nstops, a, b, spec.bidirectional)

    def route(self, src: int, dst: int) -> List[Hop]:
        """Route from node ``src`` to node ``dst`` (cached)."""
        key = (src, dst)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        computed = self._compute(src, dst)
        self._cache[key] = computed
        return computed

    def _search(self, start: Tuple[int, int]) -> _Search:
        """Shortest costs from ``start`` to every position past a bridge.

        Dijkstra over positions (ring, stop).  Moves: ride the current
        ring to any bridge endpoint on it (cost = in-ring distance),
        then cross the bridge (cost = penalty + link latency).  The
        search never looks at a destination, so it is run once per
        source position and kept.
        """
        found = self._searches.get(start)
        if found is not None:
            return found
        dist: Dict[Tuple[int, int], int] = {start: 0}
        # prev maps a post-crossing position to (pre-crossing position,
        # bridge, side-we-entered-from) so the hop list can be rebuilt.
        prev: Dict[Tuple[int, int], Tuple[Tuple[int, int], object, int]] = {}
        heap: List[Tuple[int, Tuple[int, int]]] = [(0, start)]
        visited = set()
        while heap:
            d, pos = heapq.heappop(heap)
            if pos in visited:
                continue
            visited.add(pos)
            ring, stop = pos
            for bridge, side in self._ring_bridges[ring]:
                here = (bridge.stop_a, bridge.stop_b)[side]
                there_ring = (bridge.ring_b, bridge.ring_a)[side]
                there_stop = (bridge.stop_b, bridge.stop_a)[side]
                cost = (
                    d
                    + self._dist(ring, stop, here)
                    + self._bridge_penalty
                    + bridge.link_latency
                )
                nxt = (there_ring, there_stop)
                if cost < dist.get(nxt, 1 << 60):
                    dist[nxt] = cost
                    prev[nxt] = (pos, bridge, side)
                    heapq.heappush(heap, (cost, nxt))
        found = (dist, prev)
        self._searches[start] = found
        return found

    def _compute(self, src: int, dst: int) -> List[Hop]:
        src_ring, src_stop = self._placement[src]
        dst_ring, dst_stop = self._placement[dst]
        if src_ring == dst_ring:
            return [Hop(dst_ring, dst_stop, ("node", dst))]

        start = (src_ring, src_stop)
        dist, prev = self._search(start)

        # Pick the best arrival position on the destination ring.
        best: Optional[Tuple[int, Tuple[int, int]]] = None
        for pos, d in dist.items():
            if pos[0] != dst_ring:
                continue
            total = d + self._dist(dst_ring, pos[1], dst_stop)
            if best is None or total < best[0]:
                best = (total, pos)
        if best is None:
            raise ValueError(f"no route from node {src} to node {dst}")

        # Rebuild the bridge chain back to the source.
        chain = []  # list of (bridge, side) crossed, in travel order
        pos = best[1]
        while pos != start:
            parent, bridge, side = prev[pos]
            chain.append((bridge, side))
            pos = parent
        chain.reverse()

        hops: List[Hop] = []
        ring = src_ring
        for bridge, side in chain:
            exit_stop = (bridge.stop_a, bridge.stop_b)[side]
            hops.append(Hop(ring, exit_stop, ("bridge", bridge.bridge_id, side)))
            ring = (bridge.ring_b, bridge.ring_a)[side]
        hops.append(Hop(dst_ring, dst_stop, ("node", dst)))
        return hops
