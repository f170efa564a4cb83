"""Topology builders for common multi-ring layouts.

Three layouts cover the paper's systems:

- a single half/full ring (one chiplet on its own, and the building block
  of everything else);
- a pair of rings joined by one RBRG-L2 (the minimal heterogeneous
  chiplet pair — also the deadlock testbench of Figure 9);
- a grid of rings (the AI processor: device rings crossed with memory
  rings, RBRG-L1 at every intersection, Figure 8B).

For bespoke floorplans (the Server-CPU package), use
:class:`TopologyBuilder` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import BridgeSpec, NodePlacement, RingSpec, TopologySpec
from repro.params import LATENCY


class TopologyBuilder:
    """Incremental construction of a :class:`TopologySpec`.

    Assigns node and bridge ids sequentially; rings get caller-chosen ids
    so systems can use meaningful numbering (die index, row/column).
    """

    def __init__(self) -> None:
        self._spec = TopologySpec()
        self._next_node = 0
        self._next_bridge = 0
        self._stop_load: Dict[Tuple[int, int], int] = {}

    def add_ring(self, ring_id: int, nstops: int, bidirectional: bool = True,
                 lanes: Optional[int] = None) -> int:
        self._spec.rings.append(RingSpec(ring_id, nstops, bidirectional, lanes))
        return ring_id

    def add_node(self, ring: int, stop: int) -> int:
        node = self._next_node
        self._next_node += 1
        self._spec.nodes.append(NodePlacement(node, ring, stop))
        self._bump(ring, stop)
        return node

    def add_bridge(
        self,
        ring_a: int,
        stop_a: int,
        ring_b: int,
        stop_b: int,
        level: int = 1,
        link_latency: Optional[int] = None,
    ) -> int:
        if link_latency is None:
            link_latency = 0 if level == 1 else LATENCY.d2d_link
        bridge = self._next_bridge
        self._next_bridge += 1
        self._spec.bridges.append(
            BridgeSpec(bridge, level, ring_a, stop_a, ring_b, stop_b, link_latency)
        )
        self._bump(ring_a, stop_a)
        self._bump(ring_b, stop_b)
        return bridge

    def _bump(self, ring: int, stop: int) -> None:
        key = (ring, stop)
        self._stop_load[key] = self._stop_load.get(key, 0) + 1
        if self._stop_load[key] > 2:
            raise ValueError(f"stop {key} would host more than two interfaces")

    def build(self) -> TopologySpec:
        self._spec.validate()
        return self._spec


def single_ring_topology(
    n_nodes: int,
    bidirectional: bool = True,
    stop_spacing: int = 1,
) -> Tuple[TopologySpec, List[int]]:
    """One ring with ``n_nodes`` evenly spaced node interfaces.

    ``stop_spacing`` is the number of stops (== cycles of wire) between
    adjacent stations; it models physical distance per Section 3.3.
    Returns (topology, node ids in ring order).
    """
    if n_nodes < 1:
        raise ValueError("need at least one node")
    if stop_spacing < 1:
        raise ValueError("stop_spacing must be >= 1")
    builder = TopologyBuilder()
    nstops = max(2, n_nodes * stop_spacing)
    builder.add_ring(0, nstops, bidirectional)
    nodes = [builder.add_node(0, i * stop_spacing) for i in range(n_nodes)]
    return builder.build(), nodes


def chiplet_pair(
    nodes_per_ring: int = 4,
    bidirectional: bool = True,
    stop_spacing: int = 2,
    link_latency: int = LATENCY.d2d_link,
) -> Tuple[TopologySpec, List[int], List[int]]:
    """Two rings joined by one RBRG-L2 — the minimal chiplet system.

    Returns (topology, nodes on ring 0, nodes on ring 1).  The bridge
    endpoints sit at stop 0 of each ring; node interfaces start at stop
    ``stop_spacing``.
    """
    builder = TopologyBuilder()
    nstops = max(2, (nodes_per_ring + 1) * stop_spacing)
    builder.add_ring(0, nstops, bidirectional)
    builder.add_ring(1, nstops, bidirectional)
    ring0 = [builder.add_node(0, (i + 1) * stop_spacing) for i in range(nodes_per_ring)]
    ring1 = [builder.add_node(1, (i + 1) * stop_spacing) for i in range(nodes_per_ring)]
    builder.add_bridge(0, 0, 1, 0, level=2, link_latency=link_latency)
    return builder.build(), ring0, ring1


def chiplet_chain(
    n_rings: int = 4,
    nodes_per_ring: int = 8,
    bidirectional: bool = True,
    stop_spacing: int = 2,
    link_latency: int = LATENCY.d2d_link,
) -> Tuple[TopologySpec, List[List[int]]]:
    """``n_rings`` chiplets in a line, adjacent pairs joined by RBRG-L2s.

    Every ring couples to its neighbours only through die-to-die
    pipelines, so a chain of ``n`` rings exercises multi-hop
    cross-chiplet routing (the routing oracle tests use it).  Ring ``i``
    hosts its left bridge endpoint at stop 0 and its right endpoint at
    stop ``(nodes_per_ring + 1) * stop_spacing``; node interfaces fill
    the stops between.  Returns (topology, per-ring node id lists).
    """
    if n_rings < 2:
        raise ValueError("a chain needs at least two rings")
    if nodes_per_ring < 1:
        raise ValueError("need at least one node per ring")
    if stop_spacing < 1:
        raise ValueError("stop_spacing must be >= 1")
    builder = TopologyBuilder()
    nstops = (nodes_per_ring + 2) * stop_spacing
    for ring in range(n_rings):
        builder.add_ring(ring, nstops, bidirectional)
    rings = [
        [builder.add_node(ring, (i + 1) * stop_spacing)
         for i in range(nodes_per_ring)]
        for ring in range(n_rings)
    ]
    right_stop = (nodes_per_ring + 1) * stop_spacing
    for ring in range(n_rings - 1):
        builder.add_bridge(ring, right_stop, ring + 1, 0, level=2,
                           link_latency=link_latency)
    return builder.build(), rings


def tiny_pair(
    nstops: int = 3,
    nodes_per_ring: int = 1,
    bidirectional: bool = False,
    link_latency: int = 1,
) -> Tuple[TopologySpec, List[int], List[int]]:
    """The smallest two-chiplet system — the model checker's testbench.

    Like :func:`chiplet_pair` but sized for exhaustive state enumeration
    (:mod:`repro.verify`): short rings, half rings by default, and a
    one-cycle die-to-die link.  The RBRG-L2 endpoints sit at stop 0 of
    each ring; node interfaces fill stops 1..``nodes_per_ring``.
    Returns (topology, nodes on ring 0, nodes on ring 1).
    """
    if nstops < 2:
        raise ValueError("a ring needs at least 2 stops")
    if not 1 <= nodes_per_ring < nstops:
        raise ValueError("need 1..nstops-1 nodes per ring")
    if link_latency < 1:
        raise ValueError("an RBRG-L2 link needs at least 1 cycle")
    builder = TopologyBuilder()
    builder.add_ring(0, nstops, bidirectional)
    builder.add_ring(1, nstops, bidirectional)
    ring0 = [builder.add_node(0, 1 + i) for i in range(nodes_per_ring)]
    ring1 = [builder.add_node(1, 1 + i) for i in range(nodes_per_ring)]
    builder.add_bridge(0, 0, 1, 0, level=2, link_latency=link_latency)
    return builder.build(), ring0, ring1


@dataclass
class GridLayout:
    """Result of :func:`grid_of_rings`.

    ``vring_nodes[i]`` are the device node ids on vertical ring ``i``
    (the AI cores); ``hring_nodes[j]`` are the memory-side node ids on
    horizontal ring ``j`` (L2 slices, LLC, HBM, DMA).  Vertical ring
    ``i`` has ring id ``i``; horizontal ring ``j`` has ring id
    ``100 + j``.
    """

    topology: TopologySpec
    vring_nodes: List[List[int]] = field(default_factory=list)
    hring_nodes: List[List[int]] = field(default_factory=list)

    @property
    def all_device_nodes(self) -> List[int]:
        return [n for ring in self.vring_nodes for n in ring]

    @property
    def all_memory_nodes(self) -> List[int]:
        return [n for ring in self.hring_nodes for n in ring]


def _interleaved_layout(
    n_bridges: int, n_nodes: int, stop_spacing: int
) -> Tuple[int, List[int], List[int]]:
    """Evenly interleave bridge and node interfaces around one ring.

    Returns (nstops, bridge stops, node stops).  Bridges anchor the ring;
    nodes fill the arcs between consecutive bridges as evenly as possible
    — this is the paper's point that ring stops "are not restricted to
    the number of intersections" (Section 4.3).
    """
    slots: List[str] = []
    base = n_nodes // n_bridges if n_bridges else 0
    extra = n_nodes % n_bridges if n_bridges else 0
    if n_bridges == 0:
        slots = ["node"] * n_nodes
    else:
        for b in range(n_bridges):
            slots.append("bridge")
            count = base + (1 if b < extra else 0)
            slots.extend(["node"] * count)
    nstops = max(2, len(slots) * stop_spacing)
    bridge_stops = [i * stop_spacing for i, s in enumerate(slots) if s == "bridge"]
    node_stops = [i * stop_spacing for i, s in enumerate(slots) if s == "node"]
    return nstops, bridge_stops, node_stops


def grid_of_rings(
    n_vrings: int,
    n_hrings: int,
    devices_per_vring: int,
    memory_per_hring: int,
    stop_spacing: int = 2,
    vring_bidirectional: bool = True,
    hring_bidirectional: bool = True,
    vring_lanes: Optional[int] = None,
    hring_lanes: Optional[int] = None,
) -> GridLayout:
    """The AI-processor layout: device rings × memory rings.

    Every (vertical, horizontal) ring pair meets at exactly one RBRG-L1,
    so any device↔memory route changes ring at most once (X-Y/Y-X
    routing, Section 4.3).
    """
    if n_vrings < 1 or n_hrings < 1:
        raise ValueError("need at least one ring in each direction")
    builder = TopologyBuilder()
    layout = GridLayout(topology=TopologySpec())

    v_nstops, v_bridge_stops, v_node_stops = _interleaved_layout(
        n_hrings, devices_per_vring, stop_spacing
    )
    h_nstops, h_bridge_stops, h_node_stops = _interleaved_layout(
        n_vrings, memory_per_hring, stop_spacing
    )

    for i in range(n_vrings):
        builder.add_ring(i, v_nstops, vring_bidirectional, lanes=vring_lanes)
    for j in range(n_hrings):
        builder.add_ring(100 + j, h_nstops, hring_bidirectional,
                         lanes=hring_lanes)

    for i in range(n_vrings):
        layout.vring_nodes.append(
            [builder.add_node(i, stop) for stop in v_node_stops[:devices_per_vring]]
        )
    for j in range(n_hrings):
        layout.hring_nodes.append(
            [builder.add_node(100 + j, stop) for stop in h_node_stops[:memory_per_hring]]
        )

    for i in range(n_vrings):
        for j in range(n_hrings):
            builder.add_bridge(
                i, v_bridge_stops[j], 100 + j, h_bridge_stops[i], level=1
            )

    layout.topology = builder.build()
    return layout
