"""Buffered-mesh fabric — the Intel mesh-era baseline (ICX class).

A cols × rows grid of :class:`repro.baselines.buffered_router.BufferedRouter`
with XY routing and credit flow control.  Each node (core slice, LLC
slice, memory controller) attaches at one router's local port.  The key
contrast with the paper's ring: every hop pays the router pipeline
(default 3 cycles) instead of the ring's single-cycle pass-through, while
offering higher path diversity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.baselines.buffered_router import (
    EAST,
    LOCAL,
    NORTH,
    SOUTH,
    WEST,
    BufferedRouter,
)
from repro.fabric.interface import Fabric
from repro.fabric.message import Message


@dataclass
class MeshConfig:
    """Dimensions and router parameters for a buffered mesh."""

    cols: int
    rows: int
    #: node id -> (x, y) router coordinate.
    placement: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    input_queue_depth: int = 4
    #: Per-hop router pipeline latency (buffer write + route + VC/SA + ST).
    router_pipeline: int = 3
    #: Source injection queue depth at the local port.
    inject_queue_depth: int = 4

    def validate(self) -> None:
        if self.cols < 1 or self.rows < 1:
            raise ValueError("mesh must be at least 1x1")
        for node, (x, y) in self.placement.items():
            if not (0 <= x < self.cols and 0 <= y < self.rows):
                raise ValueError(f"node {node} placed off-mesh at ({x},{y})")


def square_mesh_placement(n_nodes: int) -> MeshConfig:
    """Smallest near-square mesh with one node per router, row-major."""
    cols = 1
    while cols * cols < n_nodes:
        cols += 1
    rows = (n_nodes + cols - 1) // cols
    placement = {i: (i % cols, i // cols) for i in range(n_nodes)}
    return MeshConfig(cols=cols, rows=rows, placement=placement)


class BufferedMeshFabric(Fabric):
    """Credit-flow-controlled buffered mesh implementing the Fabric ABC."""

    def __init__(self, config: MeshConfig):
        super().__init__()
        config.validate()
        self.config = config
        self.routers: Dict[Tuple[int, int], BufferedRouter] = {}
        for x in range(config.cols):
            for y in range(config.rows):
                self.routers[(x, y)] = BufferedRouter(
                    x, y, config.input_queue_depth, config.router_pipeline,
                    self._on_local_delivery,
                )
        for (x, y), router in self.routers.items():
            if y + 1 < config.rows:
                router.connect(NORTH, self.routers[(x, y + 1)])
            if y - 1 >= 0:
                router.connect(SOUTH, self.routers[(x, y - 1)])
            if x + 1 < config.cols:
                router.connect(EAST, self.routers[(x + 1, y)])
            if x - 1 >= 0:
                router.connect(WEST, self.routers[(x - 1, y)])
        self._placement = dict(config.placement)
        #: Per-node source queues feeding the local input port.
        self._inject_queues: Dict[int, List[Message]] = {
            node: [] for node in self._placement
        }
        #: Messages across all source queues, so an idle cycle skips the scan.
        self._queued = 0
        self._delivery_cycle = 0

    # -- Fabric interface ---------------------------------------------------

    def nodes(self) -> List[int]:
        return list(self._placement)

    def placement(self, node: int) -> Tuple[int, int]:
        return self._placement[node]

    def try_inject(self, msg: Message) -> bool:
        queue = self._inject_queues.get(msg.src)
        if queue is None:
            raise KeyError(f"message source {msg.src} is not a mesh node")
        if msg.dst not in self._placement:
            raise KeyError(f"message destination {msg.dst} is not a mesh node")
        if len(queue) >= self.config.inject_queue_depth:
            self.stats.rejected += 1
            return False
        queue.append(msg)
        self._queued += 1
        self.stats.accepted += 1
        return True

    def step(self, cycle: int) -> None:
        self._delivery_cycle = cycle
        # Source queues compete for the local input buffer of their router.
        if self._queued:
            for node, queue in self._inject_queues.items():
                if not queue:
                    continue
                router = self.routers[self._placement[node]]
                if router.has_space(LOCAL):
                    msg = queue.pop(0)
                    self._queued -= 1
                    msg.injected_cycle = cycle
                    self.stats.injected += 1
                    router.accept(LOCAL, msg, cycle)
        # A router with every input buffer empty grants nothing and keeps
        # its round-robin pointers, so skipping it is exact.  The check
        # runs in the loop: a router stepped earlier this cycle may have
        # just filled a later one's buffer.
        lookup = self._dst_lookup
        for router in self.routers.values():
            if any(router.inputs):
                router.step(cycle, lookup)

    def _dst_lookup(self, msg: Message) -> Tuple[int, int]:
        return self._placement[msg.dst]

    def _on_local_delivery(self, msg: Message, cycle: int) -> None:
        self._deliver(msg, cycle)

    # -- instrumentation ------------------------------------------------------

    def occupancy(self) -> int:
        in_routers = sum(r.occupancy() for r in self.routers.values())
        return in_routers + self._queued

    def messages_in_flight(self) -> List[Message]:
        out: List[Message] = []
        for router in self.routers.values():
            out.extend(router.messages())
        for queue in self._inject_queues.values():
            out.extend(queue)
        return out
