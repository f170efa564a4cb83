"""Central-switch chiplet star — the AMD EPYC IOD-class baseline.

AMD-7742 organizes eight compute chiplets (CCDs) around one IO die whose
switched fabric carries *all* cross-CCD and memory traffic.  The paper's
Table 5 shows the consequence: intra- and inter-chiplet latencies are
nearly identical (~138 cycles) because every coherent transaction transits
the central switch.

The model is a staged queueing network: every message follows a path of
rate- and capacity-limited :class:`Link` stages — chiplet-local fabric,
SerDes uplink, central switch, SerDes downlink — with head-of-line
blocking providing backpressure.  Home agents and memory controllers are
placed on the hub, which is what routes even same-chiplet coherence
through the switch (matching the real organization).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.fabric.interface import Fabric
from repro.fabric.message import Message


class Link:
    """A FIFO stage: ``latency`` cycles of transit, ``rate`` exits/cycle."""

    def __init__(self, name: str, latency: int, rate: int, capacity: int):
        self.name = name
        self.latency = latency
        self.rate = rate
        self.capacity = capacity
        self.queue: List[List] = []  # [ready_cycle, msg]

    def has_space(self) -> bool:
        return len(self.queue) < self.capacity

    def push(self, msg: Message, cycle: int) -> None:
        self.queue.append([cycle + self.latency, msg])

    def step(self, cycle: int, forward: Callable[[Message, int], bool]) -> None:
        """Offer up to ``rate`` ready heads to ``forward`` (HOL blocking)."""
        for _ in range(self.rate):
            if not self.queue or self.queue[0][0] > cycle:
                return
            if not forward(self.queue[0][1], cycle):
                return
            self.queue.pop(0)

    def occupancy(self) -> int:
        return len(self.queue)


@dataclass
class SwitchedStarConfig:
    """Topology and timing of the star."""

    #: Node ids per compute chiplet.
    chiplets: List[List[int]] = field(default_factory=list)
    #: Node ids on the central IO die (home agents, memory controllers).
    hub_nodes: List[int] = field(default_factory=list)
    #: Chiplet-internal fabric traversal.
    local_latency: int = 6
    local_rate: int = 4
    #: Chiplet <-> hub SerDes, one way.
    link_latency: int = 30
    link_rate: int = 1
    #: Central switch traversal.
    hub_latency: int = 4
    hub_rate: int = 8
    queue_depth: int = 16
    inject_queue_depth: int = 4

    def validate(self) -> None:
        seen = set()
        for group in list(self.chiplets) + [self.hub_nodes]:
            for node in group:
                if node in seen:
                    raise ValueError(f"node {node} appears twice")
                seen.add(node)
        if not self.chiplets:
            raise ValueError("need at least one compute chiplet")


class SwitchedStarFabric(Fabric):
    """Chiplets around a central switch, behind the Fabric interface."""

    def __init__(self, config: SwitchedStarConfig):
        super().__init__()
        config.validate()
        self.config = config
        self._chiplet_of: Dict[int, Optional[int]] = {}
        for idx, group in enumerate(config.chiplets):
            for node in group:
                self._chiplet_of[node] = idx
        for node in config.hub_nodes:
            self._chiplet_of[node] = None  # hub resident

        depth = config.queue_depth
        self._locals = [
            Link(f"local{i}", config.local_latency, config.local_rate, depth)
            for i in range(len(config.chiplets))
        ]
        self._uplinks = [
            Link(f"up{i}", config.link_latency, config.link_rate, depth)
            for i in range(len(config.chiplets))
        ]
        self._downlinks = [
            Link(f"down{i}", config.link_latency, config.link_rate, depth)
            for i in range(len(config.chiplets))
        ]
        self._hub = Link("hub", config.hub_latency, config.hub_rate, depth * 2)
        #: Every link in reverse flow order, so a message moves one
        #: stage per cycle.
        self._stages: List[Link] = (
            self._locals + self._downlinks + [self._hub] + self._uplinks
        )
        self._inject_queues: Dict[int, List[Message]] = {
            node: [] for node in self._chiplet_of
        }
        #: Messages across all source queues, so an idle cycle skips the scan.
        self._queued = 0
        #: msg_id -> remaining path (list of Links, then delivery).
        self._paths: Dict[int, List[Link]] = {}

    # -- path construction ---------------------------------------------------

    def _path_for(self, msg: Message) -> List[Link]:
        src_c = self._chiplet_of[msg.src]
        dst_c = self._chiplet_of[msg.dst]
        path: List[Link] = []
        if src_c is not None:
            path.append(self._locals[src_c])
            if dst_c == src_c:
                return path  # stays inside the chiplet fabric
            path.append(self._uplinks[src_c])
        path.append(self._hub)
        if dst_c is not None:
            path.append(self._downlinks[dst_c])
            path.append(self._locals[dst_c])
        return path

    # -- Fabric interface ------------------------------------------------------

    def nodes(self) -> List[int]:
        return list(self._chiplet_of)

    def try_inject(self, msg: Message) -> bool:
        queue = self._inject_queues.get(msg.src)
        if queue is None:
            raise KeyError(f"message source {msg.src} is not a star node")
        if msg.dst not in self._chiplet_of:
            raise KeyError(f"message destination {msg.dst} is not a star node")
        if len(queue) >= self.config.inject_queue_depth:
            self.stats.rejected += 1
            return False
        queue.append(msg)
        self._queued += 1
        self.stats.accepted += 1
        return True

    def step(self, cycle: int) -> None:
        # Sources enter the first stage of their path.
        if self._queued:
            for node, queue in self._inject_queues.items():
                if not queue:
                    continue
                msg = queue[0]
                path = self._path_for(msg)
                first = path[0]
                if first.has_space():
                    queue.pop(0)
                    self._queued -= 1
                    msg.injected_cycle = cycle
                    self.stats.injected += 1
                    self._paths[msg.msg_id] = path[1:]
                    first.push(msg, cycle)

        # An empty link offers nothing, so skipping it is exact.  The
        # check runs in the loop: an earlier stage may have just pushed
        # into a later one.
        forward = self._forward
        for link in self._stages:
            if link.queue:
                link.step(cycle, forward)

    def _forward(self, msg: Message, cycle: int) -> bool:
        remaining = self._paths[msg.msg_id]
        if not remaining:
            del self._paths[msg.msg_id]
            self._deliver(msg, cycle)
            return True
        nxt = remaining[0]
        if not nxt.has_space():
            return False
        self._paths[msg.msg_id] = remaining[1:]
        nxt.push(msg, cycle)
        return True

    # -- instrumentation --------------------------------------------------------

    def occupancy(self) -> int:
        return sum(l.occupancy() for l in self._stages) + self._queued

    def messages_in_flight(self) -> List[Message]:
        out: List[Message] = [entry[1] for link in self._stages
                              for entry in link.queue]
        for queue in self._inject_queues.values():
            out.extend(queue)
        return out
