"""Fixed-latency, contention-free fabric.

Used to calibrate experiments (separating protocol latency from network
latency) and as the upper bound in ablation plots.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence, Tuple

from repro.fabric.interface import Fabric
from repro.fabric.message import Message


class IdealFabric(Fabric):
    """Delivers every message exactly ``latency`` cycles after injection."""

    def __init__(self, nodes: Sequence[int], latency: int = 1):
        super().__init__()
        if latency < 1:
            raise ValueError("latency must be >= 1")
        self._nodes = list(nodes)
        self._node_set = set(nodes)
        self._latency = latency
        self._in_flight: List[Tuple[int, int, Message]] = []
        self._seq = 0
        self._cycle = 0

    def nodes(self) -> List[int]:
        return list(self._nodes)

    def try_inject(self, msg: Message) -> bool:
        if msg.src not in self._node_set or msg.dst not in self._node_set:
            raise KeyError(f"unknown endpoint on message {msg.msg_id}")
        msg.injected_cycle = self._cycle
        self.stats.accepted += 1
        self.stats.injected += 1
        self._seq += 1
        heapq.heappush(
            self._in_flight, (self._cycle + self._latency, self._seq, msg)
        )
        return True

    def step(self, cycle: int) -> None:
        self._cycle = cycle + 1
        while self._in_flight and self._in_flight[0][0] <= cycle:
            _, _, msg = heapq.heappop(self._in_flight)
            self._deliver(msg, cycle)

    # -- instrumentation ----------------------------------------------------

    def occupancy(self) -> int:
        return len(self._in_flight)

    def messages_in_flight(self) -> List[Message]:
        return [msg for _, _, msg in self._in_flight]
