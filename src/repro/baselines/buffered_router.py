"""One input-queued buffered router for the mesh baseline.

Models the organization the paper contrasts with (Section 3.4.2): each hop
pays a multi-cycle router pipeline (buffer write, route compute, switch
allocation, traversal) and consumes buffer area; flow control is
credit-based — a flit only advances when the downstream input buffer has a
free entry, so flits never drop and never deflect.  XY dimension-order
routing keeps the mesh deadlock-free with a single virtual channel.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.fabric.message import Message

#: Port indices.
LOCAL, NORTH, SOUTH, EAST, WEST = range(5)
_OPPOSITE = {NORTH: SOUTH, SOUTH: NORTH, EAST: WEST, WEST: EAST}


class BufferedRouter:
    """5-port router at mesh coordinate (x, y)."""

    def __init__(
        self,
        x: int,
        y: int,
        input_depth: int,
        pipeline_latency: int,
        deliver: Callable[[Message, int], None],
    ):
        self.x = x
        self.y = y
        self.input_depth = input_depth
        self.pipeline_latency = pipeline_latency
        self._deliver = deliver
        #: Input buffers: entries are [ready_cycle, msg]; an entry counts
        #: against the buffer the moment it is sent (credit semantics).
        self.inputs: List[List[List]] = [[] for _ in range(5)]
        #: Neighbours by output port (None at mesh edges).
        self.neighbors: Dict[int, Optional["BufferedRouter"]] = {
            NORTH: None, SOUTH: None, EAST: None, WEST: None
        }
        self._rr: Dict[int, int] = {p: 0 for p in range(5)}

    # -- wiring -----------------------------------------------------------

    def connect(self, port: int, other: "BufferedRouter") -> None:
        self.neighbors[port] = other

    # -- credit check -----------------------------------------------------

    def has_space(self, port: int) -> bool:
        return len(self.inputs[port]) < self.input_depth

    def accept(self, port: int, msg: Message, ready_cycle: int) -> None:
        self.inputs[port].append([ready_cycle, msg])

    # -- routing ----------------------------------------------------------

    def output_for(self, dst_xy: Tuple[int, int]) -> int:
        """XY dimension-order routing."""
        dx, dy = dst_xy
        if dx > self.x:
            return EAST
        if dx < self.x:
            return WEST
        if dy > self.y:
            return NORTH
        if dy < self.y:
            return SOUTH
        return LOCAL

    # -- per-cycle switch allocation ---------------------------------------

    def step(self, cycle: int, dst_lookup: Callable[[Message], Tuple[int, int]]) -> None:
        """Grant at most one flit per output port, round-robin over inputs."""
        inputs = self.inputs
        # Output port wanted by each input's head; None while the buffer
        # is empty or its head is still in the pipeline.  Only a grant
        # changes a head, so each head is routed once.
        wants: List[Optional[int]] = [None] * 5
        for in_port in range(5):
            buf = inputs[in_port]
            if buf and buf[0][0] <= cycle:
                wants[in_port] = self.output_for(dst_lookup(buf[0][1]))
        rr = self._rr
        # Separate RR pointer per output port: scan inputs starting at the
        # output's pointer so persistent traffic cannot starve a port.
        for out_port in range(5):
            if out_port not in wants:
                continue
            start = rr[out_port]
            for k in range(5):
                in_port = (start + k) % 5
                if wants[in_port] != out_port:
                    continue
                buf = inputs[in_port]
                msg = buf[0][1]
                if out_port == LOCAL:
                    buf.pop(0)
                    self._deliver(msg, cycle)
                else:
                    neighbor = self.neighbors[out_port]
                    if neighbor is None:
                        raise RuntimeError(
                            f"XY routing left the mesh at ({self.x},{self.y})"
                        )
                    if not neighbor.has_space(_OPPOSITE[out_port]):
                        continue  # no credit: hold in buffer (no drop)
                    buf.pop(0)
                    neighbor.accept(
                        _OPPOSITE[out_port], msg, cycle + self.pipeline_latency
                    )
                # The granted input's next head may win a later output.
                wants[in_port] = (
                    self.output_for(dst_lookup(buf[0][1]))
                    if buf and buf[0][0] <= cycle else None
                )
                rr[out_port] = (in_port + 1) % 5
                break

    def occupancy(self) -> int:
        return sum(len(buf) for buf in self.inputs)

    def messages(self) -> List[Message]:
        return [entry[1] for buf in self.inputs for entry in buf]
