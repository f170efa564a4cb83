"""Ring bridges: RBRG-L1 (intra-chiplet) and RBRG-L2 (inter-chiplet).

Section 4.1.3: RBRG-L1s "act as devices that reside in every intersection"
of the interwoven multi-ring — they buffer flits changing rings and
regenerate routing information.  RBRG-L2 connects rings on *different*
dies: same buffering and routing role, plus backpressure flow control, a
parallel-IO die-to-die link, and the SWAP deadlock-resolution duty of
Section 4.4.

Both bridges occupy one node interface (a :class:`repro.core.station.Port`)
on each of the two rings they join: they drain that port's Eject Queue and
fill the peer port's Inject Queue.  Backpressure is implicit and purely
local — a full internal stage simply stops draining the Eject Queue, the
Eject Queue fills, and arriving flits deflect with E-tags.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.config import BridgeSpec, MultiRingConfig
from repro.core.flit import Flit
from repro.core.station import Port
from repro.core.swap import SwapController
from repro.fabric.stats import FabricStats
from repro.params import LATENCY


class RingBridgeL1:
    """Intra-chiplet ring bridge: a short buffered crossover."""

    def __init__(
        self,
        spec: BridgeSpec,
        port_a: Port,
        port_b: Port,
        config: MultiRingConfig,
        stats: FabricStats,
        latency: int = LATENCY.bridge_l1,
    ):
        self.spec = spec
        self.stats = stats
        self._latency = latency
        self._depth = config.queues.bridge_rx_depth
        # One pipeline per direction: entries are [ready_cycle, flit].
        self._paths: List[Tuple[Port, Port, List[List]]] = [
            (port_a, port_b, []),
            (port_b, port_a, []),
        ]

    def step(self, cycle: int) -> None:
        trace = self.stats.trace
        for src_port, dst_port, pipe in self._paths:
            # Drain the pipeline head onto the peer ring's inject queue.
            if pipe and pipe[0][0] <= cycle and not dst_port.inject_full:
                out = pipe.pop(0)[1]
                dst_port.enqueue_inject(out)
                if trace.enabled:
                    trace.emit(cycle, "bridge-exit", out.msg.msg_id, -1, -1,
                               f"bridge={self.spec.bridge_id}")
            # Intake from our Eject Queue; stalling here is the
            # backpressure that makes upstream flits deflect.
            if src_port.eject_queue and len(pipe) < self._depth:
                flit: Flit = src_port.eject_queue.popleft()
                flit.advance_hop()
                pipe.append([cycle + self._latency, flit])
                if trace.enabled:
                    trace.emit(cycle, "bridge-enter", flit.msg.msg_id, -1, -1,
                               f"bridge={self.spec.bridge_id}")

    def occupancy(self) -> int:
        return sum(len(pipe) for _, _, pipe in self._paths)

    def flits_in_flight(self) -> List[Flit]:
        return [entry[1] for _, _, pipe in self._paths for entry in pipe]

    def snapshot(self, cycle: int) -> tuple:
        """Structural state for repro.verify's canonical encoding.

        Pipeline ready-cycles are encoded relative to ``cycle`` and
        clamped at zero: an entry whose ready cycle has passed behaves
        identically no matter how long ago it became ready.
        """
        return (
            self.spec.bridge_id,
            tuple(
                tuple((max(entry[0] - cycle, 0), entry[1]) for entry in pipe)
                for _, _, pipe in self._paths
            ),
        )


class RingBridgeL2:
    """Inter-chiplet ring bridge with die-to-die link and SWAP.

    Per direction the path is::

        Eject Queue -> Tx buffers -> link pipe -> peer Inject Queue
                   \\-> reserved Tx (DRM only, priority on the link)

    The link pipe has two implementations: the baseline perfect FIFO
    (below) and the reliable link layer of :mod:`repro.faults.link`
    (CRC/ack-nak/replay), enabled by :meth:`enable_link_layer` or a
    ``MultiRingConfig.reliability`` setting.  Both are stepped only from
    :meth:`step`, which runs once per cycle under fast and reference
    ring stepping alike, so link behaviour is identical across modes.
    """

    def __init__(
        self,
        spec: BridgeSpec,
        port_a: Port,
        port_b: Port,
        config: MultiRingConfig,
        stats: FabricStats,
        bridge_latency: int = LATENCY.bridge_l2,
    ):
        self.spec = spec
        self.stats = stats
        self._config = config
        self._bridge_latency = bridge_latency
        self._link_latency = spec.link_latency
        queues = config.queues
        self._tx_depth = queues.bridge_tx_depth
        self.swap_a = SwapController(queues, stats, config.enable_swap)
        self.swap_b = SwapController(queues, stats, config.enable_swap)
        # Per direction: (src_port, dst_port, tx, link_pipe, src_swap).
        # ``src_swap`` guards the direction's Tx because DRM frees the
        # *source* side's Eject Queue.
        self._paths = [
            (port_a, port_b, [], [], self.swap_a),
            (port_b, port_a, [], [], self.swap_b),
        ]
        self.port_a = port_a
        self.port_b = port_b
        #: Reliable per-direction links (None = baseline perfect pipe),
        #: aligned with ``_paths``.
        self._links = None
        #: Bridge-scoped fault models (whole-bridge stall windows).
        self._bridge_models: List = []
        if config.reliability is not None:
            self.enable_link_layer(config.reliability)

    @property
    def links(self) -> List:
        """The reliable D2D links, one per direction (empty if disabled)."""
        return self._links or []

    def _ensure_fault_stats(self):
        if self.stats.faults is None:
            from repro.faults.stats import FaultStats
            self.stats.faults = FaultStats()
        return self.stats.faults

    def enable_link_layer(self, reliability=None) -> None:
        """Replace the perfect link pipe with the reliable link layer.

        Must run before any traffic crosses the bridge; idempotent (the
        first enable's configuration wins).
        """
        if self._links is not None:
            return
        from repro.faults.link import D2DLink, LinkReliabilityConfig
        if reliability is None:
            reliability = LinkReliabilityConfig()
        for _, _, tx, pipe, _ in self._paths:
            if tx or pipe:
                raise RuntimeError(
                    "enable_link_layer must run before traffic crosses "
                    f"bridge {self.spec.bridge_id}")
        faults = self._ensure_fault_stats()
        bid = self.spec.bridge_id
        self._links = [
            D2DLink(f"bridge{bid}:a->b", self._link_latency, reliability,
                    self.stats, faults),
            D2DLink(f"bridge{bid}:b->a", self._link_latency, reliability,
                    self.stats, faults),
        ]

    def add_bridge_fault(self, model) -> None:
        """Attach a bound bridge-scoped fault model (stall windows)."""
        self._ensure_fault_stats()
        self._bridge_models.append(model)

    def step(self, cycle: int) -> None:
        if self._bridge_models:
            stalled = False
            for model in self._bridge_models:  # poll all: fixed draw counts
                if model.bridge_stalled(cycle):
                    stalled = True
            if stalled:
                self.stats.faults.bridge_stall_cycles += 1
                return

        # Detection runs on the Inject Queue of each endpoint's station:
        # consecutive injection failures over threshold mean the local
        # ring cannot absorb cross-ring flits (Section 4.4).
        self.swap_a.update(self.port_a.consecutive_failures)
        self.swap_b.update(self.port_b.consecutive_failures)
        self.port_a.drm_active = self.swap_a.in_drm
        self.port_b.drm_active = self.swap_b.in_drm

        links = self._links
        for idx, (src_port, dst_port, tx, link, swap) in enumerate(self._paths):
            if links is None:
                # 4) link exit -> peer Inject Queue.
                if link and link[0][0] <= cycle:
                    if dst_port.inject_full:
                        # Ring-side backpressure on the link exit; count
                        # it so a stuck peer ring is visible in stats
                        # instead of an unexplained latency cliff.
                        self.stats.link_stall_cycles += 1
                    else:
                        out = link.pop(0)[1]
                        dst_port.enqueue_inject(out)
                        trace = self.stats.trace
                        if trace.enabled:
                            trace.emit(cycle, "bridge-exit", out.msg.msg_id,
                                       -1, -1,
                                       f"bridge={self.spec.bridge_id}")

                # 3) Tx -> link, one flit per cycle, reserved Tx first.
                if len(link) <= self._link_latency:
                    if swap.has_priority_flit:
                        link.append([cycle + self._link_latency, swap.pop_priority_flit()])
                    elif tx and tx[0][0] <= cycle:
                        link.append([cycle + self._link_latency, tx.pop(0)[1]])
            else:
                d2d = links[idx]
                d2d.begin_cycle(cycle)
                d2d.process_acks(cycle)
                # 4) link exit -> peer Inject Queue (CRC check, ack/nak).
                d2d.deliver(cycle, dst_port)
                # 3) Tx -> link: pending retransmissions beat new flits;
                # reserved (SWAP) Tx beats the normal Tx; a full replay
                # buffer backpressures new flits only.
                if d2d.ready(cycle) and not d2d.try_retransmit(cycle):
                    if swap.has_priority_flit:
                        if d2d.can_send_new():
                            d2d.send_new(cycle, swap.pop_priority_flit())
                    elif tx and tx[0][0] <= cycle and d2d.can_send_new():
                        d2d.send_new(cycle, tx.pop(0)[1])

            # 2) DRM: when normal Tx is full, push an Eject-Queue flit into
            # the reserved Tx to vacate eject space for a circling flit.
            if (
                swap.in_drm
                and src_port.eject_queue
                and len(tx) >= self._tx_depth
                and swap.reserved_capacity_free > 0
            ):
                swap.try_absorb(self._take(src_port, cycle))

            # 1) Eject Queue -> Tx.
            if src_port.eject_queue and len(tx) < self._tx_depth:
                flit = self._take(src_port, cycle)
                tx.append([cycle + self._bridge_latency, flit])

    def _take(self, port: Port, cycle: int) -> Flit:
        flit: Flit = port.eject_queue.popleft()
        flit.advance_hop()
        trace = self.stats.trace
        if trace.enabled:
            trace.emit(cycle, "bridge-enter", flit.msg.msg_id, -1, -1,
                       f"bridge={self.spec.bridge_id}")
        return flit

    def occupancy(self) -> int:
        total = len(self.swap_a.reserved_tx) + len(self.swap_b.reserved_tx)
        links = self._links
        for idx, (_, _, tx, link, _) in enumerate(self._paths):
            total += len(tx)
            total += links[idx].occupancy() if links is not None else len(link)
        return total

    def snapshot(self, cycle: int) -> tuple:
        """Structural state for repro.verify's canonical encoding.

        Covers the Tx pipelines, the baseline link pipes, and both SWAP
        controllers (ready cycles relative to ``cycle``, clamped at
        zero).  The reliable link layer carries sequence-numbered replay
        state that is deliberately outside the model checker's scope, so
        snapshotting a bridge with the link layer enabled is an error.
        """
        if self._links is not None:
            raise RuntimeError(
                f"bridge {self.spec.bridge_id}: snapshot() does not support "
                "the reliable link layer (model checking covers the "
                "baseline link only)")
        return (
            self.spec.bridge_id,
            (self.swap_a.in_drm, tuple(self.swap_a.reserved_tx)),
            (self.swap_b.in_drm, tuple(self.swap_b.reserved_tx)),
            tuple(
                (
                    tuple((max(e[0] - cycle, 0), e[1]) for e in tx),
                    tuple((max(e[0] - cycle, 0), e[1]) for e in link),
                )
                for _, _, tx, link, _ in self._paths
            ),
        )

    def flits_in_flight(self) -> List[Flit]:
        out = list(self.swap_a.reserved_tx) + list(self.swap_b.reserved_tx)
        links = self._links
        for idx, (_, _, tx, link, _) in enumerate(self._paths):
            out.extend(entry[1] for entry in tx)
            if links is not None:
                out.extend(links[idx].flits_in_flight())
            else:
                out.extend(entry[1] for entry in link)
        return out
