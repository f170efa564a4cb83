"""AI-Processor assembly: the multi-ring mesh of Figure 8(B).

AI cores ride the vertical rings; the memory population (interleaved L2
slices, LLC directory slices, HBM stacks, DMA engines) is interleaved
around the horizontal rings so that request traffic spreads evenly —
the equilibrium property of Figure 14.  Every vertical/horizontal pair
meets at one RBRG-L1, giving X-Y/Y-X routing with at most one ring
change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.ai.aicore import AiCore
from repro.ai.dma import DmaEngine
from repro.ai.hbm import HbmStack
from repro.ai.l2slice import L2Slice
from repro.ai.llc import LlcDirectory
from repro.core.config import MultiRingConfig
from repro.core.network import MultiRingFabric
from repro.core.topology import grid_of_rings
from repro.fabric.probes import BandwidthProbe, ProbeSet
from repro.params import NOC_FREQ_HZ
from repro.sim.engine import SimComponent


@dataclass
class AiProcessorConfig:
    """Sizing of the AI processor (defaults follow Section 3.2.2)."""

    n_vrings: int = 8
    cores_per_vring: int = 4        # 32 AI cores
    n_hrings: int = 4
    n_l2: int = 24                  # interleaved data slices
    n_llc: int = 4                  # directory front-end slices
    n_hbm: int = 6                  # 500 GB/s stacks (Section 3.2.2)
    n_dma: int = 2
    stop_spacing: int = 2
    read_fraction: float = 0.5
    core_mlp: int = 24
    llc_hit_rate: float = 0.98
    dma_issues_per_cycle: float = 2.0   # per engine
    vring_bidirectional: bool = True
    hring_bidirectional: bool = True
    #: One NoC transaction moves this many bytes: AI traffic is burst
    #: oriented (tensor tiles), riding the x2.5-width high-speed fabric.
    burst_bytes: int = 256
    #: Parallel lanes per ring direction (wide-bus replication).
    lanes_per_direction: int = 2
    #: Lane override for the horizontal (memory) rings, which aggregate
    #: every traffic class; None inherits lanes_per_direction.
    hring_lanes: "int | None" = None
    #: Minimum cycles between issues at one core (models a narrower core
    #: port; 1 = issue every cycle).  Kept for ablations.
    core_issue_interval: int = 1

    @property
    def n_cores(self) -> int:
        return self.n_vrings * self.cores_per_vring

    @property
    def memory_per_hring(self) -> int:
        total = self.n_l2 + self.n_llc + self.n_hbm + self.n_dma
        return (total + self.n_hrings - 1) // self.n_hrings


#: :class:`AiProcessorConfig` overrides for the reduced AI processor that
#: the ``ai-bandwidth`` command, the R:W sweep worker, the example and the
#: benchmark harness (Table 7 / Figure 14 / Table 8) all run: 32 AI cores
#: at MLP 48 on an 8x6 ring grid, DMA at 0.4 issues/cycle/engine.
REDUCED_AI_SIZING = dict(
    n_hrings=6, n_llc=12, n_l2=36, n_hbm=6, n_dma=6,
    core_mlp=48, dma_issues_per_cycle=0.4,
)


class AiProcessor(SimComponent):
    """A runnable AI processor on the paper's multi-ring mesh."""

    def __init__(
        self,
        config: Optional[AiProcessorConfig] = None,
        ring_config: Optional[MultiRingConfig] = None,
        seed: int = 0,
        probe_window: int = 256,
    ):
        self.config = cfg = config or AiProcessorConfig()
        layout = grid_of_rings(
            cfg.n_vrings,
            cfg.n_hrings,
            devices_per_vring=cfg.cores_per_vring,
            memory_per_hring=cfg.memory_per_hring,
            stop_spacing=cfg.stop_spacing,
            vring_bidirectional=cfg.vring_bidirectional,
            hring_bidirectional=cfg.hring_bidirectional,
            vring_lanes=cfg.lanes_per_direction,
            hring_lanes=cfg.hring_lanes,
        )
        self.layout = layout
        if ring_config is None:
            ring_config = MultiRingConfig(lanes_per_direction=cfg.lanes_per_direction)
        self.fabric = MultiRingFabric(layout.topology, ring_config)

        # Interleave memory roles across horizontal rings so each ring
        # carries a balanced share of every role.
        roles = (["l2"] * cfg.n_l2 + ["llc"] * cfg.n_llc
                 + ["hbm"] * cfg.n_hbm + ["dma"] * cfg.n_dma)
        memory_nodes = []
        for j in range(max(len(g) for g in layout.hring_nodes)):
            for ring_nodes in layout.hring_nodes:
                if j < len(ring_nodes):
                    memory_nodes.append(ring_nodes[j])
        if len(memory_nodes) < len(roles):
            raise ValueError("not enough memory stops for the configured roles")

        l2_nodes: List[int] = []
        llc_nodes: List[int] = []
        hbm_nodes: List[int] = []
        dma_nodes: List[int] = []
        for node, role in zip(memory_nodes, roles):
            {"l2": l2_nodes, "llc": llc_nodes,
             "hbm": hbm_nodes, "dma": dma_nodes}[role].append(node)

        def l2_map(addr: int) -> int:
            return l2_nodes[addr % len(l2_nodes)]

        def llc_map(addr: int) -> int:
            return llc_nodes[addr % len(llc_nodes)]

        def hbm_map(addr: int) -> int:
            return hbm_nodes[addr % len(hbm_nodes)]

        self.l2_slices = [
            L2Slice(node, self.fabric, burst_bytes=cfg.burst_bytes,
                    llc_map=llc_map, name=f"L2[{i}]")
            for i, node in enumerate(l2_nodes)
        ]
        self.llcs = [
            LlcDirectory(node, self.fabric, l2_map, hbm_map,
                         hit_rate=cfg.llc_hit_rate, seed=seed + 101 + i,
                         name=f"LLC[{i}]")
            for i, node in enumerate(llc_nodes)
        ]
        self.hbms = [
            HbmStack(node, self.fabric, burst_bytes=cfg.burst_bytes,
                     name=f"HBM[{i}]")
            for i, node in enumerate(hbm_nodes)
        ]
        self.dmas = [
            DmaEngine(node, self.fabric, l2_nodes, hbm_nodes,
                      issues_per_cycle=cfg.dma_issues_per_cycle,
                      seed=seed + 301 + i, burst_bytes=cfg.burst_bytes,
                      name=f"DMA[{i}]")
            for i, node in enumerate(dma_nodes)
        ]
        self.cores = [
            AiCore(node, self.fabric, llc_map, l2_map,
                   read_fraction=cfg.read_fraction, mlp=cfg.core_mlp,
                   seed=seed + 501 + i, burst_bytes=cfg.burst_bytes,
                   issue_interval=cfg.core_issue_interval,
                   name=f"AIC[{i}]")
            for i, node in enumerate(layout.all_device_nodes)
        ]
        #: Figure 14 instrumentation: one probe per AI core station.
        self.core_probes = ProbeSet([
            self.fabric.add_delivery_probe(core.node_id, probe_window)
            for core in self.cores
        ])
        self._agents = (self.cores + self.l2_slices + self.llcs
                        + self.hbms + self.dmas)
        self._cycle = 0

    # -- clocking ----------------------------------------------------------

    def step(self, cycle: int) -> None:
        for agent in self._agents:
            agent.step(cycle)
        self.fabric.step(cycle)
        self._cycle = cycle + 1

    def run(self, cycles: int) -> int:
        for _ in range(cycles):
            self.step(self._cycle)
        return self._cycle

    # -- measurement ----------------------------------------------------------

    def bandwidth_report(self, elapsed_cycles: Optional[int] = None) -> Dict[str, float]:
        """Completion-based bandwidth by class, in TB/s at 3 GHz.

        Matches Table 7's columns: total, read (L2->core data), write
        (core->L2 data), and DMA (L2<->HBM background)."""
        cycles = elapsed_cycles if elapsed_cycles is not None else self._cycle
        if cycles <= 0:
            return {"total": 0.0, "read": 0.0, "write": 0.0, "dma": 0.0}
        read_bytes = sum(c.stats.read_bytes for c in self.cores)
        write_bytes = sum(c.stats.write_bytes for c in self.cores)
        dma_bytes = sum(d.bytes_moved for d in self.dmas)
        scale = NOC_FREQ_HZ / cycles / 1e12
        return {
            "read": read_bytes * scale,
            "write": write_bytes * scale,
            "dma": dma_bytes * scale,
            "total": (read_bytes + write_bytes + dma_bytes) * scale,
        }
