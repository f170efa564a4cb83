"""Wires CHI agents onto any fabric and checks global invariants.

:class:`CoherentSystem` is fabric-agnostic by construction: pass it the
paper's multi-ring NoC or any baseline, plus the node ids to use for
requesters, homes, and memories.  Addresses are line-granular integers,
interleaved across home nodes and memory nodes exactly as Section 3.2.2
describes for the distributed L2 ("associate the cache in an interleaved
manner, so that traffic spreads evenly").
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Sequence

from repro.coherence.cache import SetAssociativeCache
from repro.coherence.home import HomeNode
from repro.coherence.memory import MemoryNode
from repro.coherence.requester import RequestNode
from repro.coherence.states import CacheState, DirState
from repro.fabric.interface import Fabric
from repro.params import BANDWIDTH, LATENCY, LatencyParams
from repro.sim.engine import SimComponent


class CoherentSystem(SimComponent):
    """A complete coherent memory system over one fabric.

    Each cycle steps the agents, then the fabric.  An agent is stepped
    only when its step has work: a delay entry due by this cycle or a
    message in its outbox.  A skipped agent just has its clock set to
    the cycle, which is all its step would have done, so the result is
    identical to stepping every agent.  This relies on the request,
    home and memory nodes not overriding :meth:`ProtocolAgent.step`.
    """

    def __init__(
        self,
        fabric: Fabric,
        rn_ids: Sequence[int],
        hn_ids: Sequence[int],
        sn_ids: Sequence[int],
        cache_sets: int = 64,
        cache_ways: int = 8,
        latency: LatencyParams = LATENCY,
        memory_bytes_per_cycle: float = BANDWIDTH.ddr_channel_bytes_per_cycle,
        memory_latency: Optional[int] = None,
        max_mshrs: int = 16,
    ):
        if not rn_ids or not hn_ids or not sn_ids:
            raise ValueError("need at least one RN, HN, and SN")
        self.fabric = fabric
        self.latency = latency
        self._versions = itertools.count(1)
        hn_list = list(hn_ids)
        sn_list = list(sn_ids)

        def home_map(addr: int) -> int:
            return hn_list[addr % len(hn_list)]

        def memory_map(addr: int) -> int:
            return sn_list[addr % len(sn_list)]

        self.home_map = home_map
        self.memory_map = memory_map
        self.requesters: List[RequestNode] = [
            RequestNode(
                node_id=node,
                fabric=fabric,
                home_map=home_map,
                cache=SetAssociativeCache(cache_sets, cache_ways),
                version_source=self.next_version,
                latency=latency,
                max_mshrs=max_mshrs,
                name=f"RN{i}@{node}",
            )
            for i, node in enumerate(rn_ids)
        ]
        self.homes: List[HomeNode] = [
            HomeNode(node_id=node, fabric=fabric, memory_map=memory_map,
                     latency=latency, name=f"HN{i}@{node}")
            for i, node in enumerate(hn_list)
        ]
        self.memories: List[MemoryNode] = [
            MemoryNode(
                node_id=node,
                fabric=fabric,
                service_latency=(latency.ddr_service if memory_latency is None
                                 else memory_latency),
                bytes_per_cycle=memory_bytes_per_cycle,
                name=f"SN{i}@{node}",
            )
            for i, node in enumerate(sn_list)
        ]
        self._agents = self.requesters + self.homes + self.memories
        self._cycle = 0

    # -- clocking -----------------------------------------------------------

    def step(self, cycle: int) -> None:
        for agent in self._agents:
            delayed = agent._delayed
            if (delayed and delayed[0][0] <= cycle) or agent._outbox._pending:
                agent.step(cycle)
            else:
                agent.now = cycle
        self.fabric.step(cycle)
        self._cycle = cycle + 1

    def run(self, cycles: int) -> int:
        for _ in range(cycles):
            self.step(self._cycle)
        return self._cycle

    def run_until_idle(self, max_cycles: int = 200_000) -> int:
        """Run until no transaction, message, or internal work remains."""
        deadline = self._cycle + max_cycles
        while not self.idle:
            if self._cycle >= deadline:
                raise RuntimeError("coherent system failed to quiesce")
            self.step(self._cycle)
        return self._cycle

    @property
    def idle(self) -> bool:
        if self.fabric.stats.in_flight > 0:
            return False
        return not any(agent.busy for agent in self._agents)

    def next_version(self) -> int:
        return next(self._versions)

    # -- invariant checks (call at quiesce) ------------------------------------

    def check_coherence(self) -> None:
        """Raise AssertionError on any coherence violation.

        Checks the single-writer/multiple-reader invariant, value
        agreement among sharers, directory/cache consistency (directories
        may over-approximate sharers — silent evictions — but never miss
        an owner), and memory freshness for clean lines.
        """
        holders: Dict[int, List] = {}
        for rn in self.requesters:
            for line in rn.cache.lines():
                holders.setdefault(line.addr, []).append((rn, line))

        for addr, entries in holders.items():
            unique = [(rn, ln) for rn, ln in entries if ln.state.is_unique]
            shared = [(rn, ln) for rn, ln in entries
                      if ln.state is CacheState.SHARED]
            assert len(unique) <= 1, (
                f"addr {addr}: multiple unique owners "
                f"{[(rn.name, ln.state) for rn, ln in unique]}"
            )
            if unique:
                assert not shared, (
                    f"addr {addr}: owner and sharers coexist"
                )
            values = {ln.value for _, ln in shared}
            assert len(values) <= 1, (
                f"addr {addr}: sharers disagree on value {values}"
            )

        for home in self.homes:
            for addr, entry in home.directory.items():
                cached = holders.get(addr, [])
                owners = [rn for rn, ln in cached if ln.state.is_unique]
                if owners:
                    assert entry.state is DirState.UNIQUE, (
                        f"addr {addr}: cache owner but directory {entry.state}"
                    )
                    assert entry.owner == owners[0].node_id, (
                        f"addr {addr}: directory owner {entry.owner} != "
                        f"actual {owners[0].node_id}"
                    )
                if entry.state is DirState.SHARED:
                    actual_sharers = {
                        rn.node_id for rn, ln in cached
                        if ln.state is CacheState.SHARED
                    }
                    assert actual_sharers <= entry.sharers, (
                        f"addr {addr}: sharers {actual_sharers} not covered "
                        f"by directory {entry.sharers}"
                    )
                    if entry.llc_valid:
                        for rn, ln in cached:
                            if ln.state is CacheState.SHARED:
                                assert ln.value == entry.llc_value, (
                                    f"addr {addr}: sharer value {ln.value} != "
                                    f"LLC {entry.llc_value}"
                                )
                if entry.llc_valid and entry.state is not DirState.UNIQUE:
                    mem = self.memories[
                        self._sn_index(addr)
                    ].read_value(addr)
                    assert mem == entry.llc_value, (
                        f"addr {addr}: memory {mem} != LLC {entry.llc_value}"
                    )

    def _sn_index(self, addr: int) -> int:
        return addr % len(self.memories)
