"""Idle skipping outside the rings is cycle-identical to always-step.

``CoherentSystem.step`` skips agents with no due delay entry and an empty
outbox, ``BufferedMeshFabric.step`` skips routers whose input buffers are
all empty, and ``SwitchedStarFabric.step`` skips empty links and the
source-queue scan when no source queue holds a message.  This suite
rebuilds the loops that step every component, plus the router step that
re-routes every input head for every output port, runs the same Table 5
cell and Fig 11 noise window under both, and requires every simulated
output to match: fabric counters, per-message timing, core stats and
each agent's clock.
"""

from dataclasses import fields

import pytest

from repro.baselines.buffered_router import (
    _OPPOSITE,
    LOCAL,
    BufferedRouter,
)
from repro.baselines.mesh import BufferedMeshFabric, MeshConfig
from repro.baselines.switched_star import SwitchedStarFabric
from repro.coherence.system import CoherentSystem
from repro.cpu import ServerPackage, ServerPackageConfig, closed_loop, open_loop
from repro.cpu.core import read_write_mix, uniform_stream
from repro.cpu.package import FABRIC_KINDS
from repro.fabric.message import Message
from repro.sim.rng import make_rng

SMALL = ServerPackageConfig(clusters_per_ccd=4, hn_per_ccd=2, ddr_per_ccd=2)
LINES = 16
NOISE_RATE = 0.35
NOISE_CYCLES = 2000


# -- always-step reference loops ------------------------------------------
# The loops before idle skipping.  They leave the source-queue counter
# alone, which only ``occupancy()`` reads.


def always_step_system(self, cycle):
    for agent in self._agents:
        agent.step(cycle)
    self.fabric.step(cycle)
    self._cycle = cycle + 1


def always_step_mesh(self, cycle):
    self._delivery_cycle = cycle
    for node, queue in self._inject_queues.items():
        if not queue:
            continue
        router = self.routers[self._placement[node]]
        if router.has_space(LOCAL):
            msg = queue.pop(0)
            msg.injected_cycle = cycle
            self.stats.injected += 1
            router.accept(LOCAL, msg, cycle)
    for router in self.routers.values():
        router.step(cycle, self._dst_lookup)


def reference_router_step(self, cycle, dst_lookup):
    for out_port in range(5):
        start = self._rr[out_port]
        for k in range(5):
            in_port = (start + k) % 5
            buf = self.inputs[in_port]
            if not buf or buf[0][0] > cycle:
                continue
            msg = buf[0][1]
            if self.output_for(dst_lookup(msg)) != out_port:
                continue
            if out_port == LOCAL:
                buf.pop(0)
                self._deliver(msg, cycle)
            else:
                neighbor = self.neighbors[out_port]
                if not neighbor.has_space(_OPPOSITE[out_port]):
                    continue
                buf.pop(0)
                neighbor.accept(
                    _OPPOSITE[out_port], msg, cycle + self.pipeline_latency
                )
            self._rr[out_port] = (in_port + 1) % 5
            break


def always_step_star(self, cycle):
    for node, queue in self._inject_queues.items():
        if not queue:
            continue
        msg = queue[0]
        path = self._path_for(msg)
        first = path[0]
        if first.has_space():
            queue.pop(0)
            msg.injected_cycle = cycle
            self.stats.injected += 1
            self._paths[msg.msg_id] = path[1:]
            first.push(msg, cycle)
    stages = self._locals + self._downlinks + [self._hub] + self._uplinks
    for link in stages:
        link.step(cycle, self._forward)


@pytest.fixture
def always_step(monkeypatch):
    """Put the always-step loops back for the duration of a call."""
    def install():
        monkeypatch.setattr(CoherentSystem, "step", always_step_system)
        monkeypatch.setattr(BufferedMeshFabric, "step", always_step_mesh)
        monkeypatch.setattr(BufferedRouter, "step", reference_router_step)
        monkeypatch.setattr(SwitchedStarFabric, "step", always_step_star)
    return install


# -- workloads ---------------------------------------------------------------


def table5_inter_m(fabric_kind):
    """One Table 5 cell: CCD0 writes lines to M, a CCD1 core reads them."""
    package = ServerPackage(SMALL, fabric_kind=fabric_kind)
    addrs = [a for a in range(LINES * 8)
             if package.system.home_map(a) in package.placement.hns[0]][:LINES]
    package.attach_core(0, 0, iter([("store", a) for a in addrs]),
                        closed_loop(mlp=4))
    package.run_until_cores_done()
    package.attach_core(1, 1, iter([("load", a) for a in addrs]),
                        closed_loop(mlp=1))
    package.run_until_cores_done()
    return package


def fig11_noise(fabric_kind):
    """A Fig 11 window: open-loop mixed noise around a closed-loop probe."""
    package = ServerPackage(SMALL, fabric_kind=fabric_kind)
    idx = 0
    for ccd in range(SMALL.n_ccds):
        for cluster in range(SMALL.clusters_per_ccd):
            if (ccd, cluster) == (0, 0):
                continue
            stream = uniform_stream(read_write_mix(0.5), 1 << 16,
                                    seed=100 + idx)
            package.attach_core(ccd, cluster, stream,
                                open_loop(rate=NOISE_RATE), seed=idx)
            idx += 1
    package.attach_core(0, 0, uniform_stream(read_write_mix(1.0), 1 << 16,
                                             seed=7, count=48),
                        closed_loop(mlp=1))
    package.run(NOISE_CYCLES)
    return package


def outcome(package):
    """Everything a run simulated, with message ids left out (they come
    from a process-wide counter)."""
    stats = package.fabric.stats
    counters = {f.name: getattr(stats, f.name) for f in fields(stats)
                if f.name not in ("samples", "trace")}
    samples = [(s.src, s.dst, s.created_cycle, s.injected_cycle,
                s.delivered_cycle, s.deflections) for s in stats.samples]
    return {
        "cycle": package._cycle,
        "counters": counters,
        "samples": samples,
        "cores": [core.stats for core in package.cores],
        "agent_now": [agent.now for agent in package.system._agents],
    }


@pytest.mark.parametrize("fabric_kind", FABRIC_KINDS)
@pytest.mark.parametrize("workload", [table5_inter_m, fig11_noise],
                         ids=["table5_inter_M", "fig11_noise"])
def test_idle_skip_matches_always_step(fabric_kind, workload, always_step):
    skipping = outcome(workload(fabric_kind))
    always_step()
    reference = outcome(workload(fabric_kind))
    assert skipping["samples"], "workload delivered no messages"
    for key in reference:
        assert skipping[key] == reference[key], key


def random_mesh_traffic(pipeline, depth, seed, cycles=400):
    """Bursty uniform traffic on a 3x3 mesh; returns per-message timing."""
    rng = make_rng(seed)
    placement = {n: (n % 3, n // 3) for n in range(9)}
    mesh = BufferedMeshFabric(MeshConfig(
        cols=3, rows=3, placement=placement, input_queue_depth=depth,
        router_pipeline=pipeline, inject_queue_depth=2))
    for cycle in range(cycles):
        for src in range(9):
            if cycle < cycles // 2 and rng.random() < 0.4:
                mesh.try_inject(Message(src=src, dst=rng.randrange(9),
                                        created_cycle=cycle))
        mesh.step(cycle)
    stats = mesh.stats
    return (stats.accepted, stats.rejected, stats.injected, stats.delivered,
            [(s.src, s.dst, s.created_cycle, s.injected_cycle,
              s.delivered_cycle) for s in stats.samples])


@pytest.mark.parametrize("pipeline", [0, 1, 3])
@pytest.mark.parametrize("depth", [1, 2])
def test_mesh_random_traffic_matches_always_step(pipeline, depth,
                                                 always_step):
    """Zero-cycle pipelines let a router fill a later router's buffer
    with a ready entry in the same cycle, so the skip check must run in
    the loop; a one-entry buffer makes credits bind."""
    seeds = range(3)
    skipping = [random_mesh_traffic(pipeline, depth, seed) for seed in seeds]
    always_step()
    reference = [random_mesh_traffic(pipeline, depth, seed) for seed in seeds]
    assert all(run[3] > 0 for run in skipping)
    assert skipping == reference
