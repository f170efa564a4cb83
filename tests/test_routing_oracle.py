"""The per-source Router must route exactly like a per-pair Dijkstra.

:func:`reference_route` is the original router: a full Dijkstra for
every (src, dst) pair.  It lives here as the oracle only.  The
production :class:`~repro.core.routing.Router` runs one search per
source position and reuses it for every destination; both must yield
identical hop lists, tie-breaks included, on every built-in topology
and on random small topologies with equal-cost parallel bridges.
"""

import heapq
import importlib.util
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ai.mesh_system import AiProcessor, AiProcessorConfig
from repro.core.config import BridgeSpec, NodePlacement, RingSpec, TopologySpec
from repro.core.routing import Hop, Router, ring_distance
from repro.core.topology import (
    chiplet_chain,
    chiplet_pair,
    grid_of_rings,
    single_ring_topology,
    tiny_pair,
)
from repro.cpu.package import build_server_system


def _bench_common():
    path = os.path.join(os.path.dirname(__file__), os.pardir,
                        "benchmarks", "common.py")
    spec = importlib.util.spec_from_file_location("_bench_common", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reference_route(topology, bridge_penalty, src, dst):
    """Per-pair Dijkstra, exactly as the router computed routes before."""
    rings = {r.ring_id: r for r in topology.rings}
    placement = {p.node: (p.ring, p.stop) for p in topology.nodes}
    ring_bridges = {r: [] for r in rings}
    for b in topology.bridges:
        ring_bridges[b.ring_a].append((b, 0))
        ring_bridges[b.ring_b].append((b, 1))

    def ring_dist(ring, a, b):
        spec = rings[ring]
        return ring_distance(spec.nstops, a, b, spec.bidirectional)

    src_ring, src_stop = placement[src]
    dst_ring, dst_stop = placement[dst]
    if src_ring == dst_ring:
        return [Hop(dst_ring, dst_stop, ("node", dst))]

    start = (src_ring, src_stop)
    dist = {start: 0}
    prev = {}
    heap = [(0, start)]
    visited = set()
    while heap:
        d, pos = heapq.heappop(heap)
        if pos in visited:
            continue
        visited.add(pos)
        ring, stop = pos
        for bridge, side in ring_bridges[ring]:
            here = (bridge.stop_a, bridge.stop_b)[side]
            there_ring = (bridge.ring_b, bridge.ring_a)[side]
            there_stop = (bridge.stop_b, bridge.stop_a)[side]
            cost = (d + ring_dist(ring, stop, here) + bridge_penalty
                    + bridge.link_latency)
            nxt = (there_ring, there_stop)
            if cost < dist.get(nxt, 1 << 60):
                dist[nxt] = cost
                prev[nxt] = (pos, bridge, side)
                heapq.heappush(heap, (cost, nxt))

    best = None
    for pos, d in dist.items():
        if pos[0] != dst_ring:
            continue
        total = d + ring_dist(dst_ring, pos[1], dst_stop)
        if best is None or total < best[0]:
            best = (total, pos)
    if best is None:
        raise ValueError(f"no route from node {src} to node {dst}")

    chain = []
    pos = best[1]
    while pos != start:
        parent, bridge, side = prev[pos]
        chain.append((bridge, side))
        pos = parent
    chain.reverse()

    hops = []
    ring = src_ring
    for bridge, side in chain:
        exit_stop = (bridge.stop_a, bridge.stop_b)[side]
        hops.append(Hop(ring, exit_stop, ("bridge", bridge.bridge_id, side)))
        ring = (bridge.ring_b, bridge.ring_a)[side]
    hops.append(Hop(dst_ring, dst_stop, ("node", dst)))
    return hops


def _outcome(route_fn, src, dst):
    try:
        return [(h.ring, h.exit_stop, h.port_key) for h in route_fn(src, dst)]
    except ValueError:
        return "unroutable"


def assert_matches_oracle(topology, bridge_penalty=8):
    router = Router(topology, bridge_penalty=bridge_penalty)
    nodes = topology.node_ids
    for src in nodes:
        for dst in nodes:
            if src == dst:
                continue
            got = _outcome(router.route, src, dst)
            want = _outcome(
                lambda s, d: reference_route(topology, bridge_penalty, s, d),
                src, dst)
            assert got == want, (src, dst)


def _ai_topology():
    kwargs = _bench_common().BENCH_AI_KWARGS
    return AiProcessor(AiProcessorConfig(**kwargs)).fabric.topology


def _server_topology():
    config = _bench_common().BENCH_SERVER_CONFIG
    fabric, _, _ = build_server_system("multiring", config)
    return fabric.topology


BUILT_IN = {
    "single_ring": lambda: single_ring_topology(8)[0],
    "single_half_ring": lambda: single_ring_topology(5, bidirectional=False)[0],
    "chiplet_pair": lambda: chiplet_pair(nodes_per_ring=4)[0],
    "chiplet_pair_half": lambda: chiplet_pair(bidirectional=False)[0],
    "chiplet_chain": lambda: chiplet_chain(n_rings=4, nodes_per_ring=4)[0],
    "tiny_pair": lambda: tiny_pair(nstops=4, nodes_per_ring=2)[0],
    "ai_bench_grid": _ai_topology,
    "server_bench_multiring": _server_topology,
}


@pytest.mark.parametrize("name", sorted(BUILT_IN))
def test_every_pair_matches_oracle(name):
    assert_matches_oracle(BUILT_IN[name]())


@pytest.mark.parametrize("penalty", [0, 1, 100])
def test_small_grid_matches_oracle_across_penalties(penalty):
    layout = grid_of_rings(3, 2, devices_per_vring=3, memory_per_hring=4)
    assert_matches_oracle(layout.topology, bridge_penalty=penalty)


@st.composite
def small_topologies(draw):
    """2-4 rings, random bridges, some of them equal-cost twins."""
    rings = [RingSpec(r, draw(st.integers(3, 9)), draw(st.booleans()))
             for r in range(draw(st.integers(2, 4)))]
    load = {}

    def free(ring, stop):
        return load.get((ring, stop), 0) < 2

    def take(ring, stop):
        load[(ring, stop)] = load.get((ring, stop), 0) + 1

    bridges = []
    for _ in range(draw(st.integers(0, 6))):
        ring_a, ring_b = draw(st.lists(st.sampled_from(rings), min_size=2,
                                       max_size=2, unique=True))
        stop_a = draw(st.integers(0, ring_a.nstops - 1))
        stop_b = draw(st.integers(0, ring_b.nstops - 1))
        level = draw(st.sampled_from([1, 2]))
        latency = draw(st.integers(0, 4)) if level == 2 else 0
        twin = draw(st.booleans())
        for _ in range(2 if twin else 1):
            # A twin is a parallel bridge with the same endpoints and
            # cost: only the tie-break decides which one a route takes.
            if not (free(ring_a.ring_id, stop_a)
                    and free(ring_b.ring_id, stop_b)):
                break
            take(ring_a.ring_id, stop_a)
            take(ring_b.ring_id, stop_b)
            bridges.append(BridgeSpec(len(bridges), level, ring_a.ring_id,
                                      stop_a, ring_b.ring_id, stop_b,
                                      link_latency=latency))
    nodes = []
    for ring in rings:
        for _ in range(draw(st.integers(1, 3))):
            stop = draw(st.integers(0, ring.nstops - 1))
            if free(ring.ring_id, stop):
                take(ring.ring_id, stop)
                nodes.append(NodePlacement(len(nodes), ring.ring_id, stop))
    return TopologySpec(rings=rings, nodes=nodes, bridges=bridges)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(topology=small_topologies(), penalty=st.integers(0, 12))
def test_random_topologies_match_oracle(topology, penalty):
    assert_matches_oracle(topology, bridge_penalty=penalty)


def test_one_search_per_source_position_and_lazy():
    topology = _ai_topology()
    router = Router(topology)
    assert router._searches == {}  # nothing computed at construction
    src = topology.nodes[0].node
    for dst in topology.node_ids:
        router.route(src, dst)
    assert len(router._searches) == 1


def test_unroutable_pair_raises_on_every_query():
    spec = TopologySpec(
        rings=[RingSpec(0, 4), RingSpec(1, 4), RingSpec(2, 4)],
        nodes=[NodePlacement(0, 0, 1), NodePlacement(1, 1, 1),
               NodePlacement(2, 2, 1)],
        bridges=[BridgeSpec(0, 1, 0, 0, 1, 0)],
    )
    router = Router(spec)
    for _ in range(2):
        with pytest.raises(ValueError):
            router.route(0, 2)
    # The kept search still serves routable pairs from the same source.
    assert [h.ring for h in router.route(0, 1)] == [0, 1]
    with pytest.raises(ValueError):
        router.route(0, 2)
