"""Unit tests for the buffered router (the mesh baseline's node)."""

import pytest

from repro.baselines.buffered_router import (
    EAST,
    LOCAL,
    NORTH,
    SOUTH,
    WEST,
    BufferedRouter,
)
from repro.baselines.mesh import BufferedMeshFabric, MeshConfig
from repro.fabric.message import Message


def make_router(x=1, y=1, depth=2, pipeline=3):
    delivered = []
    router = BufferedRouter(x, y, depth, pipeline,
                            lambda msg, cycle: delivered.append((msg, cycle)))
    return router, delivered


def test_xy_routing_order():
    router, _ = make_router(x=1, y=1)
    assert router.output_for((3, 1)) == EAST
    assert router.output_for((0, 1)) == WEST
    assert router.output_for((1, 3)) == NORTH
    assert router.output_for((1, 0)) == SOUTH
    assert router.output_for((1, 1)) == LOCAL
    # X resolves before Y (dimension order).
    assert router.output_for((3, 3)) == EAST


def test_credit_check_and_accept():
    router, _ = make_router(depth=2)
    assert router.has_space(NORTH)
    router.accept(NORTH, Message(src=0, dst=1), ready_cycle=0)
    router.accept(NORTH, Message(src=0, dst=1), ready_cycle=0)
    assert not router.has_space(NORTH)
    assert router.occupancy() == 2


def test_local_delivery():
    router, delivered = make_router(x=1, y=1)
    msg = Message(src=0, dst=9)
    router.accept(LOCAL, msg, ready_cycle=0)
    router.step(5, dst_lookup=lambda m: (1, 1))
    assert delivered == [(msg, 5)]
    assert router.occupancy() == 0


def test_forwarding_waits_for_ready_cycle():
    router, _ = make_router()
    neighbor, neighbor_delivered = make_router(x=2, y=1)
    router.connect(EAST, neighbor)
    msg = Message(src=0, dst=9)
    router.accept(LOCAL, msg, ready_cycle=4)
    router.step(2, dst_lookup=lambda m: (3, 1))  # not ready yet
    assert router.occupancy() == 1
    router.step(4, dst_lookup=lambda m: (3, 1))
    assert router.occupancy() == 0
    assert neighbor.occupancy() == 1  # arrived in the WEST input


def test_hol_blocking_without_credit():
    router, _ = make_router()
    neighbor, _ = make_router(x=2, y=1, depth=1)
    router.connect(EAST, neighbor)
    neighbor.accept(WEST, Message(src=0, dst=1), ready_cycle=0)  # full
    msg = Message(src=0, dst=9)
    router.accept(LOCAL, msg, ready_cycle=0)
    router.step(1, dst_lookup=lambda m: (3, 1))
    assert router.occupancy() == 1  # held, not dropped
    # Free the neighbour and retry.
    neighbor.inputs[WEST].clear()
    router.step(2, dst_lookup=lambda m: (3, 1))
    assert router.occupancy() == 0


def test_one_grant_per_output_per_cycle():
    router, _ = make_router(depth=4)
    neighbor, _ = make_router(x=2, y=1, depth=4)
    router.connect(EAST, neighbor)
    for _ in range(3):
        router.accept(LOCAL, Message(src=0, dst=9), ready_cycle=0)
    router.step(1, dst_lookup=lambda m: (3, 1))
    assert neighbor.occupancy() == 1  # only the head advanced
    router.step(2, dst_lookup=lambda m: (3, 1))
    assert neighbor.occupancy() == 2


def test_off_mesh_route_raises():
    router, _ = make_router(x=0, y=0)
    router.accept(LOCAL, Message(src=0, dst=9), ready_cycle=0)
    with pytest.raises(RuntimeError, match="left the mesh"):
        router.step(1, dst_lookup=lambda m: (-1, 0))


def test_mesh_steps_a_router_while_its_entry_is_not_ready():
    """The mesh skips a router only when every input buffer is empty; an
    entry still in the pipeline (``ready_cycle > cycle``) keeps it stepped."""
    mesh = BufferedMeshFabric(MeshConfig(cols=2, rows=1,
                                         placement={0: (0, 0), 1: (1, 0)}))
    stepped = []
    for xy, router in mesh.routers.items():
        def record(cycle, lookup, xy=xy, inner=router.step):
            stepped.append((cycle, xy))
            inner(cycle, lookup)
        router.step = record
    delivered = []
    mesh.attach(1, delivered.append)
    assert mesh.try_inject(Message(src=0, dst=1))
    for cycle in range(6):
        mesh.step(cycle)
    pipeline = mesh.config.router_pipeline
    # Cycle 0: (0,0) forwards east; the entry waits in (1,0) until it is
    # ready and then leaves on the local port.
    assert [c for c, xy in stepped if xy == (0, 0)] == [0]
    assert [c for c, xy in stepped if xy == (1, 0)] == list(range(pipeline + 1))
    assert [msg.delivered_cycle for msg in delivered] == [pipeline]
