"""Cross-tier stepping equivalence: ref / skip / dense / auto.

The dense SoA tier (:mod:`repro.perf.dense`) and the ``"auto"``
selector only earn their speedups if they are *invisible* to every
observable: cycle-identical :class:`~repro.fabric.stats.FabricStats`
(including ordered latency samples), byte-identical obs JSONL streams
where tracing is allowed, and exact materialize/dematerialize
round-trips when tiers switch mid-run.  These tests drive the same
pre-generated plans through every tier and compare.
"""

import pytest

from hypothesis import given, settings, strategies as st

import repro.core.ring as ring_module
import repro.perf.dense as dense_module
from repro.core.config import MultiRingConfig
from repro.core.network import MultiRingFabric
from repro.core.topology import single_ring_topology
from repro.fabric.message import Message, MessageKind
from repro.obs.export import events_to_jsonl
from repro.perf.dense import dense_ineligible_reason, numpy_available
from repro.sim.rng import make_rng

ENGINES = ["ref", "skip", "dense", "auto"]

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="dense tier requires numpy")


def uniform_plan(nodes, cycles, per_cycle, seed):
    rng = make_rng(seed)
    plan = []
    for cycle in range(cycles):
        for _ in range(per_cycle):
            src = rng.choice(nodes)
            dst = rng.choice(nodes)
            if src != dst:
                plan.append((cycle, src, dst))
    return plan


def crossover_plan(nodes, seed):
    """Bursty load that drags ``auto`` back and forth across the
    occupancy thresholds: light -> saturated -> idle -> saturated."""
    plan = []
    plan += uniform_plan(nodes, 200, 1, seed)
    plan += [(c + 200, s, d) for c, s, d in
             uniform_plan(nodes, 300, 8, seed + 1)]
    plan += [(c + 650, s, d) for c, s, d in
             uniform_plan(nodes, 250, 8, seed + 2)]
    return plan


def run_plan(fabric, plan, cycles, kind=MessageKind.REQUEST):
    i, n = 0, len(plan)
    for cycle in range(cycles):
        while i < n and plan[i][0] == cycle:
            _, src, dst = plan[i]
            fabric.try_inject(Message(src=src, dst=dst, kind=kind,
                                      created_cycle=cycle, msg_id=i))
            i += 1
        fabric.step(cycle)
    return fabric.stats


def make_ring(engine, nstops=16, bidirectional=True, **config_kwargs):
    topo, _ = single_ring_topology(nstops, bidirectional=bidirectional)
    return MultiRingFabric(
        topo, MultiRingConfig(engine=engine, **config_kwargs))


def all_tier_stats(plan, cycles, nstops=16, bidirectional=True,
                   **config_kwargs):
    return {
        engine: run_plan(
            make_ring(engine, nstops, bidirectional, **config_kwargs),
            plan, cycles)
        for engine in ENGINES
    }


def assert_tiers_identical(stats_by_engine):
    ref = stats_by_engine["ref"]
    for engine, stats in stats_by_engine.items():
        assert stats == ref, (
            f"engine={engine} stats diverge from reference:\n"
            f"{engine}={stats}\nref={ref}")


# -- cycle-identical FabricStats across all four tiers --------------------


@needs_numpy
@pytest.mark.parametrize("bidirectional", [True, False],
                         ids=["full-ring", "half-ring"])
@pytest.mark.parametrize("load", ["light", "saturated", "crossover"])
def test_all_tiers_identical(bidirectional, load):
    nodes = list(range(16))
    if load == "light":
        plan, cycles = uniform_plan(nodes, 600, 1, seed=21), 600
    elif load == "saturated":
        plan, cycles = uniform_plan(nodes, 600, 8, seed=22), 600
    else:
        plan, cycles = crossover_plan(nodes, seed=23), 1000
    stats = all_tier_stats(plan, cycles, bidirectional=bidirectional)
    assert_tiers_identical(stats)
    assert stats["ref"].delivered > 0


def _tight_itag_queues():
    from repro.params import QueueParams
    return QueueParams(itag_threshold=1)


@needs_numpy
@pytest.mark.parametrize("config_kwargs", [
    dict(enable_etags=False),
    dict(enable_itags=False),
    dict(queues=_tight_itag_queues()),
], ids=["no-etags", "no-itags", "itag-thr-1"])
def test_feature_ablations_across_tiers(config_kwargs):
    plan = uniform_plan(list(range(12)), 700, 6, seed=31)
    assert_tiers_identical(
        all_tier_stats(plan, 700, nstops=12, **config_kwargs))


@needs_numpy
def test_selector_thrash_is_exact(monkeypatch):
    """A pathological check cadence (every cycle) forces the auto
    selector to materialize/dematerialize constantly; the round-trips
    must stay invisible."""
    monkeypatch.setattr(ring_module, "ENGINE_CHECK_EVERY", 1)
    plan = crossover_plan(list(range(12)), seed=41)
    ref = run_plan(make_ring("ref", 12), plan, 1000)
    thrash = run_plan(make_ring("auto", 12), plan, 1000)
    assert thrash == ref


def test_ineligible_ring_is_refused_once(monkeypatch):
    """A ring that cannot run dense because of its structure asks
    ``dense_ineligible_reason`` once, not at every check, even while
    traffic keeps it above the promotion threshold."""
    calls = []
    reason = dense_module.dense_ineligible_reason

    def counting_reason(ring):
        calls.append(ring.spec.ring_id)
        return reason(ring)

    monkeypatch.setattr(dense_module, "dense_ineligible_reason",
                        counting_reason)
    fabric = make_ring("auto", 12, lanes_per_direction=2)
    ring = fabric.rings[0]
    slots = ring.spec.nstops * len(ring.lanes)
    nodes = list(range(12))
    plan = uniform_plan(nodes, 1500, 12, seed=81)
    i, n = 0, len(plan)
    hot_cycles = 0
    for cycle in range(1500):
        while i < n and plan[i][0] == cycle:
            _, src, dst = plan[i]
            fabric.try_inject(Message(src=src, dst=dst,
                                      created_cycle=cycle, msg_id=i))
            i += 1
        fabric.step(cycle)
        if ring.occupancy() / slots >= ring_module.DENSE_ENTER_OCCUPANCY:
            hot_cycles += 1
    assert hot_cycles >= 1000
    assert len(calls) <= 1
    assert ring.active_tier() == "skip"


@needs_numpy
def test_snapshot_read_during_dense_is_exact():
    """flits_in_flight() while the dense engine is live dematerializes
    on read without disturbing the simulation."""
    plan = uniform_plan(list(range(16)), 600, 8, seed=61)
    ref = run_plan(make_ring("ref"), plan, 600)

    fabric = make_ring("dense")
    i, n = 0, len(plan)
    probed = 0
    for cycle in range(600):
        while i < n and plan[i][0] == cycle:
            _, src, dst = plan[i]
            fabric.try_inject(Message(src=src, dst=dst,
                                      created_cycle=cycle, msg_id=i))
            i += 1
        fabric.step(cycle)
        if cycle % 97 == 0:
            probed += len(fabric.flits_in_flight())
    assert fabric.stats == ref
    assert probed > 0


# -- hypothesis property: auto == ref for arbitrary seeds -----------------


@needs_numpy
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       per_cycle=st.integers(min_value=1, max_value=10))
def test_auto_matches_reference_property(seed, per_cycle):
    plan = uniform_plan(list(range(12)), 400, per_cycle, seed)
    ref = run_plan(make_ring("ref", 12), plan, 400)
    auto = run_plan(make_ring("auto", 12), plan, 400)
    assert auto == ref


# -- tracing pins scalar, byte-identical streams --------------------------


@needs_numpy
@pytest.mark.parametrize("engine", ENGINES)
def test_traced_stream_is_byte_identical(engine):
    """Tracing pins the rings scalar on every tier, so the JSONL stream
    any engine mode produces equals the reference stream byte for byte."""
    plan = uniform_plan(list(range(12)), 400, 6, seed=71)

    def traced_run(mode):
        fabric = make_ring(mode, 12)
        recorder = fabric.attach_trace_recorder()
        run_plan(fabric, plan, 400)
        for ring in fabric.rings.values():
            assert ring.active_tier() != "dense", (
                f"engine={mode}: traced ring must stay scalar")
        return events_to_jsonl(recorder.sorted_events())

    assert traced_run(engine) == traced_run("ref")


@needs_numpy
def test_dense_eligibility_reporting():
    topo, _ = single_ring_topology(16, bidirectional=True)
    ring = MultiRingFabric(topo, MultiRingConfig()).rings[0]
    assert dense_ineligible_reason(ring) is None

    escape = MultiRingFabric(
        topo, MultiRingConfig(escape_slot_period=4)).rings[0]
    assert dense_ineligible_reason(escape) is not None
