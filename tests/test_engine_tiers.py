"""Cross-tier stepping equivalence: ref / skip.

The exact-skip tier (``Ring.step_fast``) only earns its speedup if it is
*invisible* to every observable: cycle-identical
:class:`~repro.fabric.stats.FabricStats` (including ordered latency
samples) and byte-identical obs JSONL streams.  It picks, per cycle,
between two walks — a visit list of the stations with work, or every
station of a busy lane (:func:`repro.core.ring.lanes_busy`) — so these
tests drive the same pre-generated plans through the reference walk and
through ``skip`` with the choice left alone, forced busy and forced
sparse, and compare.
"""

import pytest

from hypothesis import given, settings, strategies as st

import repro.core.ring as ring_module
from repro.core.config import MultiRingConfig
from repro.core.network import MultiRingFabric
from repro.core.topology import chiplet_pair, single_ring_topology
from repro.fabric.message import MessageKind
from repro.obs.export import events_to_jsonl
from repro.params import QueueParams
from repro.sim.rng import make_rng
from tests.test_fastpath_equivalence import run_plan, uniform_plan

ENGINES = ["ref", "skip"]

#: ``lanes_busy`` overrides: every lane busy (walk every station), and
#: no lane busy (visit lists only).
WALKS = {
    "busy": lambda active, nstations, bidirectional: True,
    "sparse": lambda active, nstations, bidirectional: False,
}


def crossover_plan(nodes, seed):
    """Bursty load that crosses the busy-lane rule both ways:
    light -> saturated -> idle -> saturated."""
    plan = []
    plan += uniform_plan(nodes, 200, 1, seed)
    plan += [(c + 200, s, d) for c, s, d in
             uniform_plan(nodes, 300, 8, seed + 1)]
    plan += [(c + 650, s, d) for c, s, d in
             uniform_plan(nodes, 250, 8, seed + 2)]
    return plan


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


# -- cycle-identical FabricStats across the tiers -------------------------


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
    return QueueParams(itag_threshold=1)


@pytest.mark.parametrize("config_kwargs", [
    dict(enable_etags=False),
    dict(enable_itags=False),
    dict(queues=_tight_itag_queues()),
], ids=["no-etags", "no-itags", "itag-thr-1"])
def test_feature_ablations_across_tiers(config_kwargs):
    plan = uniform_plan(list(range(12)), 700, 6, seed=31)
    assert_tiers_identical(
        all_tier_stats(plan, 700, nstops=12, **config_kwargs))


# -- the busy-lane walk against the reference -----------------------------


@pytest.mark.parametrize("bidirectional", [True, False],
                         ids=["full-ring", "half-ring"])
def test_saturated_rings_take_the_busy_walk(monkeypatch, bidirectional):
    """The shipped rule walks every station on oversubscribed rings,
    the regime it exists for."""
    calls = []
    rule = ring_module.lanes_busy

    def recording(active, nstations, bidi):
        calls.append(rule(active, nstations, bidi))
        return calls[-1]

    monkeypatch.setattr(ring_module, "lanes_busy", recording)
    plan = uniform_plan(list(range(16)), 400, 16, seed=51)
    run_plan(make_ring("skip", bidirectional=bidirectional), plan, 400)
    assert sum(calls) >= 200


def _swap_pair(engine):
    queues = QueueParams(inject_queue_depth=2, eject_queue_depth=2,
                         bridge_rx_depth=2, bridge_tx_depth=2,
                         bridge_reserved_tx=2, swap_detect_threshold=32)
    topo, _, _ = chiplet_pair(nodes_per_ring=4, stop_spacing=1)
    return MultiRingFabric(topo, MultiRingConfig(
        queues=queues, eject_drain_per_cycle=1, engine=engine))


def _swap_pair_plan(cycles, seed):
    _, ring0, ring1 = chiplet_pair(nodes_per_ring=4, stop_spacing=1)
    rng = make_rng(seed)
    return [(cycle, src, rng.choice(dsts)) for cycle in range(cycles)
            for srcs, dsts in ((ring0, ring1), (ring1, ring0))
            for src in srcs]


#: scenario -> (fabric factory, plan) for 600 cycles.
FORCED_SCENARIOS = {
    "two-lane": (lambda engine: make_ring(engine, 12, lanes_per_direction=2),
                 uniform_plan(list(range(12)), 600, 8, seed=91)),
    "swap-pair": (_swap_pair, _swap_pair_plan(600, seed=92)),
    "escape-slots": (lambda engine: make_ring(engine, 12,
                                              escape_slot_period=4),
                     uniform_plan(list(range(12)), 600, 6, seed=93)),
    "itag-thr-1": (lambda engine: make_ring(engine, 12, bidirectional=False,
                                            queues=_tight_itag_queues()),
                   uniform_plan(list(range(12)), 600, 6, seed=94)),
}


@pytest.mark.parametrize("walk", sorted(WALKS))
@pytest.mark.parametrize("scenario", sorted(FORCED_SCENARIOS))
def test_forced_walk_matches_reference(monkeypatch, scenario, walk):
    """Walking every station, or only the visit list, on every cycle
    is exact on multi-lane rings, under SWAP, with escape slots and with
    an I-tag placed on every failure."""
    build, plan = FORCED_SCENARIOS[scenario]
    ref = run_plan(build("ref"), plan, 600, MessageKind.DATA)
    monkeypatch.setattr(ring_module, "lanes_busy", WALKS[walk])
    assert run_plan(build("skip"), plan, 600, MessageKind.DATA) == ref
    assert ref.delivered > 0
    if scenario == "swap-pair":
        assert ref.swap_events > 0, "scenario failed to exercise SWAP"
    if scenario == "itag-thr-1":
        assert ref.itags_placed > 0, "scenario placed no I-tags"


# -- hypothesis property: skip == ref for arbitrary seeds -----------------


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       per_cycle=st.integers(min_value=1, max_value=10))
def test_skip_matches_reference_property(seed, per_cycle):
    plan = uniform_plan(list(range(12)), 400, per_cycle, seed)
    ref = run_plan(make_ring("ref", 12), plan, 400)
    skip = run_plan(make_ring("skip", 12), plan, 400)
    assert skip == ref


# -- traced streams are byte-identical ------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_traced_stream_is_byte_identical(engine):
    """The JSONL stream either engine mode produces equals the
    reference stream byte for byte."""
    plan = uniform_plan(list(range(12)), 400, 6, seed=71)

    def traced_run(mode):
        fabric = make_ring(mode, 12)
        recorder = fabric.attach_trace_recorder()
        run_plan(fabric, plan, 400)
        return events_to_jsonl(recorder.sorted_events())

    assert traced_run(engine) == traced_run("ref")
