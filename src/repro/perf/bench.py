"""The ``repro-noc bench`` smoke suite and its persistent trajectory.

Measures fabric stepping throughput (simulated cycles per wall second)
on a fixed set of workloads and emits a machine-readable report,
``BENCH_fabric.json``.  One report is committed per performance-relevant
change, so the repository accumulates a benchmark trajectory alongside
the code it measures.

Methodology — the rules that keep the numbers comparable:

- **Traffic plans are pre-generated** and ``Message`` objects are built
  *outside* the timed region; the timer sees only ``try_inject`` +
  ``step`` (+ drain), i.e. the fabric, not the harness.
- **The route cache is warmed** before the timer starts: every
  (src, dst) pair in the plan is routed once up front.  Route table
  construction is one-time control-plane work (a real fabric computes
  it at configuration time), and leaving the first-touch Dijkstra +
  ``Hop`` allocations inside the timed region charged a large,
  plan-shape-dependent constant to *both* engines — noise that diluted
  every speedup ratio.
- **GC is disabled inside the timed region** (collected just before,
  re-enabled just after).  Generational collections triggered by
  harness allocations landed at arbitrary points of the timed loop;
  a deterministic workload deserves a deterministic timer.
- **Best-of-N timing** (default N=3): wall-clock minimum is the robust
  estimator for a deterministic workload on a noisy machine.  With
  ``--reference`` the engine under test and the reference walk run in
  alternating repeats (test, ref, test, ref, ...), so host drift during
  a case falls on both sides of ``speedup_vs_reference``.
- **Fixed seeds, explicit msg ids**: every run of a case simulates the
  identical cycle-for-cycle execution, and the report records the run's
  :class:`~repro.fabric.stats.FabricStats` counters as a fingerprint —
  a throughput number whose fingerprint drifted is measuring a
  different simulation and must not be compared.
- **Calibration**: a fixed arithmetic loop is timed alongside the suite
  and throughput is also reported normalized by that score, so CI can
  compare runs across differently-provisioned machines.
- **Engine attribution**: every result records the stepping tier its
  rings ran (``engine``) next to the requested mode (``engine_mode``),
  so the committed trajectory shows *which* engine produced each
  number.

The streaming headline, ``ring_full_saturated``, holds a 128-stop full
ring at capacity from 8 producer stations while most stations have no
local work — the regime the exact-skip tier is built for.  The
oversubscribed cases (``ring_uniform_saturated``/``ring_half_saturated``
on 320 stops, ``ring_dense32_*`` on 32) keep nearly every station busy
every cycle: there ``skip`` walks every station of a busy lane with its
inlined visit body, and the speedup gate checks that this never loses
to the reference walk.
"""

from __future__ import annotations

import gc
import json
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import __version__
from repro.core.config import MultiRingConfig
from repro.core.network import MultiRingFabric
from repro.core.topology import chiplet_pair, single_ring_topology
from repro.fabric.message import Message, MessageKind
from repro.params import QueueParams
from repro.perf.outcomes import failure_record, is_failed
from repro.sim.rng import make_rng

#: (cycle, src, dst, kind) — one planned injection attempt.
PlanEntry = Tuple[int, int, int, MessageKind]

#: Cycles simulated per smoke case (scaled down by ``--repeats``-style
#: knobs only through the CLI; the committed trajectory always uses
#: this value so points stay comparable).
SMOKE_CYCLES = 1500

#: Iterations of the calibration loop.
_CALIBRATION_ITERS = 300_000

#: Report schema version, bumped on incompatible format changes.
REPORT_SCHEMA = 1


@dataclass
class BenchCase:
    """One timed workload: a fabric factory plus a pre-generated plan.

    ``build`` takes the stepping-engine mode (``"ref"``/``"skip"``, see
    ``MultiRingConfig.engine``) so one case definition serves A/B runs
    across tiers.  ``saturated`` marks cases
    whose plan oversubscribes the fabric; the bench gate
    (:func:`saturated_speedup_failures`) requires every saturated case
    to at least break even against the reference walk.
    """

    name: str
    description: str
    cycles: int
    build: Callable[[str], MultiRingFabric]
    plan: List[PlanEntry] = field(default_factory=list)
    saturated: bool = False


def _streaming_plan(nstops: int, producers: List[int], cycles: int,
                    per_producer: int, seed: int) -> List[PlanEntry]:
    """Few fixed producers, uniform-random consumers."""
    pset = set(producers)
    consumers = [n for n in range(nstops) if n not in pset]
    rng = make_rng(seed)
    plan: List[PlanEntry] = []
    for cycle in range(cycles):
        for src in producers:
            for _ in range(per_producer):
                plan.append((cycle, src, rng.choice(consumers),
                             MessageKind.REQUEST))
    return plan


def _uniform_plan(nodes: List[int], cycles: int, per_cycle: int,
                  seed: int) -> List[PlanEntry]:
    """Uniform all-to-all: ``per_cycle`` random src->dst pairs a cycle."""
    rng = make_rng(seed)
    plan: List[PlanEntry] = []
    for cycle in range(cycles):
        for _ in range(per_cycle):
            src = rng.choice(nodes)
            dst = rng.choice(nodes)
            if src != dst:
                plan.append((cycle, src, dst, MessageKind.REQUEST))
    return plan


def _single_ring(nstops: int, bidirectional: bool,
                 engine: str) -> MultiRingFabric:
    topo, _ = single_ring_topology(nstops, bidirectional=bidirectional)
    return MultiRingFabric(topo, MultiRingConfig(engine=engine))


def smoke_cases(cycles: int = SMOKE_CYCLES) -> List[BenchCase]:
    """The fixed smoke suite — identical across runs and machines."""
    cases: List[BenchCase] = []

    producers = list(range(0, 128, 16))
    cases.append(BenchCase(
        name="ring_full_saturated",
        description="streaming saturation: 8 producers hold a 128-stop "
                    "full ring at capacity (DMA/HBM -> many cores)",
        cycles=cycles,
        build=lambda engine: _single_ring(128, True, engine),
        plan=_streaming_plan(128, producers, cycles, per_producer=2,
                             seed=42),
        saturated=True,
    ))

    # Oversubscribed headlines: every station has work essentially every
    # cycle, so exact-skip has nothing to skip and must win on its
    # inlined visit body alone.  320 stops makes the per-station cost
    # dominate the timed region.
    nodes320 = list(range(320))
    cases.append(BenchCase(
        name="ring_uniform_saturated",
        description="uniform all-to-all oversubscription, 320-stop full "
                    "ring (every station active every cycle)",
        cycles=cycles,
        build=lambda engine: _single_ring(320, True, engine),
        plan=_uniform_plan(nodes320, cycles, per_cycle=8, seed=43),
        saturated=True,
    ))

    cases.append(BenchCase(
        name="ring_half_saturated",
        description="uniform all-to-all oversubscription, 320-stop half "
                    "ring (unidirectional)",
        cycles=cycles,
        build=lambda engine: _single_ring(320, False, engine),
        plan=_uniform_plan(nodes320, cycles, per_cycle=8, seed=44),
        saturated=True,
    ))

    # Small oversubscribed points: on 32-stop rings the fixed per-cycle
    # costs weigh most against the per-station saving.
    nodes32 = list(range(32))
    cases.append(BenchCase(
        name="ring_dense32_full",
        description="uniform all-to-all oversubscription, 32-stop full "
                    "ring (every station active every cycle)",
        cycles=cycles,
        build=lambda engine: _single_ring(32, True, engine),
        plan=_uniform_plan(nodes32, cycles, per_cycle=8, seed=47),
        saturated=True,
    ))

    cases.append(BenchCase(
        name="ring_dense32_half",
        description="uniform all-to-all oversubscription, 32-stop half "
                    "ring (unidirectional)",
        cycles=cycles,
        build=lambda engine: _single_ring(32, False, engine),
        plan=_uniform_plan(nodes32, cycles, per_cycle=8, seed=48),
        saturated=True,
    ))

    nodes16 = list(range(16))
    cases.append(BenchCase(
        name="ring_light",
        description="light load: one message per cycle on a 16-stop "
                    "full ring",
        cycles=cycles,
        build=lambda engine: _single_ring(16, True, engine),
        plan=_uniform_plan(nodes16, cycles, per_cycle=1, seed=45),
    ))

    cases.append(BenchCase(
        name="ring_idle",
        description="no traffic: pure per-cycle stepping overhead, "
                    "16-stop full ring",
        cycles=cycles,
        build=lambda engine: _single_ring(16, True, engine),
        plan=[],
    ))

    def build_pair(engine: str) -> MultiRingFabric:
        topo, _, _ = chiplet_pair(nodes_per_ring=4, stop_spacing=1)
        queues = QueueParams(inject_queue_depth=2, eject_queue_depth=2,
                             bridge_rx_depth=2, bridge_tx_depth=2,
                             bridge_reserved_tx=2, swap_detect_threshold=32)
        return MultiRingFabric(topo, MultiRingConfig(
            queues=queues, eject_drain_per_cycle=1, engine=engine))

    pair_topo, ring0, ring1 = chiplet_pair(nodes_per_ring=4, stop_spacing=1)
    rng = make_rng(46)
    pair_plan: List[PlanEntry] = []
    pair_cycles = max(cycles // 2, 1)
    for cycle in range(pair_cycles):
        for src in ring0:
            pair_plan.append((cycle, src, rng.choice(ring1),
                              MessageKind.DATA))
        for src in ring1:
            pair_plan.append((cycle, src, rng.choice(ring0),
                              MessageKind.DATA))
    cases.append(BenchCase(
        name="chiplet_pair_swap",
        description="saturated cross-chiplet DATA traffic through an "
                    "RBRG-L2 (exercises SWAP/DRM and bridge stepping)",
        cycles=pair_cycles,
        build=build_pair,
        plan=pair_plan,
        # Saturated traffic, gated by the normalized trajectory, not
        # the speedup floor.
        saturated=False,
    ))

    return cases


def _stats_fingerprint(s) -> Dict[str, int]:
    return {
        "accepted": s.accepted,
        "rejected": s.rejected,
        "injected": s.injected,
        "delivered": s.delivered,
        "deflections": s.deflections,
        "itags_placed": s.itags_placed,
        "etags_placed": s.etags_placed,
        "swap_events": s.swap_events,
    }


def _resolved_engine(fabric: MultiRingFabric) -> str:
    """The tier(s) actually active on the fabric's rings, post-run."""
    tiers = sorted(set(fabric.engine_tiers().values()))
    return "+".join(tiers) if tiers else "ref"


def _timed_run(case: BenchCase,
               engine: str) -> Tuple[float, MultiRingFabric]:
    """One timed run of ``case`` on a fresh fabric: (seconds, fabric).

    Messages are freshly constructed (the fabric mutates them) with
    explicit ``msg_id``\\ s so the simulated execution — and therefore
    the stats fingerprint — is identical every run.  The route cache is
    warmed and GC parked per the module methodology; both apply
    identically to every engine tier.
    """
    plan = case.plan
    n = len(plan)
    fabric = case.build(engine)
    if fabric.stats.trace.enabled:
        raise RuntimeError(
            f"bench case {case.name}: tracing must stay disabled — "
            "timings gate the tracing-off overhead of the nil-object "
            "hooks, not the recorder itself")
    msgs = [Message(src=src, dst=dst, kind=kind, created_cycle=cycle,
                    msg_id=mid)
            for mid, (cycle, src, dst, kind) in enumerate(plan)]
    route = fabric.router.route
    for src, dst in {(entry[1], entry[2]) for entry in plan}:
        route(src, dst)
    try_inject = fabric.try_inject
    step = fabric.step
    i = 0
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for cycle in range(case.cycles):
            while i < n and plan[i][0] == cycle:
                try_inject(msgs[i])
                i += 1
            step(cycle)
        elapsed = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()
    return elapsed, fabric


def run_case(case: BenchCase, engines: Tuple[str, ...] = ("skip",),
             repeats: int = 3) -> Dict[str, Dict[str, Any]]:
    """Best-of-``repeats`` timing of ``case`` under each of ``engines``.

    Each repeat times every engine once, in order, so the engines
    alternate (a, b, a, b, ...) and slow host phases hit all of them
    alike.  Returns one result record per engine.
    """
    best: Dict[str, float] = {}
    fabrics: Dict[str, MultiRingFabric] = {}
    for _ in range(max(repeats, 1)):
        for engine in engines:
            elapsed, fabrics[engine] = _timed_run(case, engine)
            best[engine] = min(best.get(engine, elapsed), elapsed)
    return {
        engine: {
            "cycles_per_sec": (case.cycles / best[engine]
                               if best[engine] > 0 else float("inf")),
            "seconds": best[engine],
            "engine": _resolved_engine(fabrics[engine]),
            "stats": _stats_fingerprint(fabrics[engine].stats),
        }
        for engine in engines
    }


def calibration_score(repeats: int = 3) -> float:
    """Iterations/sec of a fixed integer loop — a machine-speed proxy."""
    best: Optional[float] = None
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        acc = 0
        for i in range(_CALIBRATION_ITERS):
            acc = (acc + i * 1103515245 + 12345) % 2147483648
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    assert best is not None and acc >= 0
    return _CALIBRATION_ITERS / best if best > 0 else float("inf")


def aggregate_normalized(results: List[Dict[str, Any]]) -> Optional[float]:
    """Geometric mean of normalized throughput over *real-work* cases.

    Zero-plan cases (``ring_idle``) are excluded: pure stepping overhead
    on an empty fabric is legitimately 20×+ faster than any loaded case
    and its outlier normalized score used to dominate an arithmetic
    headline.  The cases stay in the report as individual results; they
    are only kept out of the aggregate the trajectory gate tracks.
    Skipped and failed cases have no timing and are excluded too — a
    partially-failed suite still reports an aggregate over the cases
    that did run, with the failures loud in the result list.
    """
    values = [r["normalized"] for r in results
              if not r.get("skipped") and not r.get("failed")
              and r.get("plan_size", 0) > 0]
    if not values:
        return None
    log_sum = 0.0
    for value in values:
        if value <= 0:
            return None
        log_sum += math.log(value)
    return math.exp(log_sum / len(values))


def _run_suite_case(case: BenchCase, engine: str, repeats: int,
                    reference: bool, score: float) -> Dict[str, Any]:
    """Time one suite case (plus optional reference A/B) into an entry."""
    runs = run_case(case, (engine, "ref") if reference else (engine,),
                    repeats)
    main_run = runs[engine]
    entry: Dict[str, Any] = {
        "name": case.name,
        "description": case.description,
        "cycles": case.cycles,
        "plan_size": len(case.plan),
        "saturated": case.saturated,
        "engine_mode": engine,
        "engine": main_run["engine"],
        "cycles_per_sec": round(main_run["cycles_per_sec"], 1),
        "normalized": round(main_run["cycles_per_sec"] / score, 6),
        "stats": main_run["stats"],
    }
    if reference:
        ref_run = runs["ref"]
        entry["reference_cycles_per_sec"] = round(
            ref_run["cycles_per_sec"], 1)
        entry["speedup_vs_reference"] = round(
            main_run["cycles_per_sec"] / ref_run["cycles_per_sec"], 2)
        entry["stats_match_reference"] = (
            ref_run["stats"] == main_run["stats"])
        if not entry["stats_match_reference"]:
            raise RuntimeError(
                f"bench case '{case.name}': engine={engine} stats "
                f"diverge from the reference step\n"
                f"{engine}={main_run['stats']}\n"
                f"ref ={ref_run['stats']}")
    return entry


def run_smoke_suite(repeats: int = 3, reference: bool = False,
                    cycles: int = SMOKE_CYCLES,
                    engine: str = "skip") -> Dict[str, Any]:
    """Run the whole suite; returns the ``BENCH_fabric.json`` payload.

    ``engine`` selects the stepping-engine mode under test (the
    committed trajectory uses the shipping default, ``"skip"``; the CLI
    exposes ``--engine`` for A/B runs).  With ``reference=True`` every
    case is also timed under the reference walk and the two stats
    fingerprints are required to match — the bench doubles as an
    end-to-end engine-equivalence check.

    Every case is statically screened first (:mod:`repro.analyze`); a
    case whose fabric is statically infeasible is skipped with a
    recorded reason, and the report's ``prefilter`` metadata carries the
    evaluated/skipped counts so the committed ``BENCH_fabric.json``
    always says how many points were pruned (no silent caps).

    A case that raises no longer aborts the suite: it becomes a
    structured failure entry (``failed: true`` with the error kind and
    message) in the results, excluded from the aggregate but rendered
    loudly by :func:`format_report`.  The engine-equivalence divergence
    (``reference=True`` with mismatched fingerprints) still raises —
    that is a correctness verdict, not a flaky case.
    """
    from repro.analyze.prefilter import infeasible_reason

    cases = smoke_cases(cycles)
    score = calibration_score(repeats)
    results: List[Dict[str, Any]] = []
    prefilter: Dict[str, Any] = {"evaluated": 0, "skipped": 0,
                                 "skipped_cases": []}
    for case in cases:
        probe = case.build(engine)
        reason = infeasible_reason(probe.topology, probe.config)
        prefilter["evaluated"] += 1
        if reason is not None:
            prefilter["skipped"] += 1
            prefilter["skipped_cases"].append(
                {"name": case.name, "reason": reason})
            results.append({"name": case.name, "skipped": True,
                            "skip_reason": reason})
            continue
        start = time.perf_counter()
        try:
            entry = _run_suite_case(case, engine, repeats, reference, score)
        except KeyboardInterrupt:
            raise
        except RuntimeError:
            raise  # engine divergence / tracing misuse: correctness
        except Exception as exc:
            record = failure_record(
                case.name, type(exc).__name__, attempts=1,
                elapsed_s=time.perf_counter() - start,
                message=str(exc))
            record["name"] = case.name
            results.append(record)
            continue
        results.append(entry)
    aggregate = aggregate_normalized(results)
    failed = sum(1 for r in results if is_failed(r))
    return {
        "schema": REPORT_SCHEMA,
        "suite": "smoke",
        "repro_version": __version__,
        "repeats": repeats,
        "engine_mode": engine,
        "generated_unix": int(time.time()),
        "calibration_score": round(score, 1),
        "aggregate_normalized": (round(aggregate, 6)
                                 if aggregate is not None else None),
        "prefilter": prefilter,
        "failed_cases": failed,
        "results": results,
    }


def saturated_speedup_failures(report: Dict[str, Any],
                               floor: float = 1.0) -> List[str]:
    """The saturated-case bench gate: saturated cases must not lose.

    Returns a failure string for every saturated, reference-timed case
    whose ``speedup_vs_reference`` is below ``floor``.  This closes the
    blind spot the normalized-regression gate had: a fast path that was
    *consistently* slower than the reference walk on saturated traffic
    regressed nothing release-over-release and shipped silently.
    Requires a report produced with ``reference=True``; cases without a
    reference timing are skipped (the normalized gate still covers
    them).
    """
    failures: List[str] = []
    for entry in report.get("results", []):
        if (entry.get("skipped") or entry.get("failed")
                or not entry.get("saturated")):
            continue
        speedup = entry.get("speedup_vs_reference")
        if speedup is None:
            continue
        if speedup < floor:
            failures.append(
                f"{entry['name']}: saturated case ran at "
                f"{speedup:.2f}x the reference walk "
                f"(engine={entry.get('engine', '?')}, floor "
                f"{floor:.2f}x) — the fast path is losing on "
                "saturated traffic")
    return failures


def compare_to_baseline(report: Dict[str, Any], baseline: Dict[str, Any],
                        max_regression: float = 0.25) -> List[str]:
    """Regression check against a committed baseline report.

    Compares *normalized* throughput per case; returns a list of
    human-readable failures (empty = within budget).  Cases present in
    only one report are skipped — renames must not hard-fail CI — but a
    fingerprint mismatch fails, because it means the two numbers timed
    different simulations.

    When both reports carry an ``aggregate_normalized`` headline (the
    zero-plan-excluded geometric mean), that is gated under the same
    budget, so the trajectory's real-work summary cannot erode through
    a sequence of individually-allowed per-case drops.
    """
    failures: List[str] = []
    agg = report.get("aggregate_normalized")
    base_agg = baseline.get("aggregate_normalized")
    if agg is not None and base_agg is not None:
        floor = base_agg * (1.0 - max_regression)
        if agg < floor:
            failures.append(
                f"aggregate: normalized geomean {agg:.4f} fell below "
                f"{floor:.4f} ({max_regression:.0%} regression budget "
                f"from baseline {base_agg:.4f})")
    base_by_name = {r["name"]: r for r in baseline.get("results", [])}
    for entry in report.get("results", []):
        base = base_by_name.get(entry["name"])
        if base is None:
            continue
        if (entry.get("skipped") or base.get("skipped")
                or entry.get("failed") or base.get("failed")):
            # A statically-skipped or failed case has no timing to
            # compare; skips show in the prefilter metadata and
            # failures in the report's failed_cases count.
            continue
        if base.get("stats") != entry.get("stats"):
            failures.append(
                f"{entry['name']}: stats fingerprint drifted from the "
                "baseline (the workload changed; re-baseline instead of "
                "comparing throughput)")
            continue
        floor = base["normalized"] * (1.0 - max_regression)
        if entry["normalized"] < floor:
            failures.append(
                f"{entry['name']}: normalized throughput "
                f"{entry['normalized']:.4f} fell below "
                f"{floor:.4f} ({max_regression:.0%} regression budget "
                f"from baseline {base['normalized']:.4f})")
    return failures


def format_report(report: Dict[str, Any]) -> str:
    """Terminal-friendly rendering of a bench report."""
    lines = [
        f"fabric bench (suite={report['suite']}, engine="
        f"{report.get('engine_mode', 'skip')}, repeats="
        f"{report['repeats']}, calibration="
        f"{report['calibration_score']:,.0f} it/s)",
    ]
    aggregate = report.get("aggregate_normalized")
    if aggregate is not None:
        lines.append(f"  aggregate normalized (zero-plan excluded): "
                     f"{aggregate:.4f}")
    prefilter = report.get("prefilter")
    if prefilter and prefilter.get("skipped"):
        lines.append(
            f"  prefilter: {prefilter['skipped']}/"
            f"{prefilter['evaluated']} case(s) statically skipped")
    if report.get("failed_cases"):
        lines.append(f"  FAILED cases: {report['failed_cases']}")
    width = max(len(r["name"]) for r in report["results"])
    for r in report["results"]:
        if r.get("skipped"):
            lines.append(f"  {r['name']:<{width}}  SKIPPED: "
                         f"{r['skip_reason']}")
            continue
        if r.get("failed"):
            lines.append(
                f"  {r['name']:<{width}}  FAILED: {r['error_kind']}: "
                f"{r['error_message']}")
            continue
        extra = ""
        if "speedup_vs_reference" in r:
            extra += (f"  ({r['speedup_vs_reference']:.2f}x vs reference "
                      f"{r['reference_cycles_per_sec']:,.0f})")
        engine = r.get("engine")
        tier = f"  [{engine}]" if engine else ""
        lines.append(
            f"  {r['name']:<{width}}  {r['cycles_per_sec']:>12,.0f} cyc/s"
            f"  norm {r['normalized']:.4f}{tier}{extra}")
    return "\n".join(lines)


def load_report(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_report(report: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")
