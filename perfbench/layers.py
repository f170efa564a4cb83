"""Per-layer host-time attribution for the traced run.

:class:`LayerTracer` replaces the public entry points of each layer on
already-built instances with timing wrappers; no program code changes.
Calls run into the millions, so they are aggregated in memory by
(layer, parent layer) into a call count, total time and child time.  A
layer's self time is its total time minus the time of wrapped calls it
made, each counted with its wrapper.  The wrappers time their own
bookkeeping too, as tracer overhead, so that it lands in no layer.  Self
times of all layers, the tracer overhead and the unattributed
``harness`` time add up to the traced wall time.

Layer names follow the repo's modules:

=============  ======================================================
routing        ``Router.route``
ring           each ``Ring.step``
bridge_l1/l2   each ``RingBridgeL1.step`` / ``RingBridgeL2.step``
network        ``MultiRingFabric.try_inject`` (``network.inject``) and
               ``MultiRingFabric.step`` (``network.step``: drain and
               delivery, net of rings and bridges)
coherence      ``step`` / ``on_message`` of RN, HN and SN agents
cpu            each ``Core.step``
ai             ``step`` / ``on_message`` of AI cores, L2, LLC, HBM, DMA
baselines      ``step`` / ``try_inject`` of the buffered mesh and the
               switched star
=============  ======================================================
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Tuple

from repro.ai import AiProcessor
from repro.baselines.mesh import BufferedMeshFabric
from repro.baselines.switched_star import SwitchedStarFabric
from repro.core.bridge import RingBridgeL1
from repro.core.network import MultiRingFabric
from repro.cpu import ServerPackage

ROOT_LAYER = "harness"


class LayerTracer:
    """Aggregating span recorder; see the module docstring."""

    def __init__(self) -> None:
        #: (layer, parent) -> [calls, total seconds, child seconds]
        self.spans: Dict[Tuple[str, str], List] = {}
        #: Per-layer step counts taken while the component had no work.
        self.idle_steps: Dict[str, int] = {}
        #: Distinct (router, src, dst) routes requested.
        self.routes_seen: set = set()
        #: Per ring of every instrumented fabric, the tiers it ran on.
        self.ring_tiers: List[set] = []
        self._stack: List[List] = [[ROOT_LAYER, 0.0]]
        #: Seconds spent in the wrappers themselves, outside the layers.
        self._overhead = [0.0]
        #: Per-call wrapper cost charged to the caller (see calibrate).
        self.residual = 0.0

    # -- wrapping ------------------------------------------------------------

    def wrap(self, obj, attr: str, layer: str, probe=None) -> None:
        """Time every call of ``obj.attr`` as ``layer``.

        With a ``probe``, the call also counts as an idle step when
        ``probe(obj)`` reads the same value, other than None, before and
        after it.
        """
        fn = getattr(obj, attr)
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        idle_steps, overhead = self.idle_steps, self._overhead

        def timed(*args):
            entered = clock()
            parent = stack[-1]
            frame = [layer, 0.0]
            stack.append(frame)
            before = probe(obj) if probe is not None else None
            start = clock()
            try:
                result = fn(*args)
            except BaseException:
                stack.pop()
                raise
            elapsed = clock() - start
            stack.pop()
            key = (layer, parent[0])
            rec = spans.get(key)
            if rec is None:
                rec = spans[key] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += elapsed
            rec[2] += frame[1]
            if before is not None and probe(obj) == before:
                idle_steps[layer] = idle_steps.get(layer, 0) + 1
            # The parent counts the whole wrapped call as child time; the
            # wrapper's own share goes to the tracer's overhead.
            whole = clock() - entered
            parent[1] += whole
            overhead[0] += whole - elapsed
            return result

        setattr(obj, attr, timed)

    def instrument(self, system) -> None:
        """Wrap every layer entry point reachable from ``system``."""
        if isinstance(system, AiProcessor):
            self._fabric(system.fabric)
            for agents in (system.cores, system.l2_slices, system.llcs,
                           system.hbms, system.dmas):
                for agent in agents:
                    self.wrap(agent, "step", "ai.step", _agent_idle)
                    self.wrap(agent, "on_message", "ai.on_message")
        elif isinstance(system, ServerPackage):
            self._fabric(system.fabric)
            coherent = system.system
            for kind, agents in (("rn", coherent.requesters),
                                 ("hn", coherent.homes),
                                 ("sn", coherent.memories)):
                for agent in agents:
                    self.wrap(agent, "step", f"coherence.{kind}.step",
                              _agent_idle)
                    self.wrap(agent, "on_message",
                              f"coherence.{kind}.on_message")
            for core in system.cores:
                self.wrap(core, "step", "cpu", _core_idle)
            attach = system.attach_core

            def attach_core(*args, **kwargs):
                core = attach(*args, **kwargs)
                self.wrap(core, "step", "cpu", _core_idle)
                return core

            system.attach_core = attach_core
        else:
            raise TypeError(f"no layer map for {type(system).__name__}")

    def _fabric(self, fabric) -> None:
        if isinstance(fabric, MultiRingFabric):
            seen = self.routes_seen
            route = fabric.router.route
            router_id = id(fabric.router)

            def tracked_route(src, dst):
                seen.add((router_id, src, dst))
                return route(src, dst)

            fabric.router.route = tracked_route
            self.wrap(fabric.router, "route", "routing")
            for ring in fabric.rings.values():
                self._track_tier(ring)
                self.wrap(ring, "step", "ring")
            for bridge in fabric.bridges:
                level = "bridge_l1" if isinstance(bridge, RingBridgeL1) \
                    else "bridge_l2"
                self.wrap(bridge, "step", level)
            self.wrap(fabric, "try_inject", "network.inject")
            self.wrap(fabric, "step", "network.step")
        elif isinstance(fabric, BufferedMeshFabric):
            self.wrap(fabric, "try_inject", "baselines.mesh")
            self.wrap(fabric, "step", "baselines.mesh")
        elif isinstance(fabric, SwitchedStarFabric):
            self.wrap(fabric, "try_inject", "baselines.star")
            self.wrap(fabric, "step", "baselines.star")
        else:
            raise TypeError(f"no layer map for {type(fabric).__name__}")

    def _track_tier(self, ring) -> None:
        tiers = {ring.active_tier()}
        self.ring_tiers.append(tiers)
        step = ring.step

        def tracked_step(cycle):
            step(cycle)
            tiers.add(ring.active_tier())

        ring.step = tracked_step

    def checkpoint(self):
        """A copy of everything recorded so far, for :meth:`rollback`."""
        return ({k: list(v) for k, v in self.spans.items()},
                dict(self.idle_steps), set(self.routes_seen),
                [set(t) for t in self.ring_tiers], self._stack[0][1],
                self._overhead[0])

    def rollback(self, state) -> None:
        """Forget what was recorded since ``state`` was taken."""
        spans, idle, routes, tiers, top, overhead = state
        self.spans.clear()
        self.spans.update(spans)
        self.idle_steps.clear()
        self.idle_steps.update(idle)
        self.routes_seen.clear()
        self.routes_seen.update(routes)
        self.ring_tiers[:] = tiers
        self._stack[0][1] = top
        self._overhead[0] = overhead

    def tier_counts(self) -> Dict[str, int]:
        """Rings per tier: dense if a ring ever ran dense, else skip if
        it ever skipped, else ref."""
        counts = {"ref": 0, "skip": 0, "dense": 0}
        for tiers in self.ring_tiers:
            tier = next(t for t in ("dense", "skip", "ref") if t in tiers)
            counts[tier] += 1
        return counts

    # -- reading ---------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Self seconds per layer: total minus wrapped children, minus the
        calibrated wrapper cost of each call the layer made."""
        out: Dict[str, float] = {}
        for (layer, parent), (count, total, child) in self.spans.items():
            out[layer] = out.get(layer, 0.0) + total - child
            if parent != ROOT_LAYER:
                out[parent] = out.get(parent, 0.0) - count * self.residual
        return out

    def calls(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for (layer, _), (count, _, _) in self.spans.items():
            out[layer] = out.get(layer, 0) + count
        return out

    def overhead_seconds(self) -> float:
        """Seconds the wrappers spent on their own bookkeeping."""
        return self._overhead[0] + sum(
            count for count, _, _ in self.spans.values()) * self.residual

    def calibrate(self, calls: int = 20000, repeats: int = 5) -> float:
        """Measure :attr:`residual`, the wrapper cost no clock sees.

        Entering and leaving a wrapper costs its caller more than a plain
        call does, outside the wrapper's own clock readings.  The median
        difference over a loop of wrapped versus plain no-op calls is that
        cost per call; :meth:`self_times` moves it from the calling layer
        to the tracer overhead.
        """
        samples = []
        for _ in range(repeats):
            plain, wrapped = _Caller(), _Caller()
            scratch = LayerTracer()
            scratch.wrap(wrapped, "leaf", "leaf")
            scratch.wrap(wrapped, "loop", "loop")
            start = time.perf_counter()
            plain.loop(calls)
            plain_s = time.perf_counter() - start
            wrapped.loop(calls)
            samples.append((scratch.self_times()["loop"] - plain_s) / calls)
        self.residual = max(0.0, statistics.median(samples))
        return self.residual

    def table(self) -> List[Dict]:
        """The aggregate as rows, for the span file."""
        return [{"layer": layer, "parent": parent, "calls": count,
                 "total_s": total, "child_s": child, "self_s": total - child}
                for (layer, parent), (count, total, child)
                in sorted(self.spans.items())]


class _Caller:
    """Calibration target: a loop of calls to a no-op method."""

    def leaf(self):
        return None

    def loop(self, calls):
        for _ in range(calls):
            self.leaf()


def _agent_idle(agent):
    """Agents: idle while ``busy`` stays False across the step."""
    return None if agent.busy else False


def _core_idle(core):
    """Cores: idle when the step issued and dropped nothing."""
    return (core.stats.issued, core.stats.dropped)
