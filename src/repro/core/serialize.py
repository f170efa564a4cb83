"""Topology and config (de)serialization.

Topologies are declarative (`TopologySpec`), so they round-trip through
JSON cleanly: systems can save a floorplan next to their results, and a
saved topology plus a saved trace (:mod:`repro.workloads.trace`)
reproduces an experiment exactly.  :func:`config_to_dict` /
:func:`config_from_dict` give :class:`MultiRingConfig` the same
round-trip (tuning knobs, engine tier), which is what lets saved
counterexamples rebuild byte-identical fabrics from plain JSON.
"""

from __future__ import annotations

import dataclasses
import json
from typing import IO, Union

from repro.core.config import (
    BridgeSpec,
    MultiRingConfig,
    NodePlacement,
    RingSpec,
    TopologySpec,
)
from repro.params import QueueParams

FORMAT_VERSION = 1


def topology_to_dict(spec: TopologySpec) -> dict:
    spec.validate()
    return {
        "version": FORMAT_VERSION,
        "rings": [
            {"ring_id": r.ring_id, "nstops": r.nstops,
             "bidirectional": r.bidirectional, "lanes": r.lanes}
            for r in spec.rings
        ],
        "nodes": [
            {"node": p.node, "ring": p.ring, "stop": p.stop}
            for p in spec.nodes
        ],
        "bridges": [
            {"bridge_id": b.bridge_id, "level": b.level,
             "ring_a": b.ring_a, "stop_a": b.stop_a,
             "ring_b": b.ring_b, "stop_b": b.stop_b,
             "link_latency": b.link_latency}
            for b in spec.bridges
        ],
    }


def topology_from_dict(raw: dict) -> TopologySpec:
    version = raw.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported topology format version {version!r}")
    spec = TopologySpec(
        rings=[RingSpec(r["ring_id"], r["nstops"], r["bidirectional"],
                        r.get("lanes"))
               for r in raw["rings"]],
        nodes=[NodePlacement(p["node"], p["ring"], p["stop"])
               for p in raw["nodes"]],
        bridges=[BridgeSpec(b["bridge_id"], b["level"], b["ring_a"],
                            b["stop_a"], b["ring_b"], b["stop_b"],
                            b.get("link_latency", 0))
                 for b in raw["bridges"]],
    )
    spec.validate()
    return spec


def config_to_dict(config: MultiRingConfig) -> dict:
    """JSON-able dict for a :class:`MultiRingConfig`.

    ``reliability`` must be None (the reliable-link config holds
    non-declarative state and already has its own campaign plumbing);
    everything else — queue depths, ablation switches, engine tier —
    round-trips losslessly.
    """
    if config.reliability is not None:
        raise ValueError(
            "config_to_dict does not serialize reliability configs; "
            "save the campaign parameters instead")
    raw = dataclasses.asdict(config)
    raw.pop("reliability")
    raw["version"] = FORMAT_VERSION
    return raw


def config_from_dict(raw: dict) -> MultiRingConfig:
    """Rebuild a :class:`MultiRingConfig` from :func:`config_to_dict`.

    Unknown keys are rejected (a typo'd knob must not silently become
    a default); missing keys fall back to the dataclass defaults so
    old saves keep loading as knobs are added.
    """
    raw = dict(raw)
    version = raw.pop("version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported config format version {version!r}")
    known = {f.name for f in dataclasses.fields(MultiRingConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if isinstance(raw.get("queues"), dict):
        raw["queues"] = QueueParams(**raw["queues"])
    return MultiRingConfig(**raw)


def save_topology(spec: TopologySpec, fh: IO[str]) -> None:
    json.dump(topology_to_dict(spec), fh, indent=2)
    fh.write("\n")


def load_topology(fh: IO[str]) -> TopologySpec:
    return topology_from_dict(json.load(fh))


def describe_topology(spec: TopologySpec) -> str:
    """Human-readable summary with an ASCII strip per ring."""
    spec.validate()
    by_ring: dict = {r.ring_id: [] for r in spec.rings}
    for p in spec.nodes:
        by_ring[p.ring].append(("N", p.stop, f"n{p.node}"))
    for b in spec.bridges:
        label = f"B{b.bridge_id}" + ("*" if b.level == 2 else "")
        by_ring[b.ring_a].append(("B", b.stop_a, label))
        by_ring[b.ring_b].append(("B", b.stop_b, label))
    lines = [
        f"topology: {len(spec.rings)} rings, {len(spec.nodes)} nodes, "
        f"{len(spec.bridges)} bridges (* = RBRG-L2)"
    ]
    for ring in spec.rings:
        kind = "full" if ring.bidirectional else "half"
        strip = ["."] * ring.nstops
        annotations = []
        for tag, stop, label in sorted(by_ring[ring.ring_id],
                                       key=lambda t: t[1]):
            strip[stop] = tag
            annotations.append(f"{stop}:{label}")
        lines.append(
            f"  ring {ring.ring_id:>4} ({kind}, {ring.nstops:>3} stops) "
            f"[{''.join(strip)}]  {' '.join(annotations)}"
        )
    return "\n".join(lines)
