"""Module-level sweep workers (must be picklable for process pools).

Each worker takes ``(point, seed)`` — the point's parameters and its
deterministic per-point seed from :func:`repro.perf.sweep.point_seed` —
and returns a JSON-serializable record so results can flow through the
:class:`repro.perf.cache.ResultCache`.  Workers import simulation
modules lazily: a pool child pays the import cost once, and the parent
CLI stays fast when the sweep is fully cached.

Workers run under the resilient dispatcher
(:mod:`repro.perf.resilient`): an exception raised here is retried with
the *same* ``(point, seed)`` under bounded backoff and, if it keeps
failing, becomes a structured failure record in the sweep results — so
a worker must be a pure function of its arguments (no hidden state
between attempts) for retries to stay byte-identical.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.perf.sweep import SweepPoint


def ai_rw_point(point: SweepPoint, seed: int) -> Dict[str, Any]:
    """One R:W-ratio point of the Table 7-style AI bandwidth sweep."""
    from repro.ai import REDUCED_AI_SIZING, AiProcessor, AiProcessorConfig

    params = point.as_dict()
    config = AiProcessorConfig(
        read_fraction=params["read_fraction"], **REDUCED_AI_SIZING)
    processor = AiProcessor(config, seed=seed % (2 ** 31))
    processor.run(params["cycles"])
    report = processor.bandwidth_report()
    return {
        "read_fraction": params["read_fraction"],
        "cycles": params["cycles"],
        "total_tbps": report["total"],
        "read_tbps": report["read"],
        "write_tbps": report["write"],
        "dma_tbps": report["dma"],
    }
