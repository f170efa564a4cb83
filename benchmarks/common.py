"""Shared configuration and plumbing for the benchmark harness.

Every benchmark regenerates one table or figure from the paper's
evaluation (Section 5).  Conventions:

- simulations use the reduced-but-faithful configurations below so the
  whole harness completes in minutes on a laptop;
- each benchmark renders a :class:`repro.analysis.ComparisonTable` with
  the paper's values alongside ours, prints it, and saves it under
  ``benchmarks/results/``;
- expensive intermediate results (e.g. the simulated AI NoC bandwidth,
  reused by Table 8) are memoized per process in :data:`CACHE`.
"""

from __future__ import annotations

import os
from typing import Callable, Dict

from repro.ai import REDUCED_AI_SIZING
from repro.cpu.package import ServerPackageConfig

#: Process-wide memo for results shared between benchmarks.
CACHE: Dict[str, object] = {}

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Reduced server package: 2 CCDs x 6 clusters x 4 cores = 48 cores,
#: same topology family as the 96-core configuration.
BENCH_SERVER_CONFIG = ServerPackageConfig(
    clusters_per_ccd=6, hn_per_ccd=2, ddr_per_ccd=2
)

#: AI processor sizing used by Table 7 / Figure 14 / Table 8.
BENCH_AI_KWARGS = REDUCED_AI_SIZING

#: Cycles simulated per AI bandwidth point.
AI_BENCH_CYCLES = 2000


def memo(key: str, compute: Callable[[], object]) -> object:
    """Compute-once cache across the benchmarks of one process."""
    if key not in CACHE:
        CACHE[key] = compute()
    return CACHE[key]


def save_result(name: str, text: str) -> str:
    """Persist a rendered table under benchmarks/results/ and return it."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return text


def run_once(benchmark, fn):
    """Run a simulation exactly once under pytest-benchmark timing.

    Cycle-level simulations are too slow for statistical rounds; the
    harness cares about the produced numbers, with wall time recorded as
    a single sample.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
