"""Bandwidth probes.

Section 5.4: "we integrated several probes in the NoC" and plotted each
probe's windowed bandwidth over the run to show equilibrium (>80% of the
maximum for most of the run).  :class:`BandwidthProbe` counts bytes in
fixed windows; :class:`ProbeSet` computes the equilibrium statistics.

The correctness counterpart, the runtime invariant checker, attaches
through :meth:`repro.core.network.MultiRingFabric.attach_invariant_checker`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence


class BandwidthProbe:
    """Counts delivered bytes at one observation point in fixed windows."""

    def __init__(self, name: str, window_cycles: int = 256):
        if window_cycles <= 0:
            raise ValueError("window_cycles must be positive")
        self.name = name
        self.window_cycles = window_cycles
        self._windows: List[float] = []
        self._current = 0.0
        self._current_window_index = 0

    def observe(self, nbytes: float, cycle: int) -> None:
        """Record ``nbytes`` seen at ``cycle``."""
        window = cycle // self.window_cycles
        while self._current_window_index < window:
            self._windows.append(self._current)
            self._current = 0.0
            self._current_window_index += 1
        self._current += nbytes

    def finalize(self) -> None:
        """Close the open window so :attr:`windows` covers the whole run."""
        self._windows.append(self._current)
        self._current = 0.0
        self._current_window_index += 1

    @property
    def windows(self) -> List[float]:
        return list(self._windows)

    def bytes_per_cycle_series(self) -> List[float]:
        return [w / self.window_cycles for w in self._windows]

    @property
    def total_bytes(self) -> float:
        return sum(self._windows) + self._current


class ProbeSet:
    """A group of probes observed together — Figure 14's monitor panel."""

    def __init__(self, probes: Sequence[BandwidthProbe]):
        self.probes = list(probes)

    def finalize(self) -> None:
        for probe in self.probes:
            probe.finalize()

    def series(self) -> Dict[str, List[float]]:
        return {p.name: p.bytes_per_cycle_series() for p in self.probes}

    def equilibrium_fraction(
        self, threshold: float = 0.8, skip_warmup_windows: int = 1
    ) -> float:
        """Fraction of (probe, window) points above ``threshold`` × window max.

        This is the paper's claim restated: "For most of the time, all
        probes can get more than 80% of the maximum bandwidth."  For each
        window we find the maximum bandwidth over probes; a point passes
        if it reaches ``threshold`` times that maximum.
        """
        series = [p.bytes_per_cycle_series()[skip_warmup_windows:] for p in self.probes]
        if not series or not series[0]:
            return 0.0
        nwin = min(len(s) for s in series)
        passing = 0
        total = 0
        for w in range(nwin):
            column = [s[w] for s in series]
            peak = max(column)
            if peak <= 0:
                continue
            for value in column:
                total += 1
                if value >= threshold * peak:
                    passing += 1
        return passing / total if total else 0.0

    def min_over_max(self, skip_warmup_windows: int = 1) -> List[float]:
        """Per-window min/max bandwidth ratio across probes (1.0 = perfect)."""
        series = [p.bytes_per_cycle_series()[skip_warmup_windows:] for p in self.probes]
        if not series or not series[0]:
            return []
        nwin = min(len(s) for s in series)
        out = []
        for w in range(nwin):
            column = [s[w] for s in series]
            peak = max(column)
            out.append(min(column) / peak if peak > 0 else 1.0)
        return out
