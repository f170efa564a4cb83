"""SPECpower-ssj model — Table 6.

SPECpower exercises a server at graduated load levels (100%..10% plus
active idle) and scores sum(ssj_ops) / sum(watts).  The model combines:

- peak throughput from the SPEC CPI model at the simulated memory
  latency (the NoC's contribution to performance), and
- a power model with static and dynamic parts, where the NoC's share
  comes from the physical model (the bufferless design's area/energy
  advantage, Sections 3.4.2 and 2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

#: The graduated load points of SPECpower-ssj2008.
LOAD_LEVELS: List[float] = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.0]


@dataclass
class SpecPowerModel:
    """One platform under the SPECpower protocol."""

    name: str
    #: ssj_ops at 100% load (from the throughput model).
    peak_ssj_ops: float
    #: Idle (static) power, watts: leakage + uncore + fans at zero load.
    static_watts: float
    #: Additional power at 100% load, watts.
    dynamic_watts: float
    #: Throughput lost to memory contention as load rises (0 = linear).
    saturation_droop: float = 0.0

    def __post_init__(self) -> None:
        if self.peak_ssj_ops <= 0:
            raise ValueError("peak throughput must be positive")
        if self.static_watts < 0 or self.dynamic_watts < 0:
            raise ValueError("power must be non-negative")
        if not 0 <= self.saturation_droop < 1:
            raise ValueError("droop must be in [0, 1)")

    def ssj_ops(self, load: float) -> float:
        if not 0 <= load <= 1:
            raise ValueError("load must be in [0, 1]")
        droop = 1.0 - self.saturation_droop * load
        return self.peak_ssj_ops * load * droop

    def watts(self, load: float) -> float:
        if not 0 <= load <= 1:
            raise ValueError("load must be in [0, 1]")
        return self.static_watts + self.dynamic_watts * load

    def score(self) -> float:
        """overall ssj_ops/watt over the graduated levels."""
        total_ops = sum(self.ssj_ops(level) for level in LOAD_LEVELS)
        total_watts = sum(self.watts(level) for level in LOAD_LEVELS)
        return total_ops / total_watts
