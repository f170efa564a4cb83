"""LMBench bandwidth kernels — the Figure 10 workload.

"Part of LMBench is used to measure the NoC's bandwidth" (Section 5.1).
The bw_mem kernels are pure access-pattern generators; each is described
by its read/write composition per element moved.  The runner streams the
pattern through a server package (NoSnp accesses — these working sets
defeat any cache) and reports achieved bandwidth, normalized per DDR
channel as the paper does ("normalizes the number of DDR4 channels").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.cpu.core import Core, closed_loop
from repro.cpu.package import ServerPackage
from repro.params import CACHE_LINE_BYTES, NOC_FREQ_HZ
from repro.sim.rng import Rng, make_rng


@dataclass(frozen=True)
class LmbenchKernel:
    """One bw_mem kernel: reads/writes issued per element moved."""

    name: str
    description: str
    reads_per_element: int
    writes_per_element: int

    @property
    def read_fraction(self) -> float:
        total = self.reads_per_element + self.writes_per_element
        return self.reads_per_element / total

    @property
    def accesses_per_element(self) -> int:
        return self.reads_per_element + self.writes_per_element


#: The bandwidth-related kernels Figure 10 lists.
LMBENCH_KERNELS: Dict[str, LmbenchKernel] = {
    "rd": LmbenchKernel("rd", "memory reading and summing", 1, 0),
    "frd": LmbenchKernel("frd", "read+sum via the OS read interface", 1, 0),
    "wr": LmbenchKernel("wr", "memory writing", 0, 1),
    "fwr": LmbenchKernel("fwr", "write via the OS write interface", 0, 1),
    "bzero": LmbenchKernel("bzero", "block zeroing", 0, 1),
    "cp": LmbenchKernel("cp", "memory copy (read + write)", 1, 1),
    "fcp": LmbenchKernel("fcp", "copy via the OS interfaces", 1, 1),
    "bcopy": LmbenchKernel("bcopy", "block copy", 1, 1),
}


def _kernel_stream(kernel: LmbenchKernel, base: int, lines: int) -> Iterator[Tuple[str, int]]:
    """Sequential stream of the kernel's access mix over ``lines`` lines."""
    for i in range(lines):
        addr = base + i
        for _ in range(kernel.reads_per_element):
            yield "read", addr
        for _ in range(kernel.writes_per_element):
            yield "write", addr


def run_kernel(
    package: ServerPackage,
    kernel: LmbenchKernel,
    clusters: Sequence[Tuple[int, int]],
    lines_per_core: int = 256,
    mlp: int = 8,
    max_cycles: int = 400_000,
) -> Dict[str, float]:
    """Run one kernel on the given (ccd, cluster) cores; report bandwidth.

    Returns achieved GB/s, GB/s per DDR channel, and elapsed cycles.
    Single-core runs measure how much of the package's DDR bandwidth one
    core can pull through the NoC (Figure 10's single-core panel);
    all-core runs measure aggregate utilization under full contention.
    """
    cores: List[Core] = []
    for idx, (ccd, cluster) in enumerate(clusters):
        stream = _kernel_stream(kernel, base=idx * 100_003, lines=lines_per_core)
        cores.append(package.attach_core(ccd, cluster, iter(stream),
                                         closed_loop(mlp=mlp), seed=idx))
    start = package._cycle
    package.run_until_cores_done(max_cycles=max_cycles)
    elapsed = package._cycle - start
    total_accesses = sum(c.stats.completed for c in cores)
    bytes_moved = total_accesses * CACHE_LINE_BYTES
    seconds = elapsed / NOC_FREQ_HZ
    gbps = bytes_moved / seconds / 1e9 if seconds > 0 else 0.0
    n_channels = sum(len(group) for group in package.placement.sns)
    return {
        "gbps": gbps,
        "gbps_per_channel": gbps / n_channels if n_channels else 0.0,
        "cycles": float(elapsed),
        "accesses": float(total_accesses),
    }


def run_lat_mem_rd(
    package: ServerPackage,
    ccd: int = 0,
    cluster: int = 0,
    samples: int = 64,
    working_set_lines: int = 1 << 16,
    seed: int = 17,
    max_cycles: int = 400_000,
    rng: Optional[Rng] = None,
) -> Dict[str, float]:
    """lat_mem_rd: dependent-load memory latency (LMBench's other half).

    One access in flight at a time over a pointer-chase-like random
    stream that defeats the caches — the per-access latency is the raw
    NoC + DDR round trip, reported in cycles and nanoseconds.  Pass
    ``rng`` to share a seeded stream with a caller; by default an
    isolated generator is derived from ``seed``.
    """
    if rng is None:
        rng = make_rng(seed)

    def chase() -> Iterator[Tuple[str, int]]:
        for _ in range(samples):
            yield "read", rng.randrange(working_set_lines)

    core = package.attach_core(ccd, cluster, chase(), closed_loop(mlp=1),
                               seed=seed)
    start = package._cycle
    package.run_until_cores_done(max_cycles=max_cycles)
    mean_cycles = core.stats.mean_latency()
    return {
        "cycles": mean_cycles,
        "ns": mean_cycles / NOC_FREQ_HZ * 1e9,
        "samples": float(core.stats.completed),
        "elapsed": float(package._cycle - start),
    }
