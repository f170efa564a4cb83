"""The benchmark's operations: one paper simulation point each.

An operation builds a fresh system through the public API, simulates it,
reads its results, and afterwards checks invariants and hashes the
simulated outputs into a fingerprint.  Construction, simulation and the
result read are what :mod:`run` times; checking and hashing are not.

Simulation parameters come from the paper harness (``benchmarks/``):
``common.py`` for the system sizing, and the Table 7, Fig 11 and Table 5
modules for row definitions, probe sizing, deadlines, paper values and
the Table 5 state-preparation routine.  Only the random inputs (program
seeds, Table 5 line addresses) are generated here, from the workload
seed.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterator, List, Optional, Tuple

from repro.ai import AiProcessor, AiProcessorConfig
from repro.cpu import ServerPackage, closed_loop, open_loop
from repro.cpu.core import read_write_mix, uniform_stream
from repro.params import LATENCY
from repro.sim.rng import make_rng, split_rng
# Rings in the default "auto" engine mode import the dense tier (and
# numpy) on their first high-occupancy check, which only some seeds
# reach.  Importing it up front makes that cost part of the import for
# every seed, instead of part of whichever operation crosses the
# threshold.
import repro.perf.dense  # noqa: F401

import bench_fig11_competition as fig11
import bench_table5_latency as table5
import bench_table7_ai_bandwidth as table7
from common import AI_BENCH_CYCLES, BENCH_AI_KWARGS, BENCH_SERVER_CONFIG

#: Harness tolerance on a mixed Table 7 row's achieved read share.
READ_SHARE_TOLERANCE = 0.12
#: Cycles allowed for a server system to drain after its measurement.
QUIESCE_CYCLES = 200_000
#: Cycles per simulation chunk where the operation controls the loop.
CHUNK_CYCLES = 100
#: Table 5 line addresses are drawn from this many lines.
TABLE5_ADDR_SPACE = 1 << 14


class Operation:
    """One simulation point; subclasses fill in the four phases."""

    name = ""
    system = None
    fabric_kind = "multiring"
    #: Simulated cycles, set by :meth:`simulate`.
    cycles = 0

    def build(self) -> None:
        """Construct the system (the timed set-up)."""
        raise NotImplementedError

    def simulate(self) -> Iterator[None]:
        """Run the simulation, yielding between chunks of cycles.

        The runner samples host speed at each yield, outside the timing,
        so chunks should take well under a second.
        """
        raise NotImplementedError

    def read(self) -> Dict:
        """Read the operation's results (the last timed step)."""
        raise NotImplementedError

    def verify(self, result: Dict) -> List[str]:
        """Invariant misses after the timed region (may step further)."""
        raise NotImplementedError

    def paper_cells(self, result: Dict) -> List[Tuple[float, float]]:
        """(ours, paper) pairs for the numeric paper cells reproduced."""
        return []

    @property
    def fabric(self):
        return self.system.fabric

    def fingerprint(self, result: Dict) -> str:
        """SHA-256 over every simulated output of the operation."""
        stats = self.fabric.stats
        parts = [
            self.name,
            repr(sorted(result.items())),
            repr((stats.accepted, stats.rejected, stats.injected,
                  stats.delivered, stats.deflections, stats.itags_placed,
                  stats.etags_placed, stats.swap_events, stats.dropped,
                  stats.link_stall_cycles, stats.delivered_bytes)),
            repr(sorted(stats.per_dst_delivered.items())),
        ]
        # Message ids come from a process-wide counter, so they are left
        # out; the ordered timing tuples identify each delivery.
        parts.extend(
            f"{s.src},{s.dst},{s.created_cycle},{s.injected_cycle},"
            f"{s.delivered_cycle},{s.deflections}" for s in stats.samples)
        parts.extend(self._agent_stats())
        digest = hashlib.sha256()
        for part in parts:
            digest.update(part.encode())
            digest.update(b"\n")
        return digest.hexdigest()

    def _agent_stats(self) -> List[str]:
        return []

    def counters(self) -> Dict[str, int]:
        """Modelled-work counters the traced run reports."""
        stats = self.fabric.stats
        return {"accepted": stats.accepted, "rejected": stats.rejected,
                "delivered": stats.delivered,
                "deflections": stats.deflections,
                "itags_placed": stats.itags_placed,
                "etags_placed": stats.etags_placed,
                "swap_events": stats.swap_events}

    def conservation(self) -> List[str]:
        """Accepted messages are delivered, dropped, or still inside."""
        stats = self.fabric.stats
        inside = self.fabric.occupancy()
        if stats.accepted != stats.delivered + stats.dropped + inside:
            return [f"conservation: accepted {stats.accepted} != delivered "
                    f"{stats.delivered} + dropped {stats.dropped} + "
                    f"in network {inside}"]
        return []


def _derived_seeds(seed: int, salt: int, count: int) -> List[int]:
    rng = split_rng(make_rng(seed), salt)
    return [rng.randrange(1 << 30) for _ in range(count)]


# -- Table 7: AI-NoC bandwidth ------------------------------------------------


class Table7Row(Operation):
    """One Table 7 row on the AI processor, for AI_BENCH_CYCLES cycles."""

    def __init__(self, row: str, seed: int):
        self.name = row
        self.paper = {name: (rf, paper) for name, rf, paper in table7.ROWS}[row]
        self.read_fraction = self.paper[0]
        self.seed = seed

    def build(self) -> None:
        config = AiProcessorConfig(read_fraction=self.read_fraction,
                                   **BENCH_AI_KWARGS)
        self.system = AiProcessor(config, seed=self.seed)

    def simulate(self) -> Iterator[None]:
        while self.cycles < AI_BENCH_CYCLES:
            self.cycles = self.system.run(
                min(CHUNK_CYCLES, AI_BENCH_CYCLES - self.cycles))
            yield

    def read(self) -> Dict:
        return self.system.bandwidth_report()

    def verify(self, result: Dict) -> List[str]:
        problems = self.conservation()
        r, w = result["read"], result["write"]
        if r + w <= 0:
            problems.append("no core traffic completed")
        elif 0 < self.read_fraction < 1:
            share = r / (r + w)
            if abs(share - self.read_fraction) >= READ_SHARE_TOLERANCE:
                problems.append(f"read share {share:.3f} outside "
                                f"{self.read_fraction}±{READ_SHARE_TOLERANCE}")
        elif (w if self.read_fraction == 1.0 else r) != 0:
            problems.append(f"pure row moved read {r} and write {w}")
        return problems

    def paper_cells(self, result: Dict) -> List[Tuple[float, float]]:
        total, read, write, dma = self.paper[1]
        cells = [(result["total"], total), (result["dma"], dma)]
        cells += [(result[k], v) for k, v in (("read", read), ("write", write))
                  if v]
        return cells

    def _agent_stats(self) -> List[str]:
        out = []
        for core in self.system.cores:
            s = core.stats
            out.append(repr((s.reads_issued, s.writes_issued, s.reads_done,
                             s.writes_done, s.read_bytes, s.write_bytes)))
        out.extend(repr(d.bytes_moved) for d in self.system.dmas)
        return out


# -- shared server plumbing ---------------------------------------------------


class ServerOperation(Operation):
    """An operation on the 48-core server package."""

    def build_package(self) -> ServerPackage:
        return ServerPackage(BENCH_SERVER_CONFIG, fabric_kind=self.fabric_kind)

    def quiesce_and_check(self) -> List[str]:
        """Stop every stream, drain, and run the coherence checker."""
        problems = self.conservation()
        for core in self.system.cores:
            core.stream = iter(())
        try:
            self.system.run_until_cores_done(max_cycles=QUIESCE_CYCLES)
        except RuntimeError as exc:
            return problems + [f"quiesce: {exc}"]
        if self.fabric.stats.in_flight != 0:
            problems.append(f"{self.fabric.stats.in_flight} messages in "
                            f"flight after quiesce")
        try:
            self.system.system.check_coherence()
        except AssertionError as exc:
            problems.append(f"coherence: {exc}")
        return problems

    def counters(self) -> Dict[str, int]:
        counters = super().counters()
        counters["ops_issued"] = sum(c.stats.issued for c in self.system.cores)
        counters["ops_dropped"] = sum(c.stats.dropped
                                      for c in self.system.cores)
        return counters

    def _agent_stats(self) -> List[str]:
        return [repr((c.name, c.stats.issued, c.stats.completed,
                      c.stats.dropped, c.stats.latencies))
                for c in self.system.cores]


# -- Figure 11: DDR latency under background load -----------------------------


class Fig11Point(ServerOperation):
    """Closed-loop DDR probe against open-loop mixed NoSnp noise.

    Each point of a pass draws its own streams (``index``): how long the
    probe takes varies with the streams, and independent draws average
    that out over the pass.
    """

    NOISE_READ_FRACTION = fig11.NOISE_MIXES["mixed"]

    def __init__(self, fabric_kind: str, rate: float, seed: int, index: int):
        self.name = f"{fabric_kind}@{rate}"
        self.fabric_kind = fabric_kind
        self.rate = rate
        n_noise = BENCH_SERVER_CONFIG.total_clusters - 1
        seeds = _derived_seeds(seed, 1100 + index, 2 * n_noise + 1)
        self.stream_seeds = seeds[:n_noise]
        self.core_seeds = seeds[n_noise:2 * n_noise]
        self.probe_seed = seeds[-1]
        self.probe = None
        self.cycles = 0

    def build(self) -> None:
        package = self.system = self.build_package()
        idx = 0
        for ccd in range(package.config.n_ccds):
            for cluster in range(package.config.clusters_per_ccd):
                if (ccd, cluster) == (0, 0):
                    continue
                stream = uniform_stream(
                    read_write_mix(self.NOISE_READ_FRACTION), 1 << 16,
                    seed=self.stream_seeds[idx])
                package.attach_core(ccd, cluster, stream,
                                    open_loop(rate=self.rate),
                                    seed=self.core_seeds[idx])
                idx += 1
        self.probe = package.attach_core(
            0, 0,
            uniform_stream(read_write_mix(1.0), 1 << 16, seed=self.probe_seed,
                           count=fig11.PROBE_OPS),
            closed_loop(mlp=1),
        )

    def simulate(self) -> Iterator[None]:
        package, probe = self.system, self.probe
        for cycle in range(fig11.RUN_LIMIT):
            package.step(cycle)
            self.cycles = cycle + 1
            if probe.done and probe.idle:
                break
            if self.cycles % CHUNK_CYCLES == 0:
                yield

    def read(self) -> Dict:
        return {"probe_mean_latency": self.probe.stats.mean_latency(),
                "probe_samples": len(self.probe.stats.latencies)}

    def verify(self, result: Dict) -> List[str]:
        problems = []
        if not (self.probe.done and self.probe.idle):
            problems.append(f"probe unfinished at the {fig11.RUN_LIMIT}-cycle "
                            f"deadline")
        if result["probe_samples"] != fig11.PROBE_OPS:
            problems.append(f"probe took {result['probe_samples']} of "
                            f"{fig11.PROBE_OPS} samples")
        return problems + self.quiesce_and_check()


# -- Table 5: coherent access latency by cache state ---------------------------


#: The Table 5 cells: (fabric kind, reader's compute die, line state).
TABLE5_CELLS = [
    (fabric, ccd, state)
    for fabric in ("multiring", "mesh", "switched_star")
    for ccd in (0, 1)
    for state in ("M", "E", "S")
]


def table5_paper_value(fabric: str, ccd: int, state: str) -> Optional[float]:
    """The paper's cell for this measurement, in cycles, if it has one."""
    scope = ("intra", "inter")[ccd]
    if fabric == "multiring":
        return table5.PAPER[(scope, state)]
    vendor = {"mesh": "intel", "switched_star": "amd"}[fabric]
    return table5.PAPER_BASELINES.get((vendor, scope, state))


class Table5Cell(ServerOperation):
    """Prepare lines in one state, then read them one at a time."""

    def __init__(self, fabric_kind: str, reader_ccd: int, state: str,
                 seed: int):
        self.name = f"{fabric_kind}/{('intra', 'inter')[reader_ccd]}/{state}"
        self.fabric_kind = fabric_kind
        self.reader_ccd = reader_ccd
        self.state = state
        self.addr_seed = _derived_seeds(seed, 5, 1)[0]
        self.reader = None

    def _pick_lines(self) -> List[int]:
        """Random lines homed on CCD0, at most ``cache_ways`` per set.

        Homes stay on CCD0 so intra and inter differ only in the reader's
        placement, as in the harness; capping lines per set keeps every
        prepared line resident in the writer's L3 slice.
        """
        package = self.system
        homes = set(package.placement.hns[0])
        sets, ways = BENCH_SERVER_CONFIG.cache_sets, BENCH_SERVER_CONFIG.cache_ways
        rng = make_rng(self.addr_seed)
        per_set: Dict[int, int] = {}
        lines: List[int] = []
        for addr in rng.sample(range(TABLE5_ADDR_SPACE), TABLE5_ADDR_SPACE):
            if package.system.home_map(addr) not in homes:
                continue
            used = per_set.get(addr % sets, 0)
            if used >= ways:
                continue
            per_set[addr % sets] = used + 1
            lines.append(addr)
            if len(lines) == table5.LINES:
                return sorted(lines)
        raise RuntimeError("not enough Table 5 line addresses")

    def build(self) -> None:
        self.system = self.build_package()
        self.lines = self._pick_lines()

    def simulate(self) -> Iterator[None]:
        # One chunk: the harness routines run to completion on their own.
        package = self.system
        table5._prepare_state(package, self.state, self.lines)
        self.reader = package.attach_core(
            self.reader_ccd, 1, iter([("load", a) for a in self.lines]),
            closed_loop(mlp=1))
        self.cycles = package.run_until_cores_done()
        yield

    def read(self) -> Dict:
        latency = self.reader.stats.mean_latency()
        if self.fabric_kind == "mesh" and self.reader_ccd == 1:
            # The Intel column's inter-chiplet figure is a cross-socket
            # access: mesh latency plus a UPI-class SerDes crossing.
            latency += LATENCY.serdes_link
        return {"mean_latency": latency,
                "samples": len(self.reader.stats.latencies)}

    def verify(self, result: Dict) -> List[str]:
        problems = []
        if result["samples"] != table5.LINES:
            problems.append(f"reader took {result['samples']} of "
                            f"{table5.LINES} samples")
        return problems + self.quiesce_and_check()

    def paper_cells(self, result: Dict) -> List[Tuple[float, float]]:
        paper = table5_paper_value(self.fabric_kind, self.reader_ccd,
                                   self.state)
        return [] if paper is None else [(result["mean_latency"], paper)]


# -- workloads -----------------------------------------------------------------

#: Table 7 rows run by ``ai_table7``: one mixed, one pure.
AI_ROWS = ("1:1", "0:1")
#: Fig 11 background rates run by ``server_fig11``: at and past the knee.
FIG11_RATES = (0.2, 0.35)
FIG11_FABRICS = ("multiring", "mesh")


def make_pass(workload: str, seed: int) -> Iterator[Operation]:
    """The workload's operations for one pass, each made when needed so
    that no finished operation keeps its system alive."""
    if workload == "ai_table7":
        seeds = _derived_seeds(seed, 7, len(AI_ROWS))
        for row, row_seed in zip(AI_ROWS, seeds):
            yield Table7Row(row, row_seed)
    elif workload == "server_fig11":
        points = [(fabric, rate) for rate in FIG11_RATES
                  for fabric in FIG11_FABRICS]
        for index, (fabric, rate) in enumerate(points):
            yield Fig11Point(fabric, rate, seed, index)
    elif workload == "server_table5":
        for fabric, ccd, state in TABLE5_CELLS:
            yield Table5Cell(fabric, ccd, state, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("ai_table7", "server_fig11", "server_table5")
