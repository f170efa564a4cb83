"""Message conservation on every server fabric, checked every cycle.

After each cycle of a Fig 11-style run, every accepted message is either
delivered, dropped, or counted in ``occupancy()``; ``messages_in_flight()``
lists exactly that many messages, each once.  The baselines are the
denominator of every comparison figure, so they are held to the same
bookkeeping as the multi-ring fabric.
"""

import pytest

from repro.cpu import ServerPackage, ServerPackageConfig, closed_loop, open_loop
from repro.cpu.core import read_write_mix, uniform_stream
from repro.cpu.package import FABRIC_KINDS

SMALL = ServerPackageConfig(clusters_per_ccd=4, hn_per_ccd=2, ddr_per_ccd=2)
CYCLES = 2000


@pytest.mark.parametrize("fabric_kind", FABRIC_KINDS)
def test_conservation_every_cycle(fabric_kind):
    package = ServerPackage(SMALL, fabric_kind=fabric_kind)
    idx = 0
    for ccd in range(SMALL.n_ccds):
        for cluster in range(SMALL.clusters_per_ccd):
            if (ccd, cluster) == (0, 0):
                continue
            stream = uniform_stream(read_write_mix(0.5), 1 << 16,
                                    seed=100 + idx)
            package.attach_core(ccd, cluster, stream, open_loop(rate=0.35),
                                seed=idx)
            idx += 1
    package.attach_core(0, 0, uniform_stream(read_write_mix(1.0), 1 << 16,
                                             seed=7, count=48),
                        closed_loop(mlp=1))
    fabric = package.fabric
    stats = fabric.stats
    peak = 0
    for _ in range(CYCLES):
        package.step(package._cycle)
        occupancy = fabric.occupancy()
        assert stats.accepted == stats.delivered + stats.dropped + occupancy, (
            package._cycle, stats.accepted, stats.delivered, occupancy)
        in_flight = fabric.messages_in_flight()
        assert len(in_flight) == occupancy, package._cycle
        assert len({msg.msg_id for msg in in_flight}) == occupancy, (
            f"duplicated message at cycle {package._cycle}")
        peak = max(peak, occupancy)
    assert stats.delivered > 0
    assert peak > 0
