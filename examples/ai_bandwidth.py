#!/usr/bin/env python3
"""AI-Processor scenario: NoC bandwidth and equilibrium.

Builds the multi-ring mesh of Figure 8(B) — AI cores on vertical rings,
interleaved L2/LLC/HBM/DMA on horizontal rings — streams a 1:1
read/write mix, and reports the Table 7-style bandwidth columns plus the
Figure 14 equilibrium statistic.

Run:  python examples/ai_bandwidth.py  [--cycles N]
"""

import argparse

from repro.ai import REDUCED_AI_SIZING, AiProcessor, AiProcessorConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cycles", type=int, default=1500,
                        help="simulation length (default 1500)")
    parser.add_argument("--read-fraction", type=float, default=0.5,
                        help="read share of core traffic (default 0.5)")
    args = parser.parse_args()

    config = AiProcessorConfig(
        read_fraction=args.read_fraction, **REDUCED_AI_SIZING)
    processor = AiProcessor(config, probe_window=256)
    print(f"AI processor: {config.n_cores} cores on {config.n_vrings} "
          f"vertical rings x {config.n_hrings} memory rings, "
          f"{config.n_hbm} HBM stacks")
    processor.run(args.cycles)

    report = processor.bandwidth_report()
    print(f"\nbandwidth over {args.cycles} cycles at 3 GHz:")
    for key in ("total", "read", "write", "dma"):
        print(f"  {key:6s} {report[key]:6.2f} TB/s")

    processor.core_probes.finalize()
    frac = processor.core_probes.equilibrium_fraction(threshold=0.8)
    print(f"\nequilibrium: {frac * 100:.0f}% of per-core probe windows "
          "reach >= 80% of the window maximum (Figure 14)")
    print(f"fabric deflections: {processor.fabric.stats.deflections}, "
          f"swap events: {processor.fabric.stats.swap_events}")


if __name__ == "__main__":
    main()
