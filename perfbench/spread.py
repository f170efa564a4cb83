"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload ai_table7 --seeds 0-9 --seconds 30

Runs ``perfbench/run.py`` once per seed, one after another, and prints
each metric's median and its quartile spread (Q3 - Q1) as a share of the
median, beside the metric's bound from ``BENCHMARK.json``, and the same
for the raw host-second values the run prints before its result.  Exits 1 when
a run fails or a spread other than ``setup_s``'s exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    ok = True
    for seed in seed_list(args.seeds):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        info = json.loads(lines[-2]) if len(lines) > 1 else {}
        ok &= done.returncode == 0 and result["correct"]
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        for name, value in info.get("raw", {}).items():
            values.setdefault("raw " + name, []).append(value)

    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound:
            flag, ok = "  OVER BOUND", False
        print(f"{name:34s} median {med:14.6g}  spread {spread:7.2%}"
              + (f"  bound {bound:.0%}" if bound is not None else "") + flag)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
