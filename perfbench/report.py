"""Run every workload once and print all metrics, by name and with units.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each workload runs in its own
``run.py`` process, one after the other.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("trees", "forests", "cli", "oracle")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    status = 0
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{w}: run failed (exit {proc.returncode})\n{proc.stderr}")
            status = 1
            continue
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        detail = json.loads(next(x for x in lines if x.startswith("detail "))[7:])
        print(f"== {w} (seed {args.seed}, trace {args.trace}): correct "
              f"{result['correct']}, {result['failed']} of {result['attempted']} failed")
        for name, m in result["metrics"].items():
            print(f"  {name:38s} {m['value']!s:>24} {m['unit']}")
        extras = {k: v for k, v in detail.items()
                  if k.startswith("reach_") or k in ("failed_frac", "similar_tree_share")}
        for name, value in sorted(extras.items()):
            unit = "degree" if name.startswith("reach_") else "ratio"
            print(f"  {name:38s} {value!s:>24} {unit}")
        if "latency_tail" in detail:
            t = detail["latency_tail"]
            print(f"  latency_s.tail is p{t['percentile']}: {t['samples_beyond']}"
                  f" of {t['samples']} samples beyond it")
        print(f"  machine {json.dumps(detail['machine'], sort_keys=True)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
