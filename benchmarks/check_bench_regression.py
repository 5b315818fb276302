#!/usr/bin/env python
"""Compare a fresh BENCH_*.json against the committed baseline.

Usage: check_bench_regression.py BASELINE FRESH [--factor 2.0]

Fails (exit 1) if, for any cell present in both files:

* the fresh run's digest differs from the baseline's (the simulation's
  behaviour changed; an intended change re-pins the committed cell), or
* the fresh wall time exceeds ``factor`` x the baseline's (a kernel
  performance regression).

Cells only in one file are reported but don't fail the check -- CI runs
a downsized subset of the committed full-scale cells.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", type=Path)
    parser.add_argument("fresh", type=Path)
    parser.add_argument("--factor", type=float, default=2.0,
                        help="allowed slowdown vs baseline (default 2.0)")
    args = parser.parse_args(argv)

    baseline = json.loads(args.baseline.read_text())["cells"]
    fresh = json.loads(args.fresh.read_text())["cells"]

    failures = []
    for name, cell in sorted(fresh.items()):
        base = baseline.get(name)
        if base is None:
            print(f"{name}: no baseline cell; skipping checks")
            continue
        if cell["digest"] != base["digest"]:
            failures.append(
                f"{name}: digest {cell['digest']} != baseline "
                f"{base['digest']}")
        fresh_s = cell["optimized_wall_s"]
        limit = args.factor * base["optimized_wall_s"]
        verdict = "OK" if fresh_s <= limit else "REGRESSION"
        print(f"{name}: wall {fresh_s:.2f}s "
              f"(baseline {base['optimized_wall_s']:.2f}s, "
              f"limit {limit:.2f}s) {verdict}")
        if fresh_s > limit:
            failures.append(
                f"{name}: {fresh_s:.2f}s > {args.factor:.1f}x baseline "
                f"({base['optimized_wall_s']:.2f}s)")
    for name in sorted(set(baseline) - set(fresh)):
        print(f"{name}: in baseline only; not re-measured")

    if failures:
        print("\nFAIL:\n  " + "\n  ".join(failures))
        return 1
    print("\nbenchmark check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
