#!/usr/bin/env python3
"""Self-test of the benchmark's determinism.

    python3 perfbench/selftest.py [--seed N]

1. Each workload generates identical inputs for the same seed argument, and
   different inputs for a different one.
2. Two traced runs with the same seed report identical exact counts: call
   counts, frames and bytes per message kind, wire bytes per op, gadgets per
   op, the RSP accept ratio and key-ciphertext sizes. Both runs must also be
   correct, which includes the traced passes reproducing the untraced
   outputs byte for byte.
3. Two untraced one-pass runs with the same seed report identical
   ``wire_bytes_per_op`` and ``gadgets_per_op`` counts, and are correct.

Exits non-zero if any check fails.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spec import per_layer  # noqa: E402
from sweep import run_once  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Per-layer metrics that are counts of work, not times: they must repeat.
EXACT = [n for n, unit in per_layer() if unit in ("count", "B", "ratio")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    failures = []
    for name, cls in WORKLOADS.items():
        # Constructing a workload only draws its inputs; nothing is written.
        a, b, c = (cls(s, HERE.parent / ".bench_out").inputs_digest()
                   for s in (args.seed, args.seed, args.seed + 1))
        print(f"inputs  {name:18s} same seed equal: {a == b}, "
              f"other seed differs: {a != c}")
        if not (a == b and a != c):
            failures.append(f"{name}: inputs not a function of the seed")
    for name in WORKLOADS:
        first, second = (run_once(name, args.seed, 1, 0) for _ in range(2))
        for res in (first, second):
            if not res["correct"]:
                failures.append(f"{name}: traced run not correct")
        differ = [m for m in EXACT
                  if first["metrics"][m]["value"] != second["metrics"][m]["value"]]
        nonzero = sum(1 for m in EXACT if first["metrics"][m]["value"])
        print(f"counts  {name:18s} {nonzero} non-zero exact counts, "
              f"{len(differ)} differ between runs {differ[:5]}")
        if differ:
            failures.append(f"{name}: counts differ: {differ}")
    for name, cls in WORKLOADS.items():
        if not cls.exact_counts:
            continue
        first, second = (run_once(name, args.seed, 0, 0) for _ in range(2))
        for res in (first, second):
            if not res["correct"]:
                failures.append(f"{name}: untraced run not correct")
        same = first["exact_counts"] == second["exact_counts"]
        print(f"counts  {name:18s} untraced {first['exact_counts']}, "
              f"equal between runs: {same}")
        if not same:
            failures.append(f"{name}: untraced exact counts differ")
    for line in failures:
        print("FAIL", line)
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
