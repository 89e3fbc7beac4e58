#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py [--workloads a,b] [--seeds 1-10] [--trace 0|1] [--out FILE]

Each run is its own process, one at a time. For every metric this prints
the median and the quartile spread (Q3 - Q1) / median over the runs, using
``statistics.quantiles(values, n=4)``, next to the metric's bound from
spec.py. ``--out`` saves every run's result line and the summary as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spec import END_TO_END, RUN_SECONDS, WORKLOADS  # noqa: E402


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, trace: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    full = HERE.parent / ".bench_out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    saved = json.loads(full.read_text())
    result["provenance"] = saved["provenance"]
    result["exact_counts"] = saved["summary"].get("exact_counts")
    return result


def quartiles(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(n for n, _ in WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {n: b for n, _, _, b in END_TO_END}
    report: dict = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            res = run_once(workload, seed, args.trace, args.seconds)
            runs.append({"seed": seed, **res})
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} " + " ".join(
                      f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()
                      if k in bounds or args.trace), flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            if len(values) >= 2 and any(values):
                summary[name] = {**quartiles(values), "bound": bounds.get(name)}
        report[workload] = {"runs": runs, "summary": summary}
        for name, row in summary.items():
            if row["bound"] is not None:
                flag = "ok" if row["spread"] < row["bound"] / 3 else "WIDE"
                print(f"  {workload:18s} {name:12s} median {row['median']:.5g}  "
                      f"spread {row['spread']:.4f}  bound {row['bound']}  {flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
