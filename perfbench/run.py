#!/usr/bin/env python3
"""qhevqa benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Workloads and metrics are defined in ``spec.py`` (the source of
``BENCHMARK.json``); the workloads themselves are in ``workloads.py``.

With ``--trace 0`` the timed region runs whole passes until they add up to
``--seconds`` and the end-to-end metrics are reported; nothing but the op
timer is wrapped in it. Set-up is timed before it and again after each
pass. A fixed calibration kernel (``calib.py``) samples the host's speed
in slices: one before and one after each set-up, and one every 0.1 s inside
the timed region, where the pass and op clocks leave the slices out. Each
pass, its ops and each set-up are divided by the host slowdown measured
around them; the unscaled times are printed beside them. Exact wire-byte
and gadget counts come from one more pass after it, untimed. With
``--trace 1`` every public package function is
wrapped (``tracer.py``) and a fixed number of passes runs twice each, once
with recording off and once on, in alternating order; the per-layer metrics
come from the recorded passes, whose outputs must equal the plain ones, and
the tracing overhead is the median of the paired differences.

The program is imported from ``src/`` of the checkout this file sits in.
Human-readable lines come first; the last line of standard output is the
JSON result. Full results, provenance and the span trace go to
``.bench_out/``.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_BEFORE = 6  # set-ups before the timed region; one more follows each pass


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (checkout is not a git repository)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    return loose.read_text().strip() if loose.is_file() else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(wl, seed: int) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "seed": seed,
        "inputs_sha256": wl.inputs_digest(),
        "transport": wl.transport,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "max_active_threads": wl.max_threads,
        "threads": wl.threads,
    }


def pin_to_one_cpu() -> None:
    """Confine this process (and the threads it will start) to one CPU.

    The client and server threads hand the interpreter lock back and forth
    on every message; spread over two CPUs each hand-off waits for a
    cross-CPU wake-up, which made loopback pass times vary by 15 % from run
    to run. On one CPU the same work is faster and steady. This acts on the
    benchmark's own process only.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError as exc:  # not permitted here: run unpinned, provenance shows it
        print(f"warning: could not pin to one CPU: {exc}", file=sys.stderr)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_passes(wl, oplog, seconds=None, count=None, start=0, between=None,
               clock=perf_counter) -> list[dict]:
    """Closed loop of whole passes from index ``start``, until the passes
    took ``seconds`` on ``clock`` or ``count`` ran. ``between()`` runs after
    each pass, outside the pass time. Each record keeps the pass's start and
    end on ``perf_counter`` too."""
    records = []
    spent = 0.0
    i = start
    while True:
        ops_before = len(oplog.seconds)
        w0, t0 = perf_counter(), clock()
        try:
            output, error = wl.run_pass(i), None
        except Exception:  # noqa: BLE001 - a failed pass is counted, not fatal
            output, error = None, traceback.format_exc(limit=3)
        records.append({"index": i, "seconds": clock() - t0, "span": (w0, perf_counter()),
                        "ops": len(oplog.seconds) - ops_before,
                        "output": output, "error": error})
        spent += records[-1]["seconds"]
        i += 1
        if between is not None:
            between()
        if count is not None:
            if i - start >= count:
                break
        elif spent >= seconds:
            break
    return records


def check_passes(wl, records, same_as=None) -> tuple[int, int]:
    """(attempted, failed) ops. Every op of a pass that raised or failed its
    check counts as failed; so does every op of a pass whose output differs
    from that of the same pass in ``same_as``."""
    attempted = failed = 0
    for k, rec in enumerate(records):
        ok = rec["error"] is None
        if ok:
            try:
                ok = bool(wl.check(rec["index"], rec["output"]))
            except Exception:  # noqa: BLE001 - a crashing check is a failure
                rec["error"] = traceback.format_exc(limit=3)
                ok = False
        if ok and same_as is not None:
            ok = same_as[k]["error"] is None and wl.same_output(
                same_as[k]["output"], rec["output"])
        rec["ok"] = ok
        ops = max(rec["ops"], 1)
        attempted += ops
        failed += 0 if ok else ops
    return attempted, failed


def _package_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "qhevqa" or n.startswith("qhevqa.")}


class SetupTimer:
    """Times the workload's set-up: ``SETUP_BEFORE`` times before the timed
    region, keeping the last workload, and then once after each pass on a
    throwaway workload, so the samples spread over the whole run. A
    calibration slice runs just before and just after each set-up, for the
    host slowdown over it."""

    def __init__(self, wl_cls, seed: int, sampler):
        self.wl_cls, self.seed, self.sampler = wl_cls, seed, sampler
        self.inputs = None
        self.times: list[float] = []
        self.spans: list[tuple[float, float]] = []

    def _timed(self):
        from workloads import Package

        wl = self.wl_cls(self.seed, OUT, self.inputs)
        self.inputs = wl.inputs
        gc.collect()  # the previous set-up's garbage is not this one's cost
        self.sampler.sample()
        t0 = perf_counter()
        wl.setup(Package())
        t1 = perf_counter()
        self.sampler.sample()
        self.times.append(t1 - t0)
        self.spans.append((t0, t1))
        return wl

    def first(self):
        wl = None
        for _ in range(SETUP_BEFORE):
            if wl is not None:
                wl.teardown()
            wl = self._timed()
        return wl

    def sample(self) -> None:
        """One more set-up, torn down at once. Set-up re-imports the package;
        the live workload's modules are put back afterwards."""
        live = _package_modules()
        self._timed().teardown()
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(live)


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def main(argv=None) -> int:
    from spec import RUN_SECONDS, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[n for n, _ in WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qhevqa" / "__init__.py").is_file():
        print(f"error: no qhevqa package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()  # before NumPy starts any thread
    import numpy  # noqa: F401 - the harness's own dependency, loaded before set-up

    from calib import Sampler
    from workloads import WORKLOADS as CLASSES, OpLog
    import qhevqa

    if Path(qhevqa.__file__).resolve().parent != SRC / "qhevqa":
        print(f"error: qhevqa imported from {qhevqa.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    setup = SetupTimer(CLASSES[args.workload], args.seed, Sampler())
    wl = setup.first()
    from tracer import Patcher

    ops_patch = Patcher()
    oplog = OpLog()
    wl.install_ops(ops_patch, oplog)
    result: dict = {"workload": wl.name, "seed": args.seed, "trace": args.trace}
    try:
        if args.trace:
            metrics, summary, attempted, failed, trace_dump = traced(wl, oplog)
        else:
            metrics, summary, attempted, failed = untraced(wl, oplog, args.seconds, setup)
            trace_dump = None
    finally:
        ops_patch.restore()
        wl.teardown()

    result["provenance"] = provenance(wl, args.seed)
    result["summary"] = summary
    result["metrics"] = metrics
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if trace_dump is not None:
        (OUT / f"trace-{stem}.json").write_text(json.dumps(trace_dump) + "\n")

    print(f"qhevqa bench: workload={wl.name} seed={args.seed} trace={args.trace}")
    for key, value in result["provenance"].items():
        print(f"  {key}: {value}")
    for line in summary["lines"]:
        print("  " + line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


def untraced(wl, oplog, seconds, setup):
    from calib import INTERVAL_S
    from spec import END_TO_END

    sampler = setup.sampler

    def between():  # set-up samples are timed with the slice timer off
        sampler.stop()
        setup.sample()
        sampler.start()

    oplog.clock = sampler.clock
    sampler.start()
    try:
        records = run_passes(wl, oplog, seconds=seconds, between=between,
                             clock=sampler.clock)
    finally:
        sampler.stop()
        oplog.clock = perf_counter
    lat_ms = [t * 1e3 for t in oplog.seconds] or [float("nan")]
    ops = len(oplog.seconds)
    pass_slowdowns = sampler.slowdowns([r["span"] for r in records])
    scaled_ms = [t / slow for t, slow in zip(lat_ms, sampler.slowdowns(oplog.spans))]
    scaled_ms = scaled_ms or lat_ms
    attempted, failed = check_passes(wl, records)
    counts, counted_ops, count_failed = count_pass(wl, oplog)
    attempted += max(counted_ops, 1) if wl.exact_counts else 0
    failed += count_failed
    unscaled = {
        "setup_s": statistics.median(setup.times),
        "run_s": statistics.median(r["seconds"] for r in records),
        "op_ms_p50": statistics.median(lat_ms),
    }
    setup_slowdowns = sampler.slowdowns(setup.spans)
    values = {
        "setup_s": statistics.median(t / s for t, s in zip(setup.times, setup_slowdowns)),
        "run_s": statistics.median(r["seconds"] / s for r, s in zip(records, pass_slowdowns)),
        "op_ms_p50": statistics.median(scaled_ms),
        "peak_rss_mb": peak_rss_mb(),
    }
    units = {n: u for n, u, _, _ in END_TO_END}
    in_passes = len(sampler.slices) - 2 * len(setup.times)
    lines = [
        f"host slowdown: passes median {statistics.median(pass_slowdowns):.4f} "
        f"({in_passes} calibration slices, every {INTERVAL_S} s), set-ups median "
        f"{statistics.median(setup_slowdowns):.4f}; times below are over it, "
        "unscaled in brackets",
        f"setup_s      {values['setup_s']:.4f} s   (median of {len(setup.times)} set-ups; "
        f"{unscaled['setup_s']:.4f} s)",
        f"run_s        {values['run_s']:.4f} s   (median of {len(records)} passes; "
        f"{unscaled['run_s']:.4f} s)",
        f"op_ms_p50    {values['op_ms_p50']:.4f} ms  (n={ops} ops; "
        f"{unscaled['op_ms_p50']:.4f} ms)",
    ]
    if ops >= 100:
        lines.append(f"op_ms_p90    {percentile(scaled_ms, 0.9):.4f} ms  (n={ops} ops)")
    lines.append(f"peak_rss_mb  {values['peak_rss_mb']:.1f} MB")
    lines.append(f"fail_frac    {failed / attempted:.4g}  ({failed}/{attempted} ops)")
    per_op = max(counted_ops, 1)
    if "wire_bytes" in counts:
        lines.append(f"wire_bytes_per_op  {counts['wire_bytes'] / per_op:.1f} B  "
                     f"(framed, both directions, exact, n={counted_ops} ops of an untimed pass)")
    if "gadgets" in counts:
        lines.append(f"gadgets_per_op     {counts['gadgets'] / per_op:.1f}  "
                     f"(exact, n={counted_ops} ops of an untimed pass)")
    for rec in records:
        if rec["error"]:
            lines.append(f"pass {rec['index']} raised: {rec['error'].strip().splitlines()[-1]}")
        elif not rec["ok"]:
            lines.append(f"pass {rec['index']} failed its check")
    if count_failed:
        lines.append("the untimed counting pass failed its check or raised")
    summary = {
        "lines": lines,
        "passes": len(records),
        "ops": ops,
        "op_ms_p90": percentile(scaled_ms, 0.9) if ops >= 100 else None,
        "fail_frac": failed / attempted,
        "pass_seconds": [r["seconds"] for r in records],
        "setup_times_s": setup.times,
        "unscaled": unscaled,
        "pass_slowdowns": pass_slowdowns,
        "setup_slowdowns": setup_slowdowns,
        "calibration_slices": len(sampler.slices),
        "exact_counts": counts,
        "exact_counts_ops": counted_ops,
    }
    return {n: (values[n], units[n]) for n in values}, summary, attempted, failed


def count_pass(wl, oplog) -> tuple[dict, int, int]:
    """Exact wire bytes and gadgets of pass 0, run once more from the state
    right after set-up, outside the timed region; (counts, ops, failed ops)."""
    from tracer import Tracer

    if not wl.exact_counts:
        return {}, 0, 0
    counter = Tracer()
    m = wl.m
    if "wire_bytes" in wl.exact_counts:
        counter.patcher.function(m.protocol, "encode_message", counter.counting(
            after=lambda t, a, r: t.count("wire_bytes", len(r))))
    if "gadgets" in wl.exact_counts:
        counter.patcher.function(m.rsp_gadget, "consume_gadget", counter.counting(
            before=lambda t, a: t.count("gadgets")))
    wl.restart()
    ops_before = len(oplog.seconds)
    counter.enabled = True
    try:
        records = run_passes(wl, oplog, count=1)
    finally:
        counter.enabled = False
        counter.patcher.restore()
    del oplog.seconds[ops_before:]  # not part of the latency sample
    del oplog.spans[ops_before:]
    _, failed = check_passes(wl, records)
    counts = {k: counter.counters().get(k, 0) for k in wl.exact_counts}
    return counts, records[0]["ops"], failed


def traced(wl, oplog):
    import layers
    from spec import per_layer
    from tracer import Tracer

    count = wl.trace_passes
    tracer = Tracer()
    layers.install(tracer, wl.m, wl)
    plain, recorded = [], []
    try:
        tracer.enabled = True
        wl.rebuild_caches()  # so the trace sees cached set-up work once
        tracer.enabled = False
        # Pass k runs twice from the same state, recording off and on; the
        # order alternates, so neither side always runs first.
        for k in range(count):
            for record in ((False, True) if k % 2 == 0 else (True, False)):
                wl.restart()
                tracer.enabled = record
                (recorded if record else plain).extend(run_passes(wl, oplog, count=1, start=k))
                tracer.enabled = False
        keys = wl.key_ciphertexts()  # final keys, measured outside any op
    finally:
        tracer.enabled = False
        tracer.patcher.restore()
    attempted, failed = check_passes(wl, plain)
    recorded_attempted, recorded_failed = check_passes(wl, recorded, same_as=plain)
    ops = sum(r["ops"] for r in recorded)
    diffs = [t["seconds"] - p["seconds"] for p, t in zip(plain, recorded)]
    overhead_s = statistics.median(diffs)
    overhead_pct = 100 * overhead_s / statistics.median(r["seconds"] for r in plain)
    values = layers.metrics(tracer, max(ops, 1), keys, (overhead_s, overhead_pct))
    units = dict(per_layer())
    lines = [f"{count} passes ({ops} ops) each run untraced and traced; "
             f"{recorded_failed} traced ops failed or differ from the untraced ones",
             f"tracing overhead {overhead_s:.4f} s per pass, {overhead_pct:.2f} % "
             f"(median of {len(diffs)} paired differences, traced minus untraced)"]
    lines += [f"{n} = {v:.6g} {units[n]}" for n, v in values.items() if v]
    summary = {"lines": lines, "passes": count, "ops": ops,
               "plain_pass_seconds": [r["seconds"] for r in plain],
               "traced_pass_seconds": [r["seconds"] for r in recorded]}
    return ({n: (v, units[n]) for n, v in values.items()}, summary,
            attempted + recorded_attempted, failed + recorded_failed,
            {**tracer.dump(), "counters_total": tracer.counters()})


if __name__ == "__main__":
    sys.exit(main())
