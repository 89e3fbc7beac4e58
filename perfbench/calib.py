"""Host-speed calibration for the bounded time metrics.

The benchmark was tuned on a 2-vCPU share of a host whose speed, as seen by
a fixed piece of CPU work, wanders by about 20 % (coefficient of variation)
from one tenth of a second to the next, and drifts by 20-40 % between
minutes, with the neighbours' load. The two vCPUs wander largely apart
(correlation 0.35 over 1 s windows), and CPU time wanders with wall time, so
neither a second CPU nor CPU time gives a steady clock. A wall time taken on
such a host says as much about the neighbours as about the program.

So the benchmark samples the host's speed in the same process, on the same
CPU, at the same moments as the program runs. A fixed kernel slice of about
8 ms that uses no package code does the three kinds of work the package
does: pure-Python objects and integers, small complex NumPy products, and
SHA-256 folded into big integers. During the timed region a ``SIGALRM``
handler runs one slice every ``INTERVAL_S`` of wall time; the program's
clock (``Sampler.clock``) leaves the slices out, so passes and ops are timed
without them. Around each set-up one slice runs before and one after.

The slowdown over a pass, an op or a set-up is the mean time of the slices
run during it, or if none ran, of the slice just before it and the one just
after, divided by ``REFERENCE_S``, the slice's time on the reference
machine. Each bounded
time metric is built from the measured times divided by these slowdowns:
seconds at the reference machine's speed. The unscaled times are printed
and saved beside them. Slices are timed in CPU time of the main thread (see
``kernel_slice``).

    python3 perfbench/calib.py [--runs N]   # slice times on this machine
"""
from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import signal
import statistics
from time import perf_counter, thread_time

import numpy as np

# The slice's time on the reference machine, an "Intel(R) Xeon(R) Processor"
# 2-vCPU VM with Python 3.11 and NumPy 2.4, where ``python3 perfbench/calib.py``
# gave medians of 7-10 ms as the host's speed wandered. Only a scale: the
# calibrated times are seconds at a speed where the slice takes this long.
REFERENCE_S = 0.008
INTERVAL_S = 0.1  # wall time between slices in the timed region

_A = (np.arange(64).reshape(8, 8) % 7 + 1j * (np.arange(64).reshape(8, 8) % 5)) / 8
_B = _A[:2, :2].copy()


class _Node:
    __slots__ = ("value", "left", "right")

    def __init__(self, value, left, right):
        self.value = value
        self.left = left
        self.right = right


def _objects(n: int) -> int:
    """Build and walk a small object DAG with dict and integer work."""
    nodes = [_Node(i, None, None) for i in range(64)]
    index: dict[int, _Node] = {}
    acc = 0
    for i in range(n):
        node = _Node(i, nodes[i & 63], nodes[(i * 7) & 63])
        nodes[i & 63] = node
        index[i & 1023] = node
        acc = (acc * 31 + node.left.value + len(index)) & 0xFFFFFFFF
    return acc


def _arrays(n: int) -> complex:
    """Small complex products, the size of the package's 6-qubit windows."""
    acc = 0j
    for _ in range(n):
        k = np.kron(_A, _B)
        acc += (k @ k.conj().T).trace() + k.sum()
    return acc


def _hashes(n: int) -> int:
    """SHA-256 chains folded into big integers."""
    digest, acc = b"qhevqa", 1
    for _ in range(n):
        digest = hashlib.sha256(digest).digest()
        acc = (acc * 65537 + int.from_bytes(digest, "big")) % ((1 << 255) - 19)
    return acc


def kernel_slice() -> tuple[float, float]:
    """Run one kernel slice; (start on ``perf_counter``, CPU time of this
    thread). CPU time, because a server thread may take the interpreter lock
    in the middle of a slice; on a single busy thread it equals wall time.

    The cyclic garbage collector is off during the slice, so that a
    collection of the program's heap never lands in it; the slice frees all
    it allocates by reference counting and leaves the collector's counts as
    they were.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start, cpu = perf_counter(), thread_time()
        _objects(2_000)
        _arrays(70)
        _hashes(2_000)
        return start, thread_time() - cpu
    finally:
        if collecting:
            gc.enable()


class Sampler:
    """Kernel slices through a run, and a clock that leaves them out."""

    def __init__(self):
        self.slices: list[tuple[float, float]] = []  # (start, CPU seconds)
        self.spent = 0.0  # CPU seconds of slices run from the timer so far
        self._running = False

    def clock(self) -> float:
        """``perf_counter`` minus the CPU time spent in timer slices."""
        while True:
            spent = self.spent
            now = perf_counter()
            if spent == self.spent:  # no slice ran between the two reads
                return now - spent

    def sample(self) -> None:
        """Run one slice now, outside the timed region."""
        self.slices.append(kernel_slice())

    def _tick(self, signum, frame) -> None:
        start, duration = kernel_slice()
        self.slices.append((start, duration))
        self.spent += duration
        if self._running:  # one-shot timer, re-armed after the slice
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdowns(self, spans: list[tuple[float, float]]) -> list[float]:
        """Host slowdown over each (start, end) on ``perf_counter``: the mean
        time of the slices that started in it, or, if none did, of the slice
        just before and the slice just after its start; over ``REFERENCE_S``."""
        starts = [s for s, _ in self.slices]
        times = [d for _, d in self.slices]
        out = []
        for t0, t1 in spans:
            k0, k1 = bisect.bisect_left(starts, t0), bisect.bisect_left(starts, t1)
            near = times[k0:k1] or times[max(k0 - 1, 0):k0 + 1]
            out.append(statistics.fmean(near) / REFERENCE_S)
        return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=500)
    args = parser.parse_args()
    times = [kernel_slice()[1] for _ in range(args.runs)]
    q1, med, q3 = statistics.quantiles(times, n=4)
    print(f"slice: median {med:.6f} s, quartiles {q1:.6f}-{q3:.6f} s over {args.runs} "
          f"runs (REFERENCE_S = {REFERENCE_S})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
