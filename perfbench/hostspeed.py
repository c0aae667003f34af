"""Host-speed sampler: how fast the measured CPU runs, moment by moment.

    python3 perfbench/hostspeed.py

On a shared host the speed of one vCPU changes by up to 1.7x within
seconds, and by 2.5x between hours, with whatever else runs on the
machine. CPU time follows wall time, so the process is not waiting; each
instruction simply takes longer. The harness pins itself to one CPU, so
that the sampler and the measured processes it starts run there; the
sampler times one fixed pure-Python burst (about 0.5 ms) every
``INTERVAL_S``, on the same CPU at the same moments as the pipeline, and
takes about 5% of that CPU. It keeps the samples in memory and, when its
stdin is closed, prints them as one JSON list of
``[perf_counter at burst start, burst seconds]`` and exits.
``time.perf_counter`` is CLOCK_MONOTONIC, shared by every process, so the
harness can match samples to the spans of its runs.

``Sampler.factor(t0, t1)`` is ``REFERENCE_BURST_S`` over the mean burst
time in [t0, t1]: multiplied by a time measured in that span, it gives the
time the same work would take on a CPU that runs the burst in
``REFERENCE_BURST_S``. The burst's code is fixed and independent of
cexdex, so a change to cexdex moves the factor only through what it does
to the shared CPU.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time

INTERVAL_S = 0.01
# the burst time of the fixed work on the 2-vCPU host this benchmark was
# built on, at its fast end; any constant would do, since both sides of a
# comparison use the same one
REFERENCE_BURST_S = 0.0005
MIN_SAMPLES = 5


# a table larger than the CPU's L1 and L2 caches, read at pseudo-random rows
TABLE = {i: (i * 7919) & 0xFFFF for i in range(1 << 16)}


def burst() -> int:
    """Format, split and parse CSV-like lines and join them to a table: the
    kind of work the pipeline's parse and compute steps do."""
    s, j = 0, 12345
    rows = []
    for i in range(300):
        j = (j * 1103515245 + 12345) & 0xFFFF
        a, b, c = f"{i},0x{j:x},{i * 0.37:.6f}".split(",")
        rows.append((int(a), int(b, 16), float(c)))
        s += TABLE[j]
    return s + len(rows)


def sample() -> list[list[float]]:
    burst()
    samples = []
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        t = time.perf_counter()
        burst()
        samples.append([t, time.perf_counter() - t])
    return samples


def pin() -> int:
    """Pin this process, and so every process it starts, to one CPU; return it."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Sampler:
    """The sampler process, as a context manager; ``samples`` is set on exit."""

    def __init__(self, env: dict):
        self.env = env
        self.samples: list[list[float]] = []

    def __enter__(self) -> Sampler:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            env=self.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        return self

    def __exit__(self, *exc) -> None:
        try:
            out, _ = self.proc.communicate(timeout=60)
            self.samples = json.loads(out)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            if exc[0] is None:
                raise

    def factor(self, t0: float, t1: float) -> float:
        inside = [d for t, d in self.samples if t0 <= t <= t1]
        if len(inside) < MIN_SAMPLES:
            mid = (t0 + t1) / 2
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))
            inside = [d for _, d in nearest[:MIN_SAMPLES]]
        if not inside:
            return float("nan")
        return REFERENCE_BURST_S / (sum(inside) / len(inside))


if __name__ == "__main__":
    json.dump(sample(), sys.stdout)
