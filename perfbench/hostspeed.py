"""Host speed, sampled while an operation runs, to scale its time by.

The benchmark runs on virtual machines whose host slows a process down by
1.5-2x for seconds to minutes at a time (other guests on the same cores,
steal time). Raw operation times of one run then differ from those of the
next by 20% on identical code, and neither CPU time nor the fastest
sample of a run takes that out. What does is to time a fixed reference
kernel alongside the operation and express the operation in its units.

`Clock.timed()` times a block of code. While the block runs, a SIGALRM
timer runs the kernel every PERIOD_S of wall time, in this thread, between
two Python bytecodes of the block; the kernel also runs once just before
and once just after the block. The result carries
- wall_s:   the block's wall time, less the kernel samples taken inside it
- cpu_s:    the block's process CPU time, less the same
- scaled_s: wall_s / (mean kernel time) * REF_S, the block's time on a host
            where the kernel takes REF_S.
scaled_s sees everything wall time sees (file I/O, blocking, threads), but
not the host's changes of speed, as long as they last longer than PERIOD_S.
A slow spell does not slow all code alike (in one, an einsum loop slowed
1.45x and the int_serve request 1.65x), so the kernel mixes, in about equal parts of its time, the kinds of work denoq's
operations are made of: the non-optimised einsum matmul, float64 and int64,
of tensor.matmul and igemm.execute; Python bytecode; numpy calls on small
arrays; and a pass over arrays larger than the L2 cache. The samples inside
a block cost about 3% of its time.
"""

from __future__ import annotations

import contextlib
import math
import signal
import time
from dataclasses import dataclass

import numpy as np

PERIOD_S = 0.05
# The kernel's median time on an idle 2-vCPU Intel Xeon VM (numpy 2.4,
# Python 3.11); a fixed constant, so that scaled_s reads close to seconds.
REF_S = 0.0010
# kernel runs that scale a block too short for timer samples (set-up)
KERNEL_SAMPLES = 40
_rng = np.random.default_rng(0)
_A = _rng.standard_normal((64, 64))
_B = _rng.standard_normal((64, 64))
_IA = _rng.integers(-128, 128, (64, 64))
_IB = _rng.integers(-8, 8, (64, 64))
_SMALL = np.ones(64)
_BIG = _rng.standard_normal(250_000)  # 2 MB, and as much again for _OUT
_OUT = np.empty_like(_BIG)


def kernel() -> float:
    """Run the reference kernel once; return its wall time in seconds."""
    t0 = time.perf_counter()
    np.einsum("ik,kj->ij", _A, _B, optimize=False)
    np.einsum("ik,kj->ij", _IA, _IB, optimize=False)
    acc = 0
    for j in range(3500):
        acc += j * j % 7
    for _ in range(60):
        np.add(_SMALL, _SMALL)
        np.clip(_SMALL, -1.0, 1.0)
    np.multiply(_BIG, 1.0001, out=_OUT)
    _OUT.sum()
    return time.perf_counter() - t0


def scale(seconds: float, samples) -> float:
    """seconds on this host, as seconds on the host where the kernel takes REF_S."""
    return seconds / (sum(samples) / len(samples)) * REF_S if samples else math.nan


@dataclass
class Timing:
    wall_s: float = math.nan
    cpu_s: float = math.nan
    scaled_s: float = math.nan


class Clock:
    """Times blocks of code; with sample=False it only takes wall and CPU time."""

    def __init__(self, sample: bool = True):
        self.sample = sample

    @contextlib.contextmanager
    def timed(self):
        timing = Timing()
        inside = []
        before = [kernel()] if self.sample else []
        if self.sample:
            previous = signal.signal(signal.SIGALRM, lambda *_: inside.append(kernel()))
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            yield timing
        finally:
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        # the samples are single-threaded computation: their CPU time is
        # their wall time
        timing.wall_s = wall - sum(inside)
        timing.cpu_s = cpu - sum(inside)
        if self.sample:
            timing.scaled_s = scale(timing.wall_s, before + inside + [kernel()])
