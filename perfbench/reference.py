"""A fixed reference computation that gauges how fast the host runs now.

On a shared machine other tenants' load changes how much work a CPU
second does (shared caches, memory bandwidth, the sibling hyperthread),
in phases of seconds to tens of minutes, by more than a quarter.  CPU
time leaves out the time the CPU is taken away, but not this slowdown.

The benchmark therefore times this computation right before and right
after each job and divides the job's CPU time by it.  The computation
never touches ramcell, so a change to the program moves the job's time
and not the reference.  It mixes the kinds of work the program does:
interpreter steps, numpy passes over an array that fits the per-core
cache, and passes over one that does not.  It allocates nothing, so the
heap the program leaves behind does not change its time.  On the
machine the bounds were set on it runs in about 30 ms; ``NOMINAL_S``
turns the ratio back into seconds, which read as CPU seconds of a host
that runs the reference in ``NOMINAL_S``.
"""

import time

import numpy as np

NOMINAL_S = 0.030
LOOP_STEPS = 100_000
SMALL_ROUNDS = 80
LARGE_ROUNDS = 8
_SMALL = np.linspace(0.0, 1.0, 50_000)       # 0.4 MB
_LARGE = np.linspace(0.0, 1.0, 400_000)      # 3.2 MB
_SMALL_OUT = np.empty_like(_SMALL)
_LARGE_OUT = np.empty_like(_LARGE)


def _array_pass(x: np.ndarray, out: np.ndarray, rounds: int) -> None:
    for _ in range(rounds):
        np.multiply(x, -0.3, out=out)
        np.exp(out, out=out)
        out.sum()


def reference_cpu_s() -> float:
    """CPU seconds this process spends on the fixed reference work."""
    c0 = time.process_time()
    acc = 0
    for i in range(LOOP_STEPS):
        acc += i * i % 7
    _array_pass(_SMALL, _SMALL_OUT, SMALL_ROUNDS)
    _array_pass(_LARGE, _LARGE_OUT, LARGE_ROUNDS)
    return time.process_time() - c0
