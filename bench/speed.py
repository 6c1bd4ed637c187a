"""Host speed, read from a fixed reference loop.

On a shared host the core a benchmark runs on changes speed from one second to
the next, as neighbours come and go: on the 2-vCPU reference VM a fixed loop
took 10 ms in one second and 15 ms in the next, on each vCPU independently,
and whole minutes ran slow.  Taking the best of several tries cannot undo a
slow phase that lasts as long as the run.

So every timed operation is measured together with the speed of the core it
runs on.  ``reference_loop`` is fixed pure-Python work of the same kind as the
package's (tuples, dicts, small ints, calls).  It runs twice before the
operation, twice after it, and, for an operation longer than SAMPLE_S, once
every SAMPLE_S while it runs, from a SIGALRM handler on the same thread.  The
operation is then reported at reference speed:

    scaled time = (measured time - time in the handler) * REF_MS / mean(loop times)

that is, the time the operation would take on a core that runs the loop in
REF_MS.  A change to the package moves the scaled time as it moves the
measured one; a change of host speed moves both the operation and the loop,
and cancels.  The raw figures are printed next to the scaled ones.
"""

from __future__ import annotations

import signal
import time

# the reference loop's time on an uncontended core of the reference machine
# (Intel Xeon at 2.1 GHz under KVM, CPython 3.11)
REF_MS = 1.0
SAMPLE_S = 0.02


def reference_loop() -> int:
    table: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(2500):
        key = (i & 63, i % 7)
        table[key] = table.get(key, 0) + 1
        acc += _mix(i, len(key))
    return acc + len(sorted(table.values()))


def _mix(a: int, b: int) -> int:
    return (a * 31 + b) ^ (a >> 3)


def reference_ms() -> float:
    start = time.perf_counter()
    reference_loop()
    return (time.perf_counter() - start) * 1000.0


class _Sampler:
    """Runs the reference loop from SIGALRM every SAMPLE_S of wall time."""

    def __init__(self):
        self.loops: list[float] = []
        self.handler_ms = 0.0

    def __call__(self, signum, frame):
        start = time.perf_counter()
        self.loops.append(reference_ms())
        self.handler_ms += (time.perf_counter() - start) * 1000.0


def timed(fn, sample: bool = True):
    """Call fn() with the core's speed measured around it and, if sample, in
    it.  Returns fn's value, its wall and CPU milliseconds (less the time
    spent sampling), and the factor that scales them to reference speed.
    An exception from fn propagates."""
    sampler = _Sampler()
    loops = [reference_ms(), reference_ms()]
    previous = signal.signal(signal.SIGALRM, sampler) if sample else None
    start, cpu = time.perf_counter(), time.process_time()
    if sample:
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
    try:
        value = fn()
    finally:
        if sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    wall_ms = (time.perf_counter() - start) * 1000.0 - sampler.handler_ms
    cpu_ms = (time.process_time() - cpu) * 1000.0 - sampler.handler_ms
    loops += sampler.loops + [reference_ms(), reference_ms()]
    return value, wall_ms, cpu_ms, REF_MS * len(loops) / sum(loops)
