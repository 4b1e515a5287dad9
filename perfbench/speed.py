"""Core-speed sampler: CPU seconds rescaled to a reference core.

The reference host (a virtual machine with two Intel Xeon vCPUs) shares
its cores with other machines.  How fast a core runs this process
depends on what its neighbours do: the same fixed loop takes 0.065 s on
one vCPU and 0.11 s on the other, and each changes from minute to
minute.  The CPU seconds of one workload iteration therefore swing by up
to 30% between runs of the same code, more than any bound worth gating
on.

To take that out, the process that does the work runs a fixed calibration
chunk every :data:`INTERVAL_S` of its own CPU time (``ITIMER_PROF``), from
a signal handler in its main thread -- so on whichever core the work is on
at that moment.  The chunks' mean duration over a window says how fast
the cores were during it; :func:`rescale` turns the window's CPU seconds
(the chunks' own time taken out) into seconds on a core where one chunk
takes :data:`REF_CHUNK_S`.  Over ten runs per workload on the reference
host that cut the spread (interquartile range over median) from 8-19% to
3-7%; raw CPU seconds had spread 26-35% when the host was busier.

The chunks cost about 2% of the work's CPU time and run in every timed
iteration, traced or not, so parent and change pay the same.

Set-up is too short for the sampler, and ``repro serve`` is timed as the
plain command, so set-up wall seconds are rescaled by :func:`measure`,
run in the benchmark's own process just before each spawn: it follows
the host's drift from minute to minute (set-up medians of two ten-run
sets moved 14-39% with it) though not which core the child lands on.
"""

from __future__ import annotations

import signal
import statistics
import time

#: CPU seconds between two calibration chunks.
INTERVAL_S = 0.05
#: Loop rounds in one chunk: about 1 ms on the reference host.
CHUNK_ROUNDS = 3000
#: Duration of one chunk on the reference core, by definition.
REF_CHUNK_S = 1e-3

_cpu = time.process_time
_thread_cpu = time.thread_time


def chunk() -> int:
    """The calibration work: dict updates and integer arithmetic, the
    interpreter's bread and butter, on a working set that stays in cache."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(CHUNK_ROUNDS):
        key = i & 255
        table[key] = table.get(key, 0) + i
        acc = (acc + (i * 7) ^ (acc >> 3)) & 0xFFFFFFFF
    return acc


class Sampler:
    """Runs :func:`chunk` every :data:`INTERVAL_S` of process CPU time
    while started; keeps ``[process CPU at start, chunk seconds]`` pairs."""

    def __init__(self) -> None:
        self.samples: list[list[float]] = []

    def _tick(self, signum, frame) -> None:
        stamp, begin = _cpu(), _thread_cpu()
        chunk()
        self.samples.append([stamp, _thread_cpu() - begin])

    def start(self) -> "Sampler":
        for _ in range(20):            # warm the chunk's code and data
            chunk()
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        # A SIGPROF already pending must not kill the process (SIG_DFL).
        signal.signal(signal.SIGPROF, signal.SIG_IGN)


def measure(count: int = 10) -> list[float]:
    """Durations of ``count`` chunks run back to back in this thread now,
    after one that warms them up."""
    chunk()
    durations = []
    for _ in range(count):
        begin = _thread_cpu()
        chunk()
        durations.append(_thread_cpu() - begin)
    return durations


def window(samples: list[list[float]], start: float,
           end: float) -> list[float]:
    """Durations of the chunks in ``samples`` that ran between two process
    CPU times (``time.process_time`` of the process that ran them)."""
    return [dur for stamp, dur in samples
            if stamp >= start and stamp + dur <= end]


def rescale(cpu_s: float, chunks: list[float]) -> float:
    """CPU seconds measured beside ``chunks`` (whose own time is already
    taken out of ``cpu_s``) as seconds on the reference core."""
    if not chunks:
        raise ValueError("no calibration chunk ran in the window")
    return cpu_s * REF_CHUNK_S / statistics.fmean(chunks)
