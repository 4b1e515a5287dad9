"""Compile-path benchmark: IR bind + lower wall-clock per kernel x ISA.

Times the vectorizing compiler itself -- workload binding plus the
lowering pass, i.e. everything between a kernel description and a
simulatable trace -- for every compiler-known kernel (the three
digest-pinned mirrors and the three compiler-only kernels) on all four
ISAs.

Set ``REPRO_BENCH_SMOKE=1`` (CI) to shrink the workload.
"""

import os
import time

import pytest

from repro.kernels import ISAS, KERNELS
from repro.vc import COMPILED, compile_kernel

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
SCALE = 1 if SMOKE else 2
REPS = 2 if SMOKE else 3


@pytest.mark.parametrize("kernel", sorted(COMPILED))
@pytest.mark.parametrize("isa", ISAS)
def test_compile_speed(kernel, isa):
    record = COMPILED[kernel]
    workload = KERNELS[kernel].make_workload(SCALE)
    best = None
    built = None
    for _ in range(REPS):
        start = time.perf_counter()
        binding = record.bind(workload)
        built = compile_kernel(record.ir, isa, binding, record.output_key)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    assert len(built.trace) > 0
    print(f"\n{kernel}/{isa}: {len(built.trace)} instructions in "
          f"{best:.4f}s")
