"""Core-speed benchmark: simulator throughput per ISA, event vs busy-wait.

Times real simulation (``Core.run`` -- a one-lane ``BatchCore`` -- on a
fresh core and memory system, no result cache anywhere near the timed
region, i.e. ``REPRO_NO_CACHE=1`` semantics) of a fixed mid-size idct
trace per ISA, and the seed busy-wait loop (``Core.run_reference``) on
the same trace, and prints instructions-simulated-per-second for both
engines and the speedup.

Set ``REPRO_BENCH_SMOKE=1`` (CI) to shrink the workload.
"""

import os
import time

import pytest

from repro.cpu import Core, machine_config
from repro.exp.engine import built_kernel
from repro.memsys import PerfectMemory

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
KERNEL = "idct"
SCALE = 1 if SMOKE else 4
WAY = 4
ISAS = ("alpha", "mmx", "mdmx", "mom")
REPS = 2 if SMOKE else 3


def _fresh_core(isa):
    cfg = machine_config(WAY, isa)
    return Core(cfg, PerfectMemory(1, cfg.mem_ports, cfg.mem_port_width))


def _time(engine_name, isa, trace):
    best = None
    result = None
    for _ in range(REPS):
        core = _fresh_core(isa)
        engine = getattr(core, engine_name)
        start = time.perf_counter()
        result = engine(trace)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


@pytest.mark.parametrize("isa", ISAS)
def test_core_speed(isa):
    built = built_kernel(KERNEL, isa, SCALE)
    trace = built.trace

    event_s, event_result = _time("run", isa, trace)
    reference_s, reference_result = _time("run_reference", isa, trace)
    assert event_result == reference_result, "engines diverged"

    n = len(trace)
    row = {
        "instructions": n,
        "event_seconds": round(event_s, 4),
        "event_ips": round(n / event_s),
        "reference_seconds": round(reference_s, 4),
        "reference_ips": round(n / reference_s),
        "speedup": round(reference_s / event_s, 2),
    }
    print(f"\n{isa:6s} n={n:6d}  event {row['event_ips']:>8d} i/s  "
          f"reference {row['reference_ips']:>8d} i/s  "
          f"speedup {row['speedup']:.2f}x")

    # Sanity bound only: the event scheduler must not be slower than the
    # busy-wait loop.  The headline number is the printed speedup, not
    # the bound.
    assert row["speedup"] > 1.0
