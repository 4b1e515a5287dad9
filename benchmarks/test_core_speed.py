"""Core-speed benchmark: simulator throughput per ISA, event vs busy-wait.

Times real simulation (``Core.run`` -- a one-lane ``BatchCore`` -- on a
fresh core and memory system, no result cache anywhere near the timed
region, i.e. ``REPRO_NO_CACHE=1`` semantics) of a fixed mid-size idct
trace per ISA, and the seed busy-wait loop (``Core.run_reference``) on
the same trace.  Emits
``benchmarks/BENCH_core.json`` with instructions-simulated-per-second for
both engines and the speedup, so the perf trajectory of the hottest path
in the package is tracked run over run.

Set ``REPRO_BENCH_SMOKE=1`` (CI) to shrink the workload; the JSON then
carries ``"smoke": true`` so trajectories are not cross-compared.
"""

import json
import os
import time
from pathlib import Path

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
OUTPUT = Path(__file__).parent / "BENCH_core.json"

_results: dict[str, dict] = {}


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


@pytest.fixture(scope="module", autouse=True)
def emit_bench_json():
    """Write the accumulated measurements once the module finishes."""
    yield
    if not _results:
        return
    speedups = [row["speedup"] for row in _results.values()]
    geomean = 1.0
    for s in speedups:
        geomean *= s
    geomean **= 1.0 / len(speedups)
    OUTPUT.write_text(json.dumps({
        "benchmark": "core_speed",
        "kernel": KERNEL,
        "scale": SCALE,
        "way": WAY,
        "smoke": SMOKE,
        "geomean_speedup": round(geomean, 2),
        "results": _results,
    }, indent=2) + "\n")
    print(f"\ncore speed (geomean speedup {geomean:.2f}x) -> {OUTPUT}")


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
    _results[isa] = row
    print(f"\n{isa:6s} n={n:6d}  event {row['event_ips']:>8d} i/s  "
          f"reference {row['reference_ips']:>8d} i/s  "
          f"speedup {row['speedup']:.2f}x")

    # Sanity bound only: the event scheduler must not be slower than the
    # busy-wait loop.  The headline >= 3x claim lives in BENCH_core.json
    # (uploaded as a CI artifact by the dedicated smoke step), not in an
    # assertion, so wall-clock noise on shared runners cannot fail the
    # correctness gate.
    assert row["speedup"] > 1.0
