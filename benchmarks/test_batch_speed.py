"""Batch-lane benchmark: aggregate sweep throughput, BatchCore vs Core.

Times a same-trace configuration sweep run (a) sequentially through
``Core.run`` -- one fresh one-lane pass per point, as if each point were
its own group -- and (b) as one ``BatchCore`` pass over the whole grid,
which decodes the trace once for all lanes instead of once per point.
The headline regime is *streaming*: a long trace, where the
decode is a large share of every run; the benchmark reproduces it at a
bench-friendly size (building a real 720x480 frame takes minutes, see
the ``REPRO_BATCH_BENCH_FRAME`` gate below).

Also measured: the cached regime (a small-kernel grid, where the decode
is cheap and the stepper dominates).  Each test prints its timings.

Set ``REPRO_BENCH_SMOKE=1`` (CI) to shrink the trace and the grid.  Set
``REPRO_BATCH_BENCH_FRAME=1`` to additionally sweep a prefix of the real
720x480 MPEG-2 frame trace (expensive: the frame build alone is ~2
minutes).
"""

import os
import time

import pytest

from repro.cpu import Core, machine_config
from repro.cpu.batch import BatchCore
from repro.emulib.trace import Trace
from repro.exp.engine import built_app, built_kernel
from repro.memsys import PerfectMemory

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
FRAME = os.environ.get("REPRO_BATCH_BENCH_FRAME") == "1"
STREAM_N = 1 << 15 if SMOKE else 1 << 19
FRAME_N = 1 << 20
WAYS = (2, 4) if SMOKE else (1, 2, 4, 8)
LATENCIES = (1, 50) if SMOKE else (1, 10, 50, 200)


def _stream_trace(n, builder=lambda: built_kernel("idct", "mmx").trace):
    """A fresh n-instruction trace (never the memoized build's object,
    which other tests share through the process-wide build memo)."""
    src = builder()
    trace = Trace(src.isa)
    while len(trace) < n:
        trace.extend(src)
    trace.truncate(n)
    return trace


def _grid():
    return [(way, lat) for way in WAYS for lat in LATENCIES]


def _lane(way, lat, isa="mmx"):
    cfg = machine_config(way, isa)
    return Core(cfg, PerfectMemory(lat, cfg.mem_ports, cfg.mem_port_width))


def _sweep(trace, grid):
    """(sequential_seconds, batch_seconds) for one grid, results checked
    equal point by point."""
    lanes = [_lane(way, lat) for way, lat in grid]

    seq_results = []
    t0 = time.perf_counter()
    for way, lat in grid:
        seq_results.append(_lane(way, lat).run(trace))
    seq_s = time.perf_counter() - t0

    batch = BatchCore(lanes)
    t0 = time.perf_counter()
    batch_results = batch.run(trace)
    batch_s = time.perf_counter() - t0

    for point, (seq_r, batch_r) in zip(grid, zip(seq_results,
                                                 batch_results)):
        assert seq_r == batch_r, f"engines diverged at {point}"
    return seq_s, batch_s


def test_streaming_sweep():
    """The headline: aggregate grid-points/sec on a streamed same-trace
    sweep, BatchCore vs sequential Core.run."""
    trace = _stream_trace(STREAM_N)
    grid = _grid()
    seq_s, batch_s = _sweep(trace, grid)
    row = {
        "instructions": len(trace),
        "configs": len(grid),
        "sequential_seconds": round(seq_s, 3),
        "batch_seconds": round(batch_s, 3),
        "sequential_points_per_sec": round(len(grid) / seq_s, 4),
        "batch_points_per_sec": round(len(grid) / batch_s, 4),
        "aggregate_speedup": round(seq_s / batch_s, 2),
    }
    print(f"\nstreaming n={row['instructions']} configs={row['configs']}  "
          f"seq {seq_s:.1f}s  batch {batch_s:.1f}s  "
          f"{row['aggregate_speedup']:.2f}x")
    # Sanity bound only: batching a streamed sweep must beat re-decoding
    # per point.  The headline number is the printed ratio, not the
    # bound.
    assert row["aggregate_speedup"] > 1.0


def test_cached_grid():
    """Context regime: a small kernel trace, where the decode is cheap
    and the lane stepper dominates every run."""
    built = built_kernel("idct", "mmx")
    trace = built.trace
    grid = _grid()
    seq_s, batch_s = _sweep(trace, grid)
    row = {
        "instructions": len(trace),
        "configs": len(grid),
        "sequential_seconds": round(seq_s, 4),
        "batch_seconds": round(batch_s, 4),
        "aggregate_speedup": round(seq_s / batch_s, 2),
    }
    print(f"\ncached n={row['instructions']} configs={row['configs']}  "
          f"seq {seq_s:.2f}s  batch {batch_s:.2f}s  "
          f"{row['aggregate_speedup']:.2f}x")
    # The stepper alone should at least hold its ground here; the decode
    # amortization that pays for batching belongs to the streaming test.
    assert row["aggregate_speedup"] > 0.5


@pytest.mark.skipif(not FRAME, reason="set REPRO_BATCH_BENCH_FRAME=1 "
                    "(builds a 720x480 MPEG-2 frame, ~2 minutes)")
def test_frame_scale_sweep():
    """The frame-scale preset's workload: a prefix of the real 720x480
    MPEG-2 P-frame trace swept over the full grid in one pass."""
    trace = _stream_trace(
        FRAME_N, builder=lambda: built_app("mpeg2_frame", "mmx").trace)
    grid = _grid()
    seq_s, batch_s = _sweep(trace, grid)
    row = {
        "app": "mpeg2_frame",
        "frame_prefix_instructions": len(trace),
        "configs": len(grid),
        "sequential_seconds": round(seq_s, 3),
        "batch_seconds": round(batch_s, 3),
        "aggregate_speedup": round(seq_s / batch_s, 2),
    }
    print(f"\nframe n={row['frame_prefix_instructions']} "
          f"configs={row['configs']}  seq {seq_s:.1f}s  "
          f"batch {batch_s:.1f}s  {row['aggregate_speedup']:.2f}x")
    assert row["aggregate_speedup"] > 1.0
