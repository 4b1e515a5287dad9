"""Batch-lane benchmark: aggregate sweep throughput, BatchCore vs Core.

Times a same-trace configuration sweep run (a) sequentially through
``Core.run`` -- one fresh core per point, exactly what ``--no-batch``
does -- and (b) as one ``BatchCore`` pass over the whole grid.  The
headline regime is *streaming*: traces past ``STREAM_THRESHOLD``, where
``Core.run`` re-decodes the trace on every run and the batch engine
decodes once for all lanes.  The benchmark reproduces that regime at a
bench-friendly size by lowering the threshold for the timed region and
invalidating the summary before every run (frame-scale traces hit it
naturally; building a real 720x480 frame takes minutes, see the
``REPRO_BATCH_BENCH_FRAME`` gate below).

Also measured: the single-lane overhead (a 1-lane batch vs ``Core.run``
of the same point) and the cached-records regime (small-kernel grids,
where sequential runs share one decoded record list anyway and only the
leaner lane stepper differs).  Emits ``benchmarks/BENCH_batch.json``.

Set ``REPRO_BENCH_SMOKE=1`` (CI) to shrink the trace and the grid; the
JSON then carries ``"smoke": true`` so trajectories are not
cross-compared.  Set ``REPRO_BATCH_BENCH_FRAME=1`` to additionally sweep
a prefix of the real 720x480 MPEG-2 frame trace (expensive: the frame
build alone is ~2 minutes).
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.cpu import Core, machine_config
from repro.cpu.batch import BatchCore, LaneSpec
from repro.cpu.jit import NUMBA_VERSION, jit_enabled, numba_available, warm
from repro.emulib.trace import Trace
from repro.exp.engine import built_app, built_kernel
from repro.memsys import PerfectMemory

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
#: jit rows only with a real compiler (the pure-python shim would record
#: meaningless numbers); availability is always recorded in the JSON so
#: ``repro bench`` deltas across differently-equipped hosts stay readable.
JIT_BENCH = numba_available() and jit_enabled()
FRAME = os.environ.get("REPRO_BATCH_BENCH_FRAME") == "1"
STREAM_N = 1 << 15 if SMOKE else 1 << 19
FRAME_N = 1 << 20
WAYS = (2, 4) if SMOKE else (1, 2, 4, 8)
LATENCIES = (1, 50) if SMOKE else (1, 10, 50, 200)
OUTPUT = Path(__file__).parent / "BENCH_batch.json"

_results: dict[str, dict] = {}


def _stream_trace(n, builder=lambda: built_kernel("idct", "mmx").trace):
    """A fresh n-instruction trace (never the memoized build's object --
    the benchmark invalidates summaries, which must not corrupt the
    process-wide build memo other tests share)."""
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
    return LaneSpec(cfg, PerfectMemory(lat, cfg.mem_ports,
                                       cfg.mem_port_width))


@pytest.fixture()
def force_streaming():
    """Make Core treat the bench trace as frame-scale (BatchCore always
    decodes the trace columns directly)."""
    saved = Core.STREAM_THRESHOLD
    Core.STREAM_THRESHOLD = 1 << 10
    try:
        yield
    finally:
        Core.STREAM_THRESHOLD = saved


@pytest.fixture(scope="module", autouse=True)
def emit_bench_json():
    """Write the accumulated measurements once the module finishes."""
    yield
    if not _results:
        return
    payload = {
        "benchmark": "batch_speed",
        "smoke": SMOKE,
        "numba": NUMBA_VERSION,
        "jit_rows": JIT_BENCH,
        **_results,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    headline = _results.get("streaming", {}).get("aggregate_speedup")
    print(f"\nbatch speed (streaming aggregate {headline}x) -> {OUTPUT}")


def _sweep(trace, grid, *, streamed):
    """(sequential_seconds, batch_seconds, results) for one grid.

    Both baselines pin ``jit=False`` so the rows stay comparable with the
    PR 6 trajectory on numba-equipped hosts; the compiled path gets its
    own rows via :func:`_jit_pass`."""
    lanes = [_lane(way, lat) for way, lat in grid]

    seq_results = []
    t0 = time.perf_counter()
    for way, lat in grid:
        if streamed:
            trace.invalidate_summary()
        cfg = machine_config(way, "mmx")
        core = Core(cfg, PerfectMemory(lat, cfg.mem_ports,
                                       cfg.mem_port_width))
        seq_results.append(core.run(trace, jit=False))
    seq_s = time.perf_counter() - t0

    if streamed:
        trace.invalidate_summary()
    batch = BatchCore(lanes, jit=False)
    t0 = time.perf_counter()
    batch_results = batch.run(trace)
    batch_s = time.perf_counter() - t0

    for point, (seq_r, batch_r) in zip(grid, zip(seq_results,
                                                 batch_results)):
        assert seq_r == batch_r, f"engines diverged at {point}"
    return seq_s, batch_s, batch_results


def _jit_pass(trace, grid, reference, *, streamed):
    """Time one compiled BatchCore pass over the grid, verified against
    the interpreted results; returns its wall-clock seconds."""
    warm()      # compile outside the timed region
    if streamed:
        trace.invalidate_summary()
    batch = BatchCore([_lane(way, lat) for way, lat in grid], jit=True)
    t0 = time.perf_counter()
    results = batch.run(trace)
    jit_s = time.perf_counter() - t0
    for point, (ref_r, jit_r) in zip(grid, zip(reference, results)):
        assert jit_r == ref_r, f"jit path diverged at {point}"
        assert jit_r.meta["jit"] is True, point
    return jit_s


def test_streaming_sweep(force_streaming):
    """The headline: aggregate grid-points/sec on a streamed same-trace
    sweep, BatchCore vs sequential Core.run."""
    trace = _stream_trace(STREAM_N)
    grid = _grid()
    seq_s, batch_s, results = _sweep(trace, grid, streamed=True)
    row = {
        "instructions": len(trace),
        "configs": len(grid),
        "sequential_seconds": round(seq_s, 3),
        "batch_seconds": round(batch_s, 3),
        "sequential_points_per_sec": round(len(grid) / seq_s, 4),
        "batch_points_per_sec": round(len(grid) / batch_s, 4),
        "aggregate_speedup": round(seq_s / batch_s, 2),
    }
    if JIT_BENCH:
        jit_s = _jit_pass(trace, grid, results, streamed=True)
        row["jit_batch_seconds"] = round(jit_s, 3)
        row["jit_points_per_sec"] = round(len(grid) / jit_s, 4)
        row["jit_speedup_vs_batch"] = round(batch_s / jit_s, 2)
        row["jit_speedup_vs_sequential"] = round(seq_s / jit_s, 2)
    _results["streaming"] = row
    print(f"\nstreaming n={row['instructions']} configs={row['configs']}  "
          f"seq {seq_s:.1f}s  batch {batch_s:.1f}s  "
          f"{row['aggregate_speedup']:.2f}x")
    # Sanity bound only: batching a streamed sweep must beat re-decoding
    # per point.  The headline number lives in BENCH_batch.json (uploaded
    # as a CI artifact), not in an assertion, so wall-clock noise on
    # shared runners cannot fail the correctness gate.
    assert row["aggregate_speedup"] > 1.0


def test_single_lane_overhead(force_streaming):
    """A 1-lane batch must not cost meaningfully more than Core.run --
    it is what the engine degenerates to on unbatchable singletons."""
    trace = _stream_trace(STREAM_N)
    way, lat = WAYS[-1], LATENCIES[0]

    trace.invalidate_summary()
    cfg = machine_config(way, "mmx")
    core = Core(cfg, PerfectMemory(lat, cfg.mem_ports, cfg.mem_port_width))
    t0 = time.perf_counter()
    core_result = core.run(trace)
    core_s = time.perf_counter() - t0

    trace.invalidate_summary()
    batch = BatchCore([_lane(way, lat)])
    t0 = time.perf_counter()
    batch_result = batch.run(trace)[0]
    batch_s = time.perf_counter() - t0
    assert batch_result == core_result

    row = {
        "instructions": len(trace),
        "way": way,
        "latency": lat,
        "core_seconds": round(core_s, 3),
        "batch_seconds": round(batch_s, 3),
        "overhead_ratio": round(batch_s / core_s, 2),
    }
    _results["single_lane"] = row
    print(f"\nsingle lane  core {core_s:.1f}s  batch {batch_s:.1f}s  "
          f"ratio {row['overhead_ratio']:.2f}")
    assert row["overhead_ratio"] < 2.0


def test_cached_grid():
    """Context regime: records decoded once and memoized, where
    sequential Core runs already share the decode."""
    built = built_kernel("idct", "mmx")
    trace = built.trace
    trace.timing_records()      # one-time classification, untimed
    grid = _grid()
    seq_s, batch_s, _ = _sweep(trace, grid, streamed=False)
    row = {
        "instructions": len(trace),
        "configs": len(grid),
        "sequential_seconds": round(seq_s, 4),
        "batch_seconds": round(batch_s, 4),
        "aggregate_speedup": round(seq_s / batch_s, 2),
    }
    _results["cached"] = row
    print(f"\ncached n={row['instructions']} configs={row['configs']}  "
          f"seq {seq_s:.2f}s  batch {batch_s:.2f}s  "
          f"{row['aggregate_speedup']:.2f}x")
    # The stepper alone should at least hold its ground here; the decode
    # amortization that pays for batching belongs to the streaming test.
    assert row["aggregate_speedup"] > 0.5


@pytest.mark.skipif(not FRAME, reason="set REPRO_BATCH_BENCH_FRAME=1 "
                    "(builds a 720x480 MPEG-2 frame, ~2 minutes)")
def test_frame_scale_sweep(force_streaming):
    """The frame-scale preset's workload: a prefix of the real 720x480
    MPEG-2 P-frame trace swept over the full grid in one pass."""
    trace = _stream_trace(
        FRAME_N, builder=lambda: built_app("mpeg2_frame", "mmx").trace)
    grid = _grid()
    seq_s, batch_s, results = _sweep(trace, grid, streamed=True)
    row = {
        "app": "mpeg2_frame",
        "frame_prefix_instructions": len(trace),
        "configs": len(grid),
        "sequential_seconds": round(seq_s, 3),
        "batch_seconds": round(batch_s, 3),
        "aggregate_speedup": round(seq_s / batch_s, 2),
    }
    if JIT_BENCH:
        jit_s = _jit_pass(trace, grid, results, streamed=True)
        row["jit_batch_seconds"] = round(jit_s, 3)
        row["jit_points_per_sec"] = round(len(grid) / jit_s, 4)
        row["jit_speedup_vs_batch"] = round(batch_s / jit_s, 2)
    _results["frame"] = row
    print(f"\nframe n={row['frame_prefix_instructions']} "
          f"configs={row['configs']}  seq {seq_s:.1f}s  "
          f"batch {batch_s:.1f}s  {row['aggregate_speedup']:.2f}x")
    assert row["aggregate_speedup"] > 1.0
