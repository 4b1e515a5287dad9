"""Telemetry tests: metric accuracy, no-op discipline, span stitching,
phase profiling, and golden-digest parity with telemetry enabled.

The digest-parity tests re-run golden mini-grid coordinates with spans
and metrics fully enabled on both execution paths (an in-process session
and the live service) and check the pinned seed digests still come out:
telemetry observes the simulator, it never perturbs it.  The storm test
holds the serving layer to the "stats must answer while saturated"
contract behind ``repro stats``.
"""

import threading
import time
import tracemalloc

import numpy
import pytest

from repro.cpu import Core, machine_config
from repro.exp import PointSpec, Session
from repro.exp.engine import built_kernel, execute_group
from repro.obs import (MemorySink, Obs, OBS_OFF, Registry, obs_from_env,
                       read_jsonl, render_prometheus)
from repro.obs.metrics import NULL_REGISTRY, _NULL_METRIC
from repro.obs.spans import NULL_SPAN
from repro.serve import Client

import test_golden_digest as golden
from test_serve import MINI, _golden_point, live_server

PHASES = {"decode", "step", "writeback"}


# --- metrics ------------------------------------------------------------------

def test_histogram_percentiles_track_numpy():
    """Log-bucket percentiles stay within the bucket-width error bound of
    exact (numpy) percentiles on a latency-shaped distribution."""
    import random

    rng = random.Random(42)
    samples = [rng.lognormvariate(-3.0, 1.0) for _ in range(5000)]
    hist = Registry().histogram("latency")
    for value in samples:
        hist.observe(value)
    assert hist.count == len(samples)
    assert hist.min == min(samples) and hist.max == max(samples)
    for q in (50, 90, 99):
        exact = float(numpy.percentile(samples, q))
        approx = hist.percentile(q)
        # 16 buckets/decade: geometric midpoints sit within ~7.5% of any
        # in-bucket value; leave headroom for rank rounding.
        assert abs(approx - exact) / exact < 0.12, (q, approx, exact)


def test_histogram_extremes_and_empty():
    hist = Registry().histogram("h")
    assert hist.percentile(50) is None and hist.mean is None
    hist.observe(1e-9)          # below lo -> underflow bucket
    hist.observe(1e9)           # above hi -> overflow bucket
    assert hist.count == 2
    # Percentiles clamp to observed extremes, never report outside them.
    for q in (50, 99):
        assert hist.min <= hist.percentile(q) <= hist.max


def test_render_prometheus_exposition():
    registry = Registry()
    registry.counter("points_simulated").inc(3)
    registry.gauge('server_shard_queue_depth{shard="0"}').set(2)
    hist = registry.histogram("lat")
    hist.observe(0.01)
    hist.observe(0.02)
    text = render_prometheus(registry)
    assert "# TYPE points_simulated counter" in text
    assert "points_simulated 3" in text
    assert "# TYPE server_shard_queue_depth gauge" in text
    assert 'server_shard_queue_depth{shard="0"} 2' in text
    assert "# TYPE lat summary" in text
    assert 'lat{quantile="0.5"}' in text
    assert "lat_count 2" in text
    assert text.endswith("\n")
    assert render_prometheus(NULL_REGISTRY) == ""


# --- the disabled path is free ------------------------------------------------

def test_disabled_singletons():
    assert NULL_REGISTRY.counter("a") is _NULL_METRIC
    assert NULL_REGISTRY.gauge("b") is _NULL_METRIC
    assert NULL_REGISTRY.histogram("c") is _NULL_METRIC
    assert NULL_REGISTRY.snapshot() == {}
    assert OBS_OFF.enabled is False
    assert OBS_OFF.metrics is NULL_REGISTRY
    assert OBS_OFF.tracer.span("x") is NULL_SPAN
    assert Obs.disabled() is OBS_OFF


def test_disabled_path_allocates_nothing():
    """The no-op registry/tracer retain nothing: a hot loop of disabled
    instrumentation leaves zero live allocations in repro.obs frames."""
    registry, tracer = OBS_OFF.metrics, OBS_OFF.tracer

    def burn():
        for _ in range(1000):
            registry.counter("points").inc()
            registry.histogram("h").observe(0.5)
            with tracer.span("s") as span:
                span.set(key=1)

    burn()                                  # warm caches first
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        burn()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    grown = [stat for stat in after.compare_to(before, "lineno")
             if stat.size_diff > 0
             and any("obs" in frame.filename for frame in stat.traceback)]
    assert not grown, [str(stat) for stat in grown]


# --- spans --------------------------------------------------------------------

def test_jsonl_trace_roundtrip(tmp_path, monkeypatch):
    path = tmp_path / "spans.jsonl"
    monkeypatch.setenv("REPRO_OBS_TRACE", str(path))
    obs = obs_from_env()
    assert obs.enabled
    with obs.tracer.span("root") as root:
        with obs.tracer.span("child", parent=root):
            pass
    obs.sink.close()
    records = read_jsonl(path)
    # Children finish (and flush) before their parents.
    assert [r["name"] for r in records] == ["child", "root"]
    assert records[0]["parent"] == records[1]["span"]
    assert records[1]["parent"] is None
    assert all(r["dur"] >= 0 for r in records)


def test_spans_stitch_across_process_pool(tmp_path):
    """jobs=2 ships worker-side spans home: one trace, no dangling parents,
    and at least one record minted in a non-parent process."""
    obs = Obs.make()
    session = Session(tmp_path / "cache", obs=obs)
    session.run(list(MINI), jobs=2)
    records = obs.sink.records
    assert records
    assert len({r["trace"] for r in records}) == 1
    ids = {r["span"] for r in records}
    dangling = [r["name"] for r in records
                if r["parent"] is not None and r["parent"] not in ids]
    assert not dangling
    names = {r["name"] for r in records}
    assert {"session.run", "cache.lookup", "trace.build",
            "sim.group", "phase.step", "cache.put"} <= names
    # Span ids are pid-prefixed, so stitched worker records are visible.
    pids = {r["span"].split("-")[0] for r in records}
    assert len(pids) >= 2


# --- phase profiling ----------------------------------------------------------

def test_phases_on_interpreted_core():
    built = built_kernel("idct", "mmx")
    core = Core(machine_config(2, "mmx"),
                golden.make_memsys("perfect", 2, "mmx"))
    phases = {}
    core.run(built.trace, phases=phases)
    assert PHASES <= set(phases)
    assert all(v >= 0 for v in phases.values())
    assert phases["step"] > 0


def test_meta_phases_on_every_engine_path():
    point = PointSpec(kind="kernel", target="idct", isa="mom", way=2)
    single = execute_group([point])[0]
    assert PHASES <= set(single.meta["phases"])


def test_batch_meta_is_honest_about_shared_wall_clock():
    """S1: per-lane sim_seconds is an equal share, flagged as estimated,
    with the measured whole-pass wall-clock alongside."""
    group = [PointSpec(kind="kernel", target="idct", isa="mom", way=w)
             for w in (2, 4, 8)]
    results = execute_group(group)
    group_seconds = {r.meta["batch_group_seconds"] for r in results}
    assert len(group_seconds) == 1          # one measured pass, shared
    (shared,) = group_seconds
    assert shared > 0
    for result in results:
        meta = result.meta
        assert meta["sim_seconds_estimated"] is True
        # meta seconds are rounded to microsecond precision by the engine.
        assert meta["sim_seconds"] == pytest.approx(shared / len(group),
                                                    abs=1e-5)
        assert PHASES <= set(meta["phases"])
    assert sum(r.meta["sim_seconds"] for r in results) == \
        pytest.approx(shared, abs=1e-4)


# --- golden-digest parity with telemetry enabled ------------------------------

#: One coordinate per memory-model family, both kernels represented.
PARITY = (
    ("idct", "mmx", 2, "perfect"),
    ("idct", "mom", 8, "cache"),
    ("motion2", "mdmx", 8, "latency50"),
    ("motion2", "mom", 2, "vectorcache"),
)


def test_digest_parity_with_telemetry_enabled(tmp_path):
    points = [_golden_point(*coord) for coord in PARITY]
    obs = Obs.make()
    session = Session(tmp_path / "cache", use_cache=False, obs=obs)
    results = session.run(points)
    for coord, point in zip(PARITY, points):
        assert golden.result_digest(results[point]) == \
            golden.GOLDEN_DIGESTS[coord], coord
    assert obs.sink.records                 # telemetry actually observed


def test_served_digest_parity_with_telemetry_enabled(tmp_path, monkeypatch):
    """The fourth path: a live server with spans + metrics on still streams
    seed-digest answers, ships worker spans home, and serves metrics."""
    monkeypatch.setenv("REPRO_OBS", "1")
    points = [_golden_point(*coord) for coord in PARITY]
    with live_server(tmp_path) as server:
        with Client("127.0.0.1", server.port, timeout=120) as client:
            results = client.run(points)
            payload = client.metrics()
    for coord, point in zip(PARITY, points):
        assert golden.result_digest(results[point]) == \
            golden.GOLDEN_DIGESTS[coord], coord
    assert payload["metrics"]["submit_answer_seconds"]["count"] >= 1
    assert "server_shard_queue_depth" in payload["text"]
    records = server.obs.sink.records
    names = {r["name"] for r in records}
    assert {"serve.request", "serve.dispatch", "worker.sim",
            "serve.flush"} <= names
    # The four parity points are four distinct builds, so each simulates
    # as its own one-lane group inside a worker.
    assert "sim.group" in names
    ids = {r["span"] for r in records}
    assert not [r for r in records
                if r["parent"] is not None and r["parent"] not in ids]


# --- the service answers stats while saturated --------------------------------

def test_stats_and_metrics_answer_during_submit_storm(tmp_path):
    """S2/tentpole contract behind ``repro stats``: with a tiny in-flight
    budget and a storm of submitted points, a second connection's stats
    and metrics requests answer promptly instead of queueing behind the
    sweep."""
    storm = [PointSpec(kind="kernel", target=kernel, isa=isa, way=way)
             for kernel in ("idct", "motion2")
             for isa in ("alpha", "mmx", "mdmx", "mom")
             for way in (2, 4)]
    done = threading.Event()
    errors: list[BaseException] = []

    with live_server(tmp_path, workers=2, max_inflight=2) as server:
        def storm_client():
            try:
                with Client("127.0.0.1", server.port, timeout=300) as c:
                    c.run(storm)
            except BaseException as exc:     # noqa: BLE001 - reraised below
                errors.append(exc)
            finally:
                done.set()

        thread = threading.Thread(target=storm_client, daemon=True)
        thread.start()
        latencies = []
        stats = {}
        with Client("127.0.0.1", server.port, timeout=30) as control:
            while True:
                t0 = time.monotonic()
                stats = control.stats()
                payload = control.metrics()
                latencies.append(time.monotonic() - t0)
                if done.is_set() or len(latencies) >= 50:
                    break
                time.sleep(0.05)
        thread.join(300)

    assert not errors, errors
    assert latencies and max(latencies) < 5.0
    assert "shard_queue_depths" in stats
    assert {"worker_deaths", "worker_respawns",
            "worker_failed_keys"} <= set(stats)
    assert "server_inflight" in payload["text"]
