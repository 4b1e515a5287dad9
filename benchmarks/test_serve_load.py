"""Serve load benchmark: multi-client aggregate throughput vs one Session.

Replays a figure5+figure7-sized grid through a load pattern modeled on
how a shared service is actually hit -- many clients asking for the
same popular grids -- in three passes:

1. **baseline** -- a single sequential in-process :class:`Session` runs
   the grid once on a cold cache: the pre-service cost of answering one
   client.
2. **cold storm** -- ``CLIENTS`` concurrent clients each submit the
   full grid to a freshly booted server (``WORKERS`` shards, cold
   cache).  In-flight dedup collapses the storm to one simulation per
   unique point; client-observed p50/p95 per-point latencies are taken
   here.
3. **replay** -- the same clients immediately re-submit the grid; the
   warm cache answers without touching a worker.

The headline numbers: ``aggregate.speedup_vs_baseline`` -- total points
answered across all clients and passes divided by total service wall,
over the baseline's points/sec -- must be >= 2x, and the replay pass
must show a >= 90% dedup-or-cache hit rate.  Both are sanity-asserted
on the full grid.

The server pool is forked *before* the baseline runs so its workers
inherit no memoized builds -- both sides pay full build costs.

Set ``REPRO_BENCH_SMOKE=1`` (CI) to shrink the grid.
"""

import asyncio
import os
import shutil
import threading
import time

from repro.exp import Session, preset
from repro.serve import Client, SimServer, run_server

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
WORKERS = 2 if SMOKE else 4
CLIENTS = 2


def load_grid():
    """The benchmark grid: figure5 + figure7 (shrunk under SMOKE)."""
    fig5, fig7 = preset("figure5"), preset("figure7")
    if SMOKE:
        fig5 = fig5.replace(targets=("idct", "motion2"), ways=(2, 4))
        fig7 = fig7.replace(targets=("jpeg_encode",), ways=(4,))
    return fig5.points() + fig7.points()


def percentile(values, fraction):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def boot_server(cache_dir):
    """A live server on an ephemeral port; returns (server, thread)."""
    server = SimServer("127.0.0.1", 0, workers=WORKERS, cache_dir=cache_dir)
    started = threading.Event()

    def runner():
        asyncio.run(run_server(server, started))

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    assert started.wait(60), "server failed to start"
    return server, thread


def timed_submit(port, points):
    """Submit a grid; returns (seconds, per-point latencies, done message)."""
    latencies = []
    done = {}
    start = time.perf_counter()
    with Client("127.0.0.1", port, timeout=1800) as client:
        for message in client.submit_iter(points):
            if message["op"] == "result":
                assert message["ok"], message
                latencies.append(time.perf_counter() - start)
            elif message["op"] == "done":
                done = message
    return time.perf_counter() - start, latencies, done


def storm(port, points, clients):
    """``clients`` concurrent full-grid submits; returns per-client data."""
    outcomes = {}
    errors = []

    def one_client(name):
        try:
            outcomes[name] = timed_submit(port, points)
        except BaseException as exc:
            errors.append(exc)

    start = time.perf_counter()
    threads = [threading.Thread(target=one_client, args=(f"c{i}",))
               for i in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(1800)
    wall = time.perf_counter() - start
    assert not errors, errors
    assert len(outcomes) == clients
    return wall, outcomes


def test_serve_load(tmp_path):
    points = load_grid()
    n = len(points)

    # Fork the shard pool before any build is memoized in this process,
    # so the served phases cannot inherit work the baseline already did.
    server, thread = boot_server(tmp_path / "serve-cache")

    base_start = time.perf_counter()
    baseline_session = Session(tmp_path / "baseline-cache", jobs=1)
    baseline_results = baseline_session.run(points)
    baseline_s = time.perf_counter() - base_start
    assert baseline_session.misses == n       # genuinely cold
    baseline_pps = n / baseline_s

    cold_s, cold = storm(server.port, points, CLIENTS)
    cold_dones = [done for (_, _, done) in cold.values()]
    assert sum(d["simulated"] for d in cold_dones) == n, \
        "dedup must collapse the storm to one simulation per unique point"
    latencies = [lat for (_, lats, _) in cold.values() for lat in lats]

    replay_s, replay = storm(server.port, points, CLIENTS)
    replay_dones = [done for (_, _, done) in replay.values()]
    answered = sum(d["cache_hits"] + d["dedup_hits"] for d in replay_dones)
    hit_rate = answered / (CLIENTS * n)

    with Client("127.0.0.1", server.port, timeout=60) as client:
        stats = client.stats()
        assert stats["workers_alive"] == WORKERS, "a shard worker died"
        served = client.run(points[:1])       # spot-check result identity
        client.shutdown()
    thread.join(60)
    assert served[points[0]] == baseline_results[points[0]]

    total_answered = 2 * CLIENTS * n          # both passes, every client
    aggregate_pps = total_answered / (cold_s + replay_s)
    speedup = aggregate_pps / baseline_pps
    shutil.rmtree(tmp_path, ignore_errors=True)
    print(f"\nserve load: {n} points x {CLIENTS} clients x 2 passes, "
          f"{WORKERS} workers -- baseline {baseline_pps:.2f} pts/s, "
          f"aggregate {aggregate_pps:.2f} pts/s ({speedup:.2f}x), "
          f"cold p50/p95 {percentile(latencies, 0.50):.3f}/"
          f"{percentile(latencies, 0.95):.3f}s, "
          f"replay hit rate {hit_rate:.0%}")

    # The smoke grid is too small to amortize builds, so the throughput
    # bound is only enforced on the real grid.
    if not SMOKE:
        assert speedup >= 2.0
    assert hit_rate >= 0.9
