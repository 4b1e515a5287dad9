"""Tests for the serving layer: protocol, sharding, the live service.

The service tests boot a real :class:`~repro.serve.server.SimServer`
(with real worker processes) on an ephemeral port inside a background
thread, and talk to it with the synchronous :class:`~repro.serve.Client`
from the test thread -- the same topology as ``repro serve`` plus
``repro submit``, scaled down.

The headline test replays the golden mini-grid of
``tests/test_golden_digest.py`` from two concurrent clients and checks
every served result against the pinned seed digests: the service is
bit-identical to an in-process session, and each unique point simulates
exactly once no matter how many clients ask.
"""

import contextlib
import json
import socket
import threading

import pytest

from repro import __version__
from repro.cpu import SimResult
from repro.exp import PointSpec, Session
from repro.serve import Client, ServeError, SimServer, run_server
from repro.serve import protocol
from repro.serve.shard import build_key, shard_index

import test_golden_digest as golden


# --- protocol -----------------------------------------------------------------

def test_protocol_encode_decode_roundtrip():
    message = {"op": "submit", "protocol": protocol.PROTOCOL_VERSION,
               "points": [{"target": "idct"}]}
    line = protocol.encode(message)
    assert line.endswith(b"\n") and b"\n" not in line[:-1]
    assert protocol.decode(line) == message


def test_protocol_decode_rejects_garbage():
    with pytest.raises(protocol.ProtocolError):
        protocol.decode(b"not json\n")
    with pytest.raises(protocol.ProtocolError):
        protocol.decode(b"[1, 2, 3]\n")        # JSON, but not an object


def test_protocol_check_request_version_handshake():
    assert protocol.check_request(protocol.request("ping")) == "ping"
    with pytest.raises(protocol.ProtocolError, match="protocol mismatch"):
        protocol.check_request({"op": "ping", "protocol": 99})
    with pytest.raises(protocol.ProtocolError):
        protocol.check_request({"protocol": protocol.PROTOCOL_VERSION})


# --- sharding -----------------------------------------------------------------

def test_build_key_groups_points_sharing_a_build():
    a = PointSpec(kind="kernel", target="idct", isa="mom", way=2).payload()
    b = PointSpec(kind="kernel", target="idct", isa="mom", way=8,
                  latency=50).payload()
    c = PointSpec(kind="kernel", target="idct", isa="mmx", way=2).payload()
    assert build_key(a) == build_key(b)        # way/latency don't rebuild
    assert build_key(a) != build_key(c)        # a different ISA does


def test_shard_index_is_stable_and_in_range():
    key = ("kernel", "idct", "mom", 1)
    for shards in (1, 2, 4, 7):
        first = shard_index(key, shards)
        assert 0 <= first < shards
        assert shard_index(key, shards) == first


# --- live service harness -----------------------------------------------------

@contextlib.contextmanager
def live_server(tmp_path, **kwargs):
    """A real server on an ephemeral port, torn down gracefully."""
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("cache_dir", tmp_path / "cache")
    server = SimServer("127.0.0.1", 0, **kwargs)
    started = threading.Event()

    def runner():
        import asyncio

        asyncio.run(run_server(server, started))

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    assert started.wait(60), "server failed to start"
    try:
        yield server
    finally:
        try:
            with Client("127.0.0.1", server.port, timeout=60) as client:
                client.shutdown()
        except (OSError, ServeError):
            pass                       # already stopped by the test
        thread.join(60)
        assert not thread.is_alive(), "server failed to drain"


MINI = tuple(
    PointSpec(kind="kernel", target="idct", isa=isa, way=way)
    for isa in ("mmx", "mom") for way in (2, 4))


def test_ping_handshake_reports_version_salt_and_workers(tmp_path):
    with live_server(tmp_path) as server:
        with Client("127.0.0.1", server.port, timeout=60) as client:
            pong = client.ping()
    assert pong["ok"] and pong["op"] == "pong"
    assert pong["protocol"] == protocol.PROTOCOL_VERSION
    assert pong["version"] == __version__
    assert pong["salt"] == server.session.salt
    assert pong["workers"] == 2
    assert pong["stats"]["workers_alive"] == 2


def test_mismatched_protocol_fails_loudly(tmp_path):
    with live_server(tmp_path) as server:
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=60) as sock:
            sock.sendall(json.dumps(
                {"op": "ping", "protocol": 99}).encode() + b"\n")
            reply = json.loads(sock.makefile().readline())
    assert reply["ok"] is False
    assert "protocol mismatch" in reply["error"]
    assert str(protocol.PROTOCOL_VERSION) in reply["error"]


def test_served_results_match_in_process_session(tmp_path):
    expected = Session(tmp_path / "baseline", jobs=1).run(MINI)
    with live_server(tmp_path) as server:
        with Client("127.0.0.1", server.port, timeout=120) as client:
            served = client.run(MINI)
            again = client.run(MINI)
    assert served == expected
    assert again == expected
    assert server.stats["simulated"] == len(MINI)
    assert server.stats["cache_hits"] == len(MINI)     # the second run
    # Fresh simulations stream unmarked; every replay -- even out of the
    # server's own memo -- carries the cache_hit marker on the wire.
    assert not any(r.meta.get("cache_hit") for r in served.values())
    assert all(r.meta.get("cache_hit") for r in again.values())


def test_submit_streams_results_then_done(tmp_path):
    with live_server(tmp_path) as server:
        with Client("127.0.0.1", server.port, timeout=120) as client:
            messages = list(client.submit_iter(MINI))
    kinds = [m["op"] for m in messages]
    assert kinds[-1] == "done"
    assert kinds[:-1].count("result") == len(MINI)
    assert kinds[0] == "accepted"
    done = messages[-1]
    assert done["simulated"] == len(MINI)
    assert done["cache_hits"] == done["dedup_hits"] == 0
    seqs = sorted(m["seq"] for m in messages if m["op"] == "result")
    assert seqs == list(range(len(MINI)))


def test_failed_point_streams_error_and_shard_survives(tmp_path):
    bad = PointSpec(kind="kernel", target="no_such_kernel", isa="mom", way=4)
    with live_server(tmp_path) as server:
        with Client("127.0.0.1", server.port, timeout=120) as client:
            messages = list(client.submit_iter([bad]))
            failures = [m for m in messages if m["op"] == "result"]
            assert len(failures) == 1 and failures[0]["ok"] is False
            assert "no_such_kernel" in failures[0]["error"]
            with pytest.raises(ServeError, match="no_such_kernel"):
                client.run([bad])
            # The shard that hit the error still serves good points.
            ok = client.run(MINI[:1])
            assert len(ok) == 1
            assert client.stats()["workers_alive"] == 2


def test_submit_rejects_malformed_points(tmp_path):
    with live_server(tmp_path) as server:
        with Client("127.0.0.1", server.port, timeout=60) as client:
            with pytest.raises(ServeError, match="bad point payload"):
                list(client.submit_iter([{"kind": "kernel", "way": 3,
                                          "target": "idct", "isa": "mom"}]))
        with Client("127.0.0.1", server.port, timeout=60) as client:
            with pytest.raises(ServeError, match="points"):
                list(client.submit_iter([]))


def test_cache_round_trip_with_in_process_session(tmp_path):
    """The service and Session share one store, in both directions."""
    cache_dir = tmp_path / "cache"
    warm = Session(cache_dir).run(MINI[:2])                # pre-warm 2 points
    with live_server(tmp_path, cache_dir=cache_dir) as server:
        with Client("127.0.0.1", server.port, timeout=120) as client:
            served = client.run(MINI)
        assert server.stats["cache_hits"] == 2
        assert server.stats["simulated"] == 2
    assert {p: served[p] for p in MINI[:2]} == warm
    after = Session(cache_dir)
    for point in MINI:
        replay = after.lookup(point)
        assert replay is not None and replay == served[point]
        assert replay.meta["cache_hit"] is True


# --- the write path -----------------------------------------------------------

def _count_writes(monkeypatch) -> list[int]:
    """Patch ``StreamWriter.write`` (only the server uses asyncio streams
    here); returns the list the byte count of every write lands in."""
    import asyncio

    sizes: list[int] = []
    write = asyncio.StreamWriter.write

    def counting_write(self, data):
        sizes.append(len(data))
        return write(self, data)

    monkeypatch.setattr(asyncio.StreamWriter, "write", counting_write)
    return sizes


def _hold_batches(monkeypatch, server, keys):
    """Keep the pool from receiving the batches that carry ``keys``: their
    points stay in flight until the returned ``release()`` queues them."""
    pool = server._pool
    submit = pool.submit
    held = []

    def holding_submit(batch, *, span=None):
        if any(key in keys for key, _payload in batch):
            held.append(batch)
            return 0
        return submit(batch, span=span)

    def release():
        while held:
            submit(held.pop(0))

    monkeypatch.setattr(pool, "submit", holding_submit)
    return release


def test_warm_resubmit_is_one_socket_write(tmp_path, monkeypatch):
    """A warm job's accepted, results and done leave in one write."""
    with live_server(tmp_path) as server:
        with Client("127.0.0.1", server.port, timeout=120) as client:
            cold = client.run(MINI)
            writes = _count_writes(monkeypatch)
            messages = list(client.submit_iter(MINI))
            writes = list(writes)
    assert len(writes) == 1
    assert [m["op"] for m in messages] == \
        ["accepted"] + ["result"] * len(MINI) + ["done"]
    results = messages[1:-1]
    assert [m["seq"] for m in results] == list(range(len(MINI)))
    for message, point in zip(results, MINI):
        assert message["ok"] and message["source"] == "cache"
        assert message["point"] == point.payload()
        assert message["result"]["meta"]["cache_hit"] is True
        assert SimResult.from_dict(message["result"]) == cold[point]
    done = messages[-1]
    assert done["cache_hits"] == len(MINI)
    assert done["dedup_hits"] == done["simulated"] == 0


def test_mixed_job_streams_warm_answers_first(tmp_path, monkeypatch):
    """Warm, cold and in-flight (dedup) points in one job: accepted first,
    done last, each seq once, warm answers ahead of simulated ones."""
    cache_dir = tmp_path / "cache"
    warm = MINI[:2]
    Session(cache_dir).run(warm)
    busy = PointSpec(kind="kernel", target="idct", isa="mom", way=8)
    points = [MINI[2], warm[0], busy, MINI[3], warm[1]]
    with live_server(tmp_path, cache_dir=cache_dir) as server:
        release = _hold_batches(monkeypatch, server,
                                {server.session.key_for(busy)})
        with Client("127.0.0.1", server.port, timeout=120) as other, \
                Client("127.0.0.1", server.port, timeout=120) as client:
            other_stream = other.submit_iter([busy])
            assert next(other_stream)["op"] == "accepted"   # busy in flight
            stream = client.submit_iter(points)
            messages = [next(stream) for _ in range(5)]    # all but busy
            release()
            messages += list(stream)
            other_messages = list(other_stream)
    assert messages[0]["op"] == "accepted"
    assert messages[-1]["op"] == "done"
    results = messages[1:-1]
    assert sorted(m["seq"] for m in results) == list(range(len(points)))
    assert all(m["ok"] for m in results)
    sources = [m["source"] for m in results]
    assert sources[:2] == ["cache", "cache"]
    assert sorted(sources[2:]) == ["dedup", "sim", "sim"]
    assert [m["seq"] for m in results[:2]] == [1, 4]
    by_source = {m["seq"]: m["source"] for m in results}
    assert by_source[2] == "dedup"
    done = messages[-1]
    assert (done["cache_hits"], done["dedup_hits"], done["simulated"]) \
        == (2, 1, 2)
    assert done["cache_hits"] + done["dedup_hits"] + done["simulated"] \
        == done["points"] == len(points)
    assert [m["op"] for m in other_messages] == ["result", "done"]
    assert other_messages[0]["result"] == results[
        [m["seq"] for m in results].index(2)]["result"]


def test_accepted_precedes_a_slot_wait(tmp_path, monkeypatch):
    """With one backpressure slot the scan blocks on its second point;
    the client must hear ``accepted`` before that wait, then get every
    result."""
    points = MINI[:3]
    with live_server(tmp_path, max_inflight=1) as server:
        release = _hold_batches(monkeypatch, server,
                                {server.session.key_for(points[0])})
        with Client("127.0.0.1", server.port, timeout=120) as client:
            stream = client.submit_iter(points)
            client._sock.settimeout(30)
            assert next(stream)["op"] == "accepted"   # the scan is blocked
            client._sock.settimeout(120)
            release()
            messages = list(stream)
    assert [m["op"] for m in messages] == ["result"] * 3 + ["done"]
    assert sorted(m["seq"] for m in messages[:-1]) == [0, 1, 2]
    assert all(m["ok"] and m["source"] == "sim" for m in messages[:-1])
    assert messages[-1]["simulated"] == 3


def test_large_warm_job_writes_are_cut(tmp_path, monkeypatch):
    """A warm job larger than one write cut leaves in several writes,
    none longer than the cut plus one message."""
    from repro.serve.server import WRITE_CUT_BYTES

    points = [PointSpec(kind="kernel", target="idct", isa="mom", way=4,
                        latency=latency) for latency in range(1, 401)]
    with live_server(tmp_path) as server:
        for latency, point in enumerate(points, 1):
            server.session.store(point, SimResult(
                cycles=1000 + latency, instructions=500, operations=800))
        with Client("127.0.0.1", server.port, timeout=120) as client:
            writes = _count_writes(monkeypatch)
            messages = list(client.submit_iter(points))
            writes = list(writes)
    assert [m["op"] for m in messages] == \
        ["accepted"] + ["result"] * len(points) + ["done"]
    assert [m["seq"] for m in messages[1:-1]] == list(range(len(points)))
    assert [m["result"]["cycles"] for m in messages[1:-1]] == \
        [1000 + latency for latency in range(1, 401)]
    lines = [len(protocol.encode(m)) for m in messages]
    assert sum(writes) == sum(lines)
    assert sum(writes) > 2 * WRITE_CUT_BYTES
    assert len(writes) >= 3
    assert max(writes) < WRITE_CUT_BYTES + max(lines)


# --- the golden mini-grid, served ---------------------------------------------

def _golden_point(kernel, isa, way, memory_label) -> PointSpec:
    """The PointSpec equivalent of one golden mini-grid coordinate."""
    cache_name = {"alpha": "conventional", "mmx": "conventional",
                  "mdmx": "conventional", "mom": "multiaddress"}
    if memory_label == "perfect":
        return PointSpec(kind="kernel", target=kernel, isa=isa, way=way)
    if memory_label == "latency50":
        return PointSpec(kind="kernel", target=kernel, isa=isa, way=way,
                         latency=50)
    memory = (cache_name[isa] if memory_label == "cache" else memory_label)
    return PointSpec(kind="kernel", target=kernel, isa=isa, way=way,
                     memory=memory)


def test_two_concurrent_clients_reproduce_golden_digests(tmp_path):
    """Service determinism: the full golden mini-grid, two clients at once.

    Every digest streamed to either client must equal the pinned seed
    digest, and each unique point must be simulated exactly once across
    both clients (the rest answered by cache or in-flight dedup).
    """
    coords = list(golden.grid_points())
    points = [_golden_point(*c) for c in coords]
    outcomes: dict[str, dict] = {}
    errors: list[BaseException] = []

    def one_client(name, port):
        try:
            with Client("127.0.0.1", port, timeout=600) as client:
                outcomes[name] = client.run(points)
        except BaseException as exc:       # surfaced by the main thread
            errors.append(exc)

    with live_server(tmp_path, workers=2) as server:
        threads = [threading.Thread(target=one_client,
                                    args=(f"c{i}", server.port))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(600)
        stats = dict(server.stats)
    assert not errors, errors
    assert set(outcomes) == {"c0", "c1"}

    for name, results in outcomes.items():
        for coord, point in zip(coords, points):
            digest = golden.result_digest(results[point])
            assert digest == golden.GOLDEN_DIGESTS[coord], (name, coord)

    # 2 x N submitted points: N simulations, N cache-or-dedup answers.
    unique = len(points)
    assert stats["simulated"] == unique
    assert stats["cache_hits"] + stats["dedup_hits"] == unique
    assert stats["errors"] == 0


# --- worker death: no leaked slots, capacity recovers --------------------------

#: The point a worker-kill test kills its worker on.
DOOMED = PointSpec(kind="kernel", target="idct", isa="mom", way=8)


def _block_doomed_point(monkeypatch):
    """Make ``execute_group`` -- which a shard worker imports when it
    starts -- set the returned event and then block on :data:`DOOMED`,
    so a kill after the event lands while the worker is mid-execution.
    Patched before the pool forks its worker, so the worker inherits it;
    every other point runs as usual."""
    import multiprocessing

    from repro.exp import engine

    started = multiprocessing.Event()
    execute_group = engine.execute_group

    def blocking(points, *args, **kwargs):
        if list(points) == [DOOMED]:
            started.set()
            threading.Event().wait()      # until the test kills the worker
        return execute_group(points, *args, **kwargs)

    monkeypatch.setattr(engine, "execute_group", blocking)
    return started


def test_shard_pool_fails_pending_keys_of_killed_worker_and_respawns(
        monkeypatch):
    """Pool-level regression: SIGKILL a worker mid-batch.  Its outstanding
    keys must be reported as errors (so the owner can resolve futures and
    release backpressure slots) and the worker must be respawned."""
    from repro.serve.shard import ShardPool

    results: dict[str, tuple] = {}
    done = threading.Event()

    def on_result(key, result, error):
        results[key] = (result, error)
        done.set()

    started = _block_doomed_point(monkeypatch)
    pool = ShardPool(1, on_result)
    try:
        assert pool._ctx.get_start_method() == "fork"
        pool.submit([("doomedkey", DOOMED.payload())])
        assert started.wait(60), "the worker never began the point"
        pool._procs[0].kill()
        assert done.wait(30), "killed worker's key was never failed"
        result, error = results["doomedkey"]
        assert result is None and "died" in error
        # Respawn may lag the key failure by the flap backoff (a worker
        # dying young is treated as flapping); waiters never wait on it.
        import time
        deadline = time.time() + 10
        while pool.alive() < 1 and time.time() < deadline:
            time.sleep(0.05)
        assert pool.restarts == 1
        assert pool.alive() == 1          # respawned on a fresh queue
    finally:
        pool.close()


def test_killed_worker_streams_error_and_capacity_recovers(tmp_path,
                                                           monkeypatch):
    """Server-level regression: with a single backpressure slot, a worker
    killed mid-simulation used to strand the in-flight future forever --
    the slot never released and every later submit hung.  Now the client
    gets an ok:false result for the doomed point, and a follow-up submit
    simulates normally on the respawned worker (proof the slot came back:
    with max_inflight=1 a leak would deadlock it)."""
    started = _block_doomed_point(monkeypatch)
    with live_server(tmp_path, workers=1, max_inflight=1) as server:
        assert server._pool._ctx.get_start_method() == "fork"
        with Client("127.0.0.1", server.port, timeout=120) as client:
            stream = client.submit_iter([DOOMED])
            accepted = next(stream)
            assert accepted["op"] == "accepted"
            assert started.wait(60), "the worker never began the point"
            server._pool._procs[0].kill()
            messages = list(stream)
        kinds = [m["op"] for m in messages]
        assert kinds[-1] == "done"
        failures = [m for m in messages if m["op"] == "result"]
        assert len(failures) == 1 and failures[0]["ok"] is False
        assert "died" in failures[0]["error"]
        assert server.stats["errors"] == 1

        # Capacity recovered: the single slot is free again and the
        # respawned worker serves a fresh simulation point.
        with Client("127.0.0.1", server.port, timeout=120) as client:
            ok = client.run([MINI[0]])
            assert len(ok) == 1
            assert client.stats()["workers_alive"] == 1


def test_worker_killed_while_idle_does_not_poison_the_queue():
    """A worker killed while *blocked in queue.get()* dies holding the
    task queue's reader lock.  The watchdog must hand the respawned
    worker a fresh queue -- on the old one its first get() would
    deadlock and the shard would wedge while looking alive."""
    import time

    results: dict[str, tuple] = {}
    arrived = threading.Event()

    def on_result(key, result, error):
        results[key] = (result, error)
        arrived.set()

    from repro.serve.shard import ShardPool

    pool = ShardPool(1, on_result)
    try:
        time.sleep(0.3)                   # worker parked inside get()
        pool._procs[0].kill()
        deadline = time.time() + 10
        while pool.restarts < 1 and time.time() < deadline:
            time.sleep(0.05)
        assert pool.restarts == 1

        # The respawned worker must actually consume from the new queue.
        quick = PointSpec(kind="kernel", target="idct", isa="mom",
                          way=2).payload()
        pool.submit([("afterkey", quick)])
        assert arrived.wait(120), "respawned worker never served a batch"
        result, error = results["afterkey"]
        assert error is None and result["cycles"] > 0
    finally:
        pool.close()


def test_multi_point_task_runs_through_batch_core():
    """A same-build multi-point task runs as one BatchCore lane group:
    results stream back per point, bit-identical to a one-lane
    ``execute_group``, with the batch provenance recorded in meta."""
    from repro.cpu import SimResult
    from repro.exp.engine import execute_group
    from repro.serve.shard import ShardPool

    batch = [(f"k{way}", PointSpec(kind="kernel", target="idct", isa="mom",
                                   way=way).payload())
             for way in (1, 2, 4, 8)]
    results: dict[str, tuple] = {}
    done = threading.Event()

    def on_result(key, result, error):
        results[key] = (result, error)
        if len(results) == len(batch):
            done.set()

    pool = ShardPool(1, on_result)
    try:
        pool.submit(batch)
        assert done.wait(300), "batched task never completed"
    finally:
        pool.close()

    for key, payload in batch:
        got, error = results[key]
        assert error is None
        assert got["meta"]["batch_lanes"] == len(batch)
        assert SimResult.from_dict(got) == \
            execute_group([PointSpec.from_payload(payload)])[0]


def test_failing_lane_is_retried_point_by_point():
    """When a task's lane group raises, the worker retries each point
    alone: the failing point reports its error, its sibling still
    answers, equal to running it by itself."""
    from repro.cpu import SimResult
    from repro.exp.engine import execute_group
    from repro.serve.shard import ShardPool

    batch = [(memory, PointSpec(kind="kernel", target="idct", isa="mom",
                                way=4, memory=memory).payload())
             for memory in ("conventional", "vectorcache")]
    results: dict[str, tuple] = {}
    done = threading.Event()

    def on_result(key, result, error):
        results[key] = (result, error)
        if len(results) == len(batch):
            done.set()

    pool = ShardPool(1, on_result)
    try:
        pool.submit(batch)
        assert done.wait(300), "task never completed"
    finally:
        pool.close()

    result, error = results["conventional"]
    assert result is None
    assert "conventional hierarchy cannot issue matrix accesses" in error
    result, error = results["vectorcache"]
    assert error is None
    assert SimResult.from_dict(result) == \
        execute_group([PointSpec.from_payload(batch[1][1])])[0]
