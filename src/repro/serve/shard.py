"""Hash-sharded simulation worker pool with per-shard build affinity.

Every :class:`~repro.exp.spec.PointSpec` belongs to exactly one shard,
chosen by a stable content hash of its *build identity* -- ``(kind,
target, isa, scale)`` -- modulo the pool width.  All points that share a
build therefore land on the same worker process, whose per-process
:data:`repro.exp.engine._BUILD_MEMO` builds and verifies the trace once
and then serves every sibling point from memory.  The server batches
same-build points into one task for the same reason: the worker runs the
batch as the lanes of one ``BatchCore`` pass, so the task builds and
decodes its trace once.

Workers receive task batches over a per-shard queue and report each
point individually on one shared result queue as soon as it finishes,
so results stream back in completion order.  A collector thread drains
the result queue and hands ``(key, result_dict, error)`` triples to the
callback supplied by the owner (the asyncio server bridges them onto its
event loop with ``call_soon_threadsafe``).

Every submitted key is tracked until its result is reported, and a
watchdog thread monitors worker liveness: if a worker process dies (OOM
kill, segfault, operator ``kill -9``) the watchdog reports an error for
each of the dead shard's outstanding keys, replaces the shard's task
queue (a worker killed inside ``get()`` dies holding the queue's reader
lock, which would deadlock a respawn on the same queue) and spawns a
fresh worker -- backing off exponentially when workers die young, so a
persistently crashing worker (broken deploy, startup OOM) cannot turn
the watchdog into a fork storm.  Without this, a dead worker silently
stranded its keys --
the server's in-flight futures never resolved and their backpressure
slots never released, permanently shrinking service capacity; batches
still queued for the shard would also never run.  The owner treats a
straggling result for an already-failed key as a no-op, so the recovery
is idempotent from its side.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import threading
import time
import traceback

_STOP = None      # queue sentinel


def build_key(payload: dict) -> tuple:
    """The build identity of a point payload: what :func:`built_kernel` /
    :func:`built_app` memoize on."""
    return (payload["kind"], payload["target"], payload["isa"],
            payload.get("scale", 1))


def shard_index(key: tuple, shards: int) -> int:
    """Stable shard assignment for a build key.

    Derived from sha256 of the repr, never :func:`hash`, so the mapping
    survives hash randomization and is identical in every process --
    clients and tests can predict placement.
    """
    digest = hashlib.sha256(repr(key).encode()).digest()
    return int.from_bytes(digest[:8], "big") % shards


def _shard_worker(task_queue, result_queue) -> None:
    """Worker-process main loop: execute point batches, stream results.

    A task is either a plain ``[(key, payload), ...]`` batch or a
    ``(batch, span_handle)`` pair: with a handle the worker records a
    ``worker.sim`` span (plus the engine's build/sim/phase spans) under
    it into a local memory sink and ships the finished records on the
    *last* result item of the task -- a 4-tuple ``(key, result, error,
    spans)`` -- for the server's tracer to stitch.
    """
    import signal

    from ..exp.engine import execute_group
    from ..exp.spec import PointSpec
    from ..obs import OBS_OFF, Obs

    # Ctrl-C on `repro serve` delivers SIGINT to the whole foreground
    # process group; the server's own handler drives the graceful drain,
    # and workers must keep simulating through it rather than failing
    # their in-flight points with KeyboardInterrupt.
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    while True:
        task = task_queue.get()
        if task is _STOP:
            break
        if isinstance(task, tuple):
            batch, parent = task
        else:
            batch, parent = task, None
        obs = Obs.make(trace_id=parent[0]) if parent is not None else OBS_OFF
        span = obs.tracer.span("worker.sim", parent=parent,
                               points=len(batch))
        remaining = len(batch)

        def report(key, result, error):
            """Queue one result; the task's last one carries the spans."""
            nonlocal remaining
            remaining -= 1
            if remaining == 0 and parent is not None:
                span.end()
                result_queue.put((key, result, error, obs.sink.drain()))
            else:
                result_queue.put((key, result, error))

        # Batches are same-build by construction (submit() asserts it),
        # so a task is exactly a BatchCore lane group: one decode pass
        # for the whole batch.  Any failure -- an invalid lane, a model
        # error -- is retried one point at a time, which reports errors
        # point by point, so one failing point does not fail the rest of
        # its batch.
        if len(batch) > 1:
            try:
                points = [PointSpec.from_payload(p) for _, p in batch]
                results = execute_group(points, obs=obs, parent=span)
            except Exception:
                pass           # diagnose per point below
            else:
                for (key, _payload), result in zip(batch, results):
                    report(key, result.to_dict(), None)
                continue
        for key, payload in batch:
            try:
                (result,) = execute_group([PointSpec.from_payload(payload)],
                                          obs=obs, parent=span)
                report(key, result.to_dict(), None)
            except Exception as exc:   # report, never kill the shard
                detail = "".join(
                    traceback.format_exception_only(type(exc), exc)).strip()
                report(key, None, detail)


class ShardPool:
    """A fixed pool of simulation worker processes.

    Args:
        workers: shard count (one process per shard).
        on_result: called as ``on_result(key, result_dict, error)`` from
            the collector thread for every finished point, and from the
            watchdog thread for points failed by a worker death.  Exactly
            one of ``result_dict`` / ``error`` is non-``None``.  When a
            task was submitted with a span handle, the task's last
            result arrives as ``on_result(key, result_dict, error,
            spans)`` carrying the worker's finished span records --
            callbacks that never pass ``span=`` to :meth:`submit` keep
            the 3-argument form.

    Observability counters (all exposed through the server's ``stats``/
    ``metrics`` snapshot): :attr:`deaths` worker processes found dead,
    :attr:`restarts` respawns performed, :attr:`failed_keys` points
    failed because their worker died; :meth:`queue_depths` reports the
    submitted-but-unreported key count per shard.
    """

    #: Seconds between worker-liveness checks.
    WATCH_INTERVAL = 0.25

    #: A worker that dies younger than this is "crashing at startup";
    #: its shard's respawns back off exponentially (up to
    #: :data:`MAX_BACKOFF_SECONDS`) instead of fork-storming -- a broken
    #: deploy or an OOM-killed interpreter would otherwise be respawned
    #: every watch tick, several forks per second, forever.
    FLAP_SECONDS = 5.0
    MAX_BACKOFF_SECONDS = 30.0

    def __init__(self, workers: int, on_result) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self.workers = workers
        self.restarts = 0
        self.deaths = 0
        self.failed_keys = 0
        self._on_result = on_result
        self._ctx = ctx = multiprocessing.get_context()
        self._results = ctx.SimpleQueue()
        self._tasks = [ctx.SimpleQueue() for _ in range(workers)]
        self._spawned_at = [0.0] * workers
        self._respawn_at = [0.0] * workers
        self._backoff = [0.0] * workers
        self._procs: list = [self._spawn(i) for i in range(workers)]
        #: key -> shard, for every submitted-but-unreported point.
        self._pending: dict[str, int] = {}
        self._lock = threading.Lock()
        self._closed = False
        self._collector = threading.Thread(
            target=self._collect, name="repro-shard-collector", daemon=True)
        self._collector.start()
        self._watchdog = threading.Thread(
            target=self._watch, name="repro-shard-watchdog", daemon=True)
        self._watchdog.start()

    def _spawn(self, shard: int):
        proc = self._ctx.Process(
            target=_shard_worker, args=(self._tasks[shard], self._results),
            daemon=True, name=f"repro-shard-{shard}")
        proc.start()
        self._spawned_at[shard] = time.monotonic()
        return proc

    # --- submission -------------------------------------------------------

    def shard_for(self, payload: dict) -> int:
        return shard_index(build_key(payload), self.workers)

    def submit(self, batch: list[tuple[str, dict]], *,
               span=None) -> int:
        """Queue one same-build batch of ``(key, payload)``; returns the
        shard it was routed to.  Callers group by :func:`build_key` --
        the pool routes by the first element and asserts homogeneity.

        ``span`` is an optional parent span handle (a picklable
        ``(trace_id, span_id)`` tuple); the worker then traces its
        execution under it and ships the records back on the task's
        last result (see ``on_result``).
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        keys = {build_key(payload) for _, payload in batch}
        if len(keys) != 1:
            raise ValueError(f"batch mixes builds: {sorted(keys)}")
        shard = shard_index(next(iter(keys)), self.workers)
        task = batch if span is None else (batch, tuple(span))
        # The put happens under the lock so it is atomic with the
        # watchdog's queue replacement: a batch must never land on a
        # queue whose (dead) reader has just been swapped out, or its
        # keys would wait forever behind an apparently healthy worker.
        with self._lock:
            for key, _payload in batch:
                self._pending[key] = shard
            self._tasks[shard].put(task)
        return shard

    # --- lifecycle --------------------------------------------------------

    def _collect(self) -> None:
        while True:
            item = self._results.get()
            if item is _STOP:
                break
            with self._lock:
                self._pending.pop(item[0], None)
            # Items are (key, result, error) or, for a task's last
            # result when it was submitted with a span handle,
            # (key, result, error, spans) -- forwarded verbatim, so
            # 3-argument callbacks only ever see 3-argument calls.
            self._on_result(*item)

    def _watch(self) -> None:
        """Fail the keys of dead workers and respawn them (see module doc)."""
        while not self._closed:
            for shard in range(self.workers):
                if self._closed:
                    break
                proc = self._procs[shard]
                if proc is not None and proc.is_alive():
                    continue
                if proc is not None:
                    self.deaths += 1
                    # Just died.  Fail its outstanding keys right away
                    # (waiters must not wait out the backoff) and decide
                    # when the shard may respawn: a worker that died
                    # young is flapping and backs off exponentially.
                    now = time.monotonic()
                    flapping = (now - self._spawned_at[shard]
                                < self.FLAP_SECONDS)
                    self._backoff[shard] = (
                        min(self.MAX_BACKOFF_SECONDS,
                            max(1.0, self._backoff[shard] * 2))
                        if flapping else 0.0)
                    with self._lock:
                        dead = [key for key, s in self._pending.items()
                                if s == shard]
                        for key in dead:
                            del self._pending[key]
                        # A worker killed while blocked in its queue's
                        # get() dies *holding the queue's reader lock*
                        # (SimpleQueue wraps the whole blocking recv in
                        # it, and process death does not release
                        # multiprocessing locks), so a respawn on the old
                        # queue would deadlock on its first get.  Replace
                        # the queue; batches still sitting in the old one
                        # are exactly the outstanding keys, failed below.
                        # Batches submitted during the backoff window
                        # queue here and run once the shard respawns.
                        self._tasks[shard] = self._ctx.SimpleQueue()
                        self._procs[shard] = None
                        self._respawn_at[shard] = now + self._backoff[shard]
                    detail = (f"worker shard-{shard} died "
                              f"(exit code {proc.exitcode}); restarting")
                    self.failed_keys += len(dead)
                    for key in dead:
                        self._on_result(key, None, detail)
                if (self._procs[shard] is None
                        and time.monotonic() >= self._respawn_at[shard]):
                    with self._lock:
                        self.restarts += 1
                        self._procs[shard] = self._spawn(shard)
            time.sleep(self.WATCH_INTERVAL)

    def alive(self) -> int:
        """How many worker processes are currently alive."""
        return sum(proc is not None and proc.is_alive()
                   for proc in self._procs)

    def queue_depths(self) -> list[int]:
        """Submitted-but-unreported key count per shard (queue depth)."""
        depths = [0] * self.workers
        with self._lock:
            for shard in self._pending.values():
                depths[shard] += 1
        return depths

    def close(self, timeout: float = 30.0) -> None:
        """Stop workers after their queued tasks finish and join them."""
        if self._closed:
            return
        self._closed = True
        self._watchdog.join(timeout)
        for queue in self._tasks:
            queue.put(_STOP)
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout)
            if proc.is_alive():     # refused to drain: don't hang shutdown
                proc.terminate()
                proc.join(5)
        self._results.put(_STOP)
        self._collector.join(timeout)
