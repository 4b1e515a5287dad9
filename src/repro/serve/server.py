"""The asyncio simulation job server.

One :class:`SimServer` owns a :class:`~repro.exp.engine.Session` (and
through it the persistent :class:`~repro.exp.cache.ResultCache`) plus a
:class:`~repro.serve.shard.ShardPool` of worker processes, and serves
the newline-delimited JSON protocol of :mod:`repro.serve.protocol` to
any number of concurrent clients:

* **Cache first** -- a point whose result is already in the session
  memo or the on-disk cache is answered on the event loop as soon as
  the job's scan ends; no worker is touched.  The service and
  in-process sessions share one source-fingerprinted store, so either
  side can warm the other.
* **Dedup** -- identical points in flight (same content hash, any
  client) share one future; the simulation runs once and every waiter
  receives the same bits.
* **Shard + batch** -- cache misses are grouped by build identity and
  queued to the shard that owns that build (see
  :mod:`repro.serve.shard`), so a worker builds each kernel/app once
  and then answers its whole batch from the build memo.
* **Batched writes** -- the answers ready when the scan ends (cache
  hits and in-flight futures already resolved) are encoded in ``seq``
  order and leave with ``accepted`` (and ``done`` when nothing is
  left in flight) in writes cut at about 64 KiB, so a warm job is one
  socket write per 64 KiB.  Points still simulating stream one write each.
* **Backpressure** -- a global in-flight budget (``max_inflight``,
  default ``8 x workers``) bounds queued-but-unfinished simulations;
  a submit that exceeds it sends ``accepted`` and waits instead of
  ballooning worker queues, and every write awaits ``writer.drain()``,
  so a slow reader holds its job back.
* **Graceful drain** -- shutdown (the ``shutdown`` op or
  :meth:`SimServer.stop`) stops accepting work, lets in-flight points
  finish and be streamed/cached, then joins the pool.

Failure modes: a point whose build or simulation raises streams back an
``ok: false`` result for that point only (the shard survives); a client
that disconnects mid-job does not cancel its simulations -- they finish
and warm the cache for the next asker; a worker process killed from
outside has its outstanding points failed and its process respawned by
the shard pool's watchdog (see :mod:`repro.serve.shard`), so the
in-flight futures resolve, their backpressure slots release, and
capacity recovers instead of shrinking for the life of the server.
Worker churn is visible to clients: the ``stats``/``metrics`` snapshot
carries ``workers_alive``, ``worker_deaths``, ``worker_respawns``,
``worker_failed_keys`` and per-shard queue depths, and the ``metrics``
op adds a Prometheus-style exposition with submit-to-answer latency
percentiles (see :mod:`repro.obs`).
"""

from __future__ import annotations

import asyncio

from .. import __version__
from ..cpu import SimResult
from ..exp.engine import Session
from ..exp.spec import PointSpec
from ..obs import Obs, Registry, obs_from_env, render_prometheus
from ..obs.spans import NULL_TRACER
from . import protocol
from .shard import ShardPool, build_key


#: Answers ready when a submit scan ends leave in writes of about this
#: many bytes (the write that crosses it ends it), each followed by
#: ``drain()``, so a slow reader still backpressures the server.
WRITE_CUT_BYTES = 64 * 1024


def _result_line(job, seq: int, payload: dict, source: str,
                 result: dict | None, error: str | None) -> bytes:
    """One encoded ``result`` message for the point at ``seq``."""
    response = {"ok": error is None, "op": "result", "id": job, "seq": seq,
                "source": source, "point": payload}
    if error is None:
        response["result"] = result
    else:
        response["error"] = error
    return protocol.encode(response)


class SimServer:
    """Sharded, deduplicating simulation service over asyncio TCP.

    Args:
        host/port: bind address; ``port=0`` picks a free port (see
            :attr:`port` after :meth:`start`).
        workers: shard-pool width (worker processes).
        cache_dir / use_cache: forwarded to :class:`Session`.
        max_inflight: in-flight simulation budget (default ``8*workers``).
        allow_shutdown: honor the ``shutdown`` op (CLI/CI convenience);
            disable for servers that should only die by signal.
        obs: telemetry bundle.  The server's *metrics* are always live
            (a server exists to be watched; the ``metrics`` op and
            ``repro stats`` read them), so when the environment doesn't
            enable telemetry the default is a metrics-only bundle with
            tracing off.  Span tracing (client request → shard dispatch
            → worker sim → flush, worker spans stitched back) turns on
            via ``REPRO_OBS_TRACE=path`` / ``REPRO_OBS=1`` or an
            explicit ``obs``.
    """

    def __init__(self, host: str = protocol.DEFAULT_HOST,
                 port: int = protocol.DEFAULT_PORT, *,
                 workers: int = 2, cache_dir=None, use_cache: bool = True,
                 max_inflight: int | None = None,
                 allow_shutdown: bool = True,
                 obs: Obs | None = None) -> None:
        self.host = host
        self.port = port
        self.workers = workers
        self.allow_shutdown = allow_shutdown
        if obs is None:
            obs = obs_from_env()
            if not obs.enabled:
                obs = Obs(Registry(), NULL_TRACER, enabled=True)
        self.obs = obs
        self.metrics = obs.metrics
        self.session = Session(cache_dir, use_cache=use_cache, obs=obs)
        self.stats = {"connections": 0, "jobs": 0, "points": 0,
                      "cache_hits": 0, "dedup_hits": 0, "simulated": 0,
                      "errors": 0}
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self._max_inflight = (8 * workers if max_inflight is None
                              else max_inflight)
        #: content hash -> (PointSpec, future resolving to (result, error))
        self._inflight: dict[str, tuple[PointSpec, asyncio.Future]] = {}
        self._pool: ShardPool | None = None
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._slots: asyncio.Semaphore | None = None
        self._draining = False
        self._stopped: asyncio.Event | None = None
        self._active_jobs = 0
        self._writers: set[asyncio.StreamWriter] = set()

    # --- lifecycle --------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Spawn the shard pool and start listening; returns (host, port)."""
        self._loop = asyncio.get_running_loop()
        self._slots = asyncio.Semaphore(self._max_inflight)
        self._stopped = asyncio.Event()
        self._pool = ShardPool(self.workers, self._on_worker_result)
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port,
            limit=protocol.MAX_LINE_BYTES)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.host, self.port

    async def serve_forever(self) -> None:
        """Block until :meth:`stop` completes (directly or via shutdown op)."""
        await self._stopped.wait()

    async def stop(self) -> None:
        """Graceful drain: finish in-flight work, then tear everything down."""
        if self._draining:
            await self._stopped.wait()
            return
        self._draining = True
        self._server.close()
        pending = [fut for _, fut in self._inflight.values()]
        if pending:
            await asyncio.gather(*(asyncio.shield(f) for f in pending),
                                 return_exceptions=True)
        # Let handlers flush their final result/done messages.  Wait as
        # long as *some* job keeps finishing (a slow reader draining a
        # big backlog is progress); only a job count frozen for a full
        # window means a wedged peer, which gets force-closed.
        last_active = self._active_jobs
        stalled = self._loop.time()
        while self._active_jobs:
            if self._active_jobs != last_active:
                last_active = self._active_jobs
                stalled = self._loop.time()
            elif self._loop.time() - stalled > 10.0:
                break
            await asyncio.sleep(0.025)
        for writer in list(self._writers):
            writer.close()
        await self._loop.run_in_executor(None, self._pool.close)
        await self._server.wait_closed()
        self._stopped.set()

    # --- worker plumbing --------------------------------------------------

    def _on_worker_result(self, key: str, result: dict | None,
                          error: str | None, spans=None) -> None:
        """Collector-thread callback; bridge onto the event loop."""
        self._loop.call_soon_threadsafe(self._complete, key, result, error,
                                        spans)

    def _complete(self, key: str, result: dict | None,
                  error: str | None, spans=None) -> None:
        if spans:
            # Worker span records ship on a task's last result; stitch
            # them into the server's trace (same trace id by handle).
            self.obs.tracer.adopt(spans)
        entry = self._inflight.pop(key, None)
        if entry is None:      # defensive: never let a callback raise and
            return             # strand waiters -- every key completes once
        self._slots.release()  # exactly one release per registration
        point, future = entry
        if error is None:
            # Store through the session so later submits and in-process
            # Sessions see this result: the memo synchronously (lookups
            # after this callback must hit), the disk write off-loop so
            # a storm of completions cannot stall response streaming.
            fresh = SimResult.from_dict(result)
            self.session.memoize(point, fresh)
            self._loop.run_in_executor(None, self.session.persist,
                                       point, fresh)
        else:
            self.stats["errors"] += 1
        if not future.done():
            future.set_result((result, error))

    # --- request handling -------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self.stats["connections"] += 1
        self._writers.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._send(writer, protocol.error_response(
                        "request line too long"))
                    break
                if not line:
                    break
                try:
                    message = protocol.decode(line)
                    op = protocol.check_request(message)
                except protocol.ProtocolError as exc:
                    await self._send(writer, protocol.error_response(
                        str(exc), version=__version__))
                    break       # a confused peer gets one loud error
                if not await self._dispatch(op, message, writer):
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass                # client went away; in-flight sims continue
        finally:
            self._writers.discard(writer)
            writer.close()

    async def _dispatch(self, op: str, message: dict,
                        writer: asyncio.StreamWriter) -> bool:
        """Handle one request; returns False to end the connection."""
        if op == "ping":
            await self._send(writer, {
                "ok": True, "op": "pong",
                "protocol": protocol.PROTOCOL_VERSION,
                "version": __version__, "salt": self.session.salt,
                "workers": self.workers, "stats": self._stat_snapshot()})
            return True
        if op == "stats":
            await self._send(writer, {"ok": True, "op": "stats",
                                      "stats": self._stat_snapshot()})
            return True
        if op == "metrics":
            # Additive op (see protocol docstring): Prometheus text plus
            # a JSON snapshot of the same registry.  _sync_metrics runs
            # inside the snapshot call; everything here is in-memory, so
            # the event loop is never blocked by a metrics poll.
            snapshot = self._stat_snapshot()
            await self._send(writer, {
                "ok": True, "op": "metrics",
                "text": render_prometheus(self.metrics),
                "stats": snapshot,
                "metrics": self.metrics.snapshot()})
            return True
        if op == "shutdown":
            if not self.allow_shutdown:
                await self._send(writer, protocol.error_response(
                    "shutdown disabled on this server"))
                return True
            await self._send(writer, {"ok": True, "op": "bye"})
            asyncio.ensure_future(self.stop())
            return False
        if op == "submit":
            self._active_jobs += 1
            try:
                await self._handle_submit(message, writer)
            finally:
                self._active_jobs -= 1
            return True
        await self._send(writer, protocol.error_response(
            f"unknown op {op!r}"))
        return True

    async def _handle_submit(self, message: dict,
                             writer: asyncio.StreamWriter) -> None:
        job = message.get("id", "")
        if self._draining:
            await self._send(writer, protocol.error_response(
                "server is draining", id=job))
            return
        payloads = message.get("points")
        if not isinstance(payloads, list) or not payloads:
            await self._send(writer, protocol.error_response(
                "submit needs a non-empty 'points' list", id=job))
            return
        try:
            points = [PointSpec.from_payload(p) for p in payloads]
        except (TypeError, ValueError, KeyError) as exc:
            await self._send(writer, protocol.error_response(
                f"bad point payload: {exc}", id=job))
            return

        self.stats["jobs"] += 1
        self.stats["points"] += len(points)
        # ``accepted`` leaves with the job's first write: the answers
        # ready after the scan, or alone just before the scan blocks.
        head = [protocol.encode({"ok": True, "op": "accepted", "id": job,
                                 "points": len(points)})]
        accepted_at = self._loop.time()
        tracer = self.obs.tracer
        request_span = tracer.span("serve.request", id=str(job),
                                   points=len(points))

        # Classify every point: served from cache, attached to an
        # in-flight duplicate, or owned (we will simulate it).  The whole
        # scan is leak-proofed: however it exits, every acquired slot is
        # either registered in ``_inflight`` (and will be released by
        # ``_complete``) or released here -- a slot that escaped both
        # would permanently shrink server capacity.
        counts = {"cache": 0, "dedup": 0, "sim": 0}
        # (seq, payload, source, answer): ``answer`` is the ``(result,
        # error)`` pair of a cache hit, else the point's in-flight future.
        answers: list[tuple[int, dict, str, object]] = []
        batches: dict[tuple, list[tuple[str, dict]]] = {}
        slot_held = False
        dispatch_span = tracer.span("serve.dispatch", parent=request_span)
        try:
            for seq, point in enumerate(points):
                key = self.session.key_for(point)
                payload = point.payload()
                while True:
                    cached = self.session.lookup(point, key)
                    if cached is not None:
                        source = "cache"
                        # Whatever layer replayed it (session memo or disk),
                        # what goes over the wire is not this client's fresh
                        # measurement -- mark the copy so the recorded
                        # wall-clock can never be read as one.
                        data = cached.to_dict()
                        data.setdefault("meta", {})["cache_hit"] = True
                        answer = (data, None)
                        break
                    if key in self._inflight:
                        source = "dedup"
                        answer = self._inflight[key][1]
                        break
                    # Backpressure: block the scan (and this client) until a
                    # simulation slot frees up, bounding worker queues.  Any
                    # batch collected so far must reach the workers *before*
                    # blocking, or the slots it holds could never free, and
                    # the client hears ``accepted`` before any wait.  The
                    # awaits yield the loop, so another client may cache or
                    # register this very point meanwhile -- reclassify after
                    # waking (classification and registration must be atomic,
                    # i.e. no await between them) instead of double-booking.
                    if self._slots.locked():
                        self._flush(batches, span=dispatch_span)
                        if head:
                            await self._write(writer, head)
                            head = []
                    await self._slots.acquire()
                    slot_held = True
                    if (key in self._inflight
                            or self.session.lookup(point, key) is not None):
                        self._slots.release()
                        slot_held = False
                        continue
                    source = "sim"
                    answer = self._loop.create_future()
                    self._inflight[key] = (point, answer)
                    slot_held = False      # _complete owns the release now
                    batches.setdefault(build_key(payload), []).append(
                        (key, payload))
                    break
                counts[source] += 1
                self.stats[{"cache": "cache_hits", "dedup": "dedup_hits",
                            "sim": "simulated"}[source]] += 1
                answers.append((seq, payload, source, answer))
        except Exception as exc:
            # A mid-scan failure (e.g. a corrupt cache entry raising out
            # of lookup) must not strand what was already registered:
            # flush collected batches so their futures resolve and their
            # slots release through the normal completion path, drop any
            # slot acquired but not yet registered, and fail the job.
            if slot_held:
                self._slots.release()
            self._flush(batches, span=dispatch_span)
            dispatch_span.end()
            self.stats["errors"] += 1
            request_span.set(error="classification").end()
            await self._write(writer, [*head, protocol.encode(
                protocol.error_response(
                    f"submit failed mid-classification: {exc}", id=job))])
            return

        self._flush(batches, span=dispatch_span)
        dispatch_span.set(**counts).end()

        latency = self.metrics.histogram("submit_answer_seconds")
        done = protocol.encode({
            "ok": True, "op": "done", "id": job, "points": len(points),
            "cache_hits": counts["cache"], "dedup_hits": counts["dedup"],
            "simulated": counts["sim"]})

        async def send(lines: list[bytes], answered: int) -> None:
            await self._write(writer, lines)
            # Submit-to-answer latency: from job acceptance to each
            # point's result reaching the client's socket buffer.
            elapsed = self._loop.time() - accepted_at
            for _ in range(answered):
                latency.observe(elapsed)

        async def deliver(seq, payload, source, future):
            result, error = await asyncio.shield(future)
            return seq, payload, source, result, error

        pending: list[tuple[int, dict, str, asyncio.Future]] = []
        tasks: list[asyncio.Task] = []
        flush_span = tracer.span("serve.flush", parent=request_span,
                                 points=len(answers))
        try:
            # Answers ready now -- cache hits and futures that already
            # resolved -- go out in seq order behind ``accepted``, in
            # writes cut at about WRITE_CUT_BYTES; ``done`` rides the
            # last write when nothing is left in flight.
            lines, size, answered = head, sum(map(len, head)), 0
            for seq, payload, source, answer in answers:
                if isinstance(answer, asyncio.Future):
                    if not answer.done():
                        pending.append((seq, payload, source, answer))
                        continue
                    answer = answer.result()
                lines.append(_result_line(job, seq, payload, source, *answer))
                size += len(lines[-1])
                answered += 1
                if size >= WRITE_CUT_BYTES:
                    await send(lines, answered)
                    lines, size, answered = [], 0, 0
            if not pending:
                lines.append(done)
            if lines:
                await send(lines, answered)

            # Points still simulating stream one write each, as they finish.
            tasks = [asyncio.ensure_future(deliver(*p)) for p in pending]
            for task in asyncio.as_completed(tasks):
                await send([_result_line(job, *await task)], 1)
        finally:
            for task in tasks:
                task.cancel()
            flush_span.end()
            request_span.end()
        if pending:
            await self._write(writer, [done])

    # --- helpers ----------------------------------------------------------

    def _flush(self, batches: dict[tuple, list[tuple[str, dict]]],
               span=None) -> None:
        """Queue the collected same-build batches (one hop each) and reset.

        ``span`` (when tracing) parents the worker-side ``worker.sim``
        spans, which ship back on each task's last result.

        A batch the pool refuses (closed mid-drain, dead queue) is
        completed as an error immediately: its keys are registered in
        ``_inflight`` holding backpressure slots, so dropping the batch
        on the floor would leak both and hang every waiter.
        """
        handle = span.handle if span is not None else None
        for batch in batches.values():
            try:
                self._pool.submit(batch, span=handle)
            except Exception as exc:
                detail = f"worker pool rejected batch: {exc}"
                for key, _payload in batch:
                    self._complete(key, None, detail)
        batches.clear()

    async def _send(self, writer: asyncio.StreamWriter,
                    message: dict) -> None:
        await self._write(writer, [protocol.encode(message)])

    @staticmethod
    async def _write(writer: asyncio.StreamWriter,
                     lines: list[bytes]) -> None:
        """One socket write of encoded messages, then ``drain()``."""
        writer.write(b"".join(lines))
        await writer.drain()

    def _stat_snapshot(self) -> dict:
        cache = self.session.cache
        # Unsorted count: ping/stats run on the event loop, and a
        # long-lived shared cache can hold many thousands of entries.
        entries = (sum(1 for _ in cache.directory.glob("*.json"))
                   if cache is not None and cache.directory.is_dir() else 0)
        pool = self._pool
        depths = pool.queue_depths() if pool else []
        snapshot = dict(self.stats, inflight=len(self._inflight),
                        draining=self._draining,
                        workers_alive=pool.alive() if pool else 0,
                        worker_deaths=pool.deaths if pool else 0,
                        worker_respawns=pool.restarts if pool else 0,
                        worker_failed_keys=pool.failed_keys if pool else 0,
                        shard_queue_depths=depths,
                        cache_entries=entries)
        self._sync_metrics(snapshot)
        return snapshot

    def _sync_metrics(self, snapshot: dict) -> None:
        """Mirror the stats snapshot into the registry as gauges.

        Synced whenever a snapshot is taken (``ping``/``stats``/
        ``metrics`` ops) rather than at every increment, so the hot
        submit path pays nothing for the mirror; counters that must be
        live continuously (latency histograms, cache counters) are
        observed at their sources instead.
        """
        metrics = self.metrics
        for key, value in snapshot.items():
            if key == "shard_queue_depths":
                for shard, depth in enumerate(value):
                    metrics.gauge(
                        f'server_shard_queue_depth{{shard="{shard}"}}'
                    ).set(depth)
            elif isinstance(value, bool):
                metrics.gauge(f"server_{key}").set(int(value))
            elif isinstance(value, (int, float)):
                metrics.gauge(f"server_{key}").set(value)
        metrics.gauge("server_max_inflight").set(self._max_inflight)


async def run_server(server: SimServer, ready=None) -> None:
    """Start a server and serve until it is stopped.

    Args:
        ready: optional event set once the socket is bound -- anything
            with a ``set()`` method, e.g. a ``threading.Event`` when the
            caller boots the loop in a background thread (the test and
            load-bench harnesses) and needs the real port before
            connecting.
    """
    await server.start()
    if ready is not None:
        ready.set()
    await server.serve_forever()
