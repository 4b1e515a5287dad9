"""The experiment engine: build memo, point execution, parallel sessions.

:class:`Session` is the one way experiments run.  It resolves a
:class:`~repro.exp.spec.SweepSpec` (or any iterable of points) into
:class:`~repro.exp.spec.PointSpec`\\ s, returns cached
:class:`~repro.cpu.core.SimResult`\\ s where available, and executes the
misses -- in process when ``jobs == 1`` (bit-identical to the historical
sequential drivers), or on a :class:`~concurrent.futures.ProcessPoolExecutor`
when ``jobs > 1``.  Simulation is deterministic, so the two paths produce
identical results; only wall-clock differs.

Build products (verified traces) are memoized per process in
:data:`_BUILD_MEMO`; cycle-level results persist across processes in the
on-disk :class:`~repro.exp.cache.ResultCache`.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from ..cpu import Core, SimResult, machine_config
from ..emulib.fingerprint import source_fingerprint
from ..obs import OBS_OFF, Obs, obs_from_env
from .cache import ResultCache
from .spec import PointSpec, SweepSpec

#: Per-process memo of verified builds, keyed by (kind, target, isa, scale).
_BUILD_MEMO: dict[tuple[str, str, str, int], object] = {}


def built_kernel(kernel: str, isa: str, scale: int = 1):
    """Build (and verify against the golden reference) one kernel, memoized."""
    from ..kernels import KERNELS, build_and_check

    key = ("kernel", kernel, isa, scale)
    if key not in _BUILD_MEMO:
        spec = KERNELS[kernel]
        workload = spec.make_workload(scale)
        _BUILD_MEMO[key] = build_and_check(spec, isa, workload)
    return _BUILD_MEMO[key]


def built_app(app: str, isa: str, scale: int = 1):
    """Build (and verify) one full application, memoized."""
    from ..apps import APPS

    key = ("app", app, isa, scale)
    if key not in _BUILD_MEMO:
        _BUILD_MEMO[key] = APPS[app].build(isa, scale)
    return _BUILD_MEMO[key]


def make_memsys(point: PointSpec):
    """Instantiate the memory model a point asks for."""
    from ..memsys import (CollapsingBufferHierarchy, ConventionalHierarchy,
                          MultiAddressHierarchy, PerfectMemory,
                          VectorCacheHierarchy)

    if point.memory == "perfect":
        cfg = machine_config(point.way, point.isa)
        return PerfectMemory(point.latency, cfg.mem_ports, cfg.mem_port_width)
    factory = {
        "conventional": ConventionalHierarchy,
        "multiaddress": MultiAddressHierarchy,
        "vectorcache": VectorCacheHierarchy,
        "collapsing": CollapsingBufferHierarchy,
    }[point.memory]
    return factory(point.way)


def _phase_meta(phases: dict) -> dict:
    """Round a phase-accumulator dict for ``meta`` (stable, JSON-small)."""
    return {key: round(value, 6) for key, value in phases.items()}


def build_key(point: PointSpec) -> tuple[str, str, str, int]:
    """The build-memo key: points sharing it simulate the same trace."""
    return (point.kind, point.target, point.isa, point.scale)


def execute_group(points: list[PointSpec],
                  *, obs: Obs | None = None, parent=None) -> list[SimResult]:
    """Build, verify and simulate same-trace points (no caching).

    The one way a point runs: the trace is built once and the points
    simulate as the lanes of one :class:`~repro.cpu.batch.BatchCore`
    pass, a single point as a one-lane pass.  All points must share a
    :func:`build_key`; raises ``ValueError`` when they span more than one
    trace or a lane is invalid.

    Each result's ``meta`` (excluded from equality and digests) records
    the pass: ``batch_group_seconds`` is its measured wall-clock,
    ``sim_seconds`` that divided by the lane count -- an equal share,
    flagged by ``sim_seconds_estimated``, unless the pass had one lane --
    ``phases`` its shared decode/step/writeback split, and
    ``batch_lanes``/``batch_group`` the group it ran in.  ``obs``/
    ``parent`` attach trace.build and sim.group spans under an existing
    handle when telemetry is enabled.
    """
    from ..cpu.batch import BatchCore

    if not points:
        return []
    keys = {build_key(p) for p in points}
    if len(keys) > 1:
        raise ValueError(f"points span {len(keys)} traces")
    obs = obs if obs is not None else OBS_OFF
    tracer = obs.tracer
    first = points[0]
    build = built_kernel if first.kind == "kernel" else built_app
    with tracer.span("trace.build", parent=parent, target=first.target,
                     isa=first.isa, scale=first.scale):
        built = build(first.target, first.isa, first.scale)
    lanes = [Core(machine_config(p.way, p.isa), make_memsys(p),
                  accounting=p.accounting)
             for p in points]
    batch = BatchCore(lanes)    # validates lanes before simulation
    group = "-".join(str(k) for k in build_key(first))
    phases: dict = {}
    with tracer.span("sim.group", parent=parent, group=group,
                     lanes=len(points)) as span:
        start_wall = time.time()
        start = time.perf_counter()
        results = batch.run(built.trace, phases=phases)
        elapsed = time.perf_counter() - start
    share = elapsed / len(points)
    phase_meta = _phase_meta(phases)
    for result in results:
        result.meta["sim_seconds"] = round(share, 6)
        result.meta["sim_seconds_estimated"] = len(points) > 1
        if share > 0:
            result.meta["sim_instructions_per_second"] = round(
                result.instructions / share)
        result.meta["batch_lanes"] = len(points)
        result.meta["batch_group"] = group
        result.meta["batch_group_seconds"] = round(elapsed, 6)
        result.meta["phases"] = dict(phase_meta)
    obs.phase_spans(span, start_wall, phases)
    obs.metrics.counter("points_simulated").inc(len(points))
    obs.metrics.counter("instructions_simulated").inc(
        sum(result.instructions for result in results))
    obs.metrics.counter("batch_groups").inc()
    obs.metrics.histogram("sim_group_seconds").observe(elapsed)
    for result in results:
        _export_stack(obs, result)
    return results


def _export_stack(obs: Obs, result: SimResult) -> None:
    """Mirror a result's CPI-stack components into the metrics registry."""
    if result.stack is None:
        return
    for name, value in result.stack.to_dict().items():
        obs.metrics.counter(
            f'cpi_stack_cycles{{component="{name}"}}').inc(value)


def _group_worker(task: dict) -> dict:
    """Process-pool entry: execute one same-trace group of points.

    ``task`` is ``{"points": [payload, ...], "span": (trace_id, span_id)
    | None}``; returns ``{"results": [result dict, ...], "spans": [...]}``.
    When a parent span handle is present the worker records its spans
    into a local memory sink -- no globals, so pool reuse and fork/spawn
    start methods are both safe -- and ships the finished records back
    for the parent tracer to stitch (:meth:`~repro.obs.Tracer.adopt`).
    """
    points = [PointSpec.from_payload(p) for p in task["points"]]
    parent = task["span"]
    obs = Obs.make(trace_id=parent[0]) if parent is not None else OBS_OFF
    results = execute_group(points, obs=obs, parent=parent)
    spans = obs.sink.drain() if parent is not None else []
    return {"results": [result.to_dict() for result in results],
            "spans": spans}


def _check_jobs(jobs: int) -> int:
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return jobs


def _default_cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    # repo-root/.repro-cache when running from a source checkout
    # (src/repro/exp/engine.py -> parents[3] == repo root).  When the
    # package is installed, parents[3] is some lib/ directory instead;
    # fall back to the user cache rather than writing next to it.
    candidate = Path(__file__).resolve().parents[3]
    if (candidate / "pyproject.toml").is_file():
        return candidate / ".repro-cache"
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-mom"


class Session:
    """Runs experiment points with persistent memoization.

    Args:
        cache_dir: directory for the on-disk result cache; defaults to
            ``$REPRO_CACHE_DIR`` or ``.repro-cache`` at the repo root.
        jobs: default parallelism for :meth:`run` (overridable per call).
            ``1`` executes in process -- no pool, bit-identical to the
            historical sequential drivers.
            Values below 1 raise ``ValueError``.
        salt: cache-key salt; defaults to the package source fingerprint,
            so editing any model file invalidates stale entries.
        use_cache: disable the persistent layer entirely (an in-memory
            memo still serves repeats within this session).  Also
            disabled by ``REPRO_NO_CACHE=1``.
        obs: telemetry bundle (:class:`~repro.obs.Obs`).  Defaults to
            :func:`~repro.obs.obs_from_env` -- disabled no-op singletons
            unless ``REPRO_OBS=1`` / ``REPRO_OBS_TRACE=path`` is set.
            When enabled, :meth:`run` emits a span tree
            (``session.run`` → ``cache.lookup`` → ``trace.build`` →
            ``sim.group`` → ``cache.put``) stitched across
            pool workers, and mirrors hit/miss/simulated counts into
            ``obs.metrics``.
    """

    def __init__(self, cache_dir: str | Path | None = None, *,
                 jobs: int = 1, salt: str | None = None,
                 use_cache: bool = True,
                 obs: Obs | None = None) -> None:
        if os.environ.get("REPRO_NO_CACHE") == "1":
            use_cache = False
        self.obs = obs if obs is not None else obs_from_env()
        self.cache = (ResultCache(cache_dir or _default_cache_dir(),
                                  metrics=self.obs.metrics)
                      if use_cache else None)
        self.salt = source_fingerprint() if salt is None else salt
        self.jobs = _check_jobs(jobs)
        self.hits = 0
        self.misses = 0
        self._memo: dict[str, SimResult] = {}
        self._keys: dict[PointSpec, str] = {}

    # --- cache plumbing ---------------------------------------------------

    def key_for(self, point: PointSpec) -> str:
        """The point's cache key, :meth:`PointSpec.content_hash` under
        the session's salt: hashed once per point and kept for the
        session's life, like the results :meth:`lookup` keeps."""
        key = self._keys.get(point)
        if key is None:
            key = self._keys[point] = point.content_hash(self.salt)
        return key

    def lookup(self, point: PointSpec,
               key: str | None = None) -> SimResult | None:
        """Cached result for a point, or ``None`` (does not execute).

        ``key`` is :meth:`key_for` of the point when the caller already
        holds it (the serve layer's submit scan), so it is hashed once.
        """
        if key is None:
            key = self.key_for(point)
        if key in self._memo:
            return self._memo[key]
        if self.cache is None:
            return None
        entry = self.cache.get(key)
        if entry is None:
            return None
        try:
            result = SimResult.from_dict(entry["result"])
        except (KeyError, TypeError, ValueError):
            # Valid JSON but not a result entry (hand-edited or foreign
            # file): a miss, never an exception -- lookup is called from
            # the serving layer's submit scan, where a raise would leak
            # backpressure slots but a miss just re-simulates.
            return None
        # Replayed, not measured: the wall-clock numbers in meta describe
        # the run that *populated* the cache, so flag the replay to keep
        # them from being read as a fresh measurement.
        result.meta["cache_hit"] = True
        self._memo[key] = result
        return result

    def store(self, point: PointSpec, result: SimResult) -> None:
        """Memoize a result and persist it to the on-disk cache.

        Public because the serving layer stores worker-produced results
        through the session, so the service and in-process sessions
        share one source-fingerprinted store.
        """
        self.memoize(point, result)
        self.persist(point, result)

    def memoize(self, point: PointSpec, result: SimResult) -> None:
        """In-memory half of :meth:`store` (must run on the owner's
        thread; later :meth:`lookup`\\ s see the result immediately)."""
        self._memo[self.key_for(point)] = result

    def persist(self, point: PointSpec, result: SimResult) -> None:
        """On-disk half of :meth:`store`.  Safe to run off-thread after
        :meth:`memoize` -- the cache write is atomic, and readers fall
        back to re-simulation if they race ahead of it."""
        if self.cache is None:
            return
        data = result.to_dict()
        # Never persist the replay marker itself: whoever loads this
        # entry gets a fresh ``cache_hit`` flag from :meth:`lookup`.
        data.get("meta", {}).pop("cache_hit", None)
        self.cache.put(self.key_for(point), {
            "spec": point.payload(),
            "salt": self.salt,
            "result": data,
        })

    # --- execution --------------------------------------------------------

    def run_point(self, point: PointSpec) -> SimResult:
        """One point through the cache; executes in process on a miss."""
        return self.run((point,), jobs=1)[point]

    def resolve(self, sweep) -> tuple[PointSpec, ...]:
        """A sweep (or iterable of points) as a concrete point tuple."""
        if isinstance(sweep, SweepSpec):
            return sweep.points()
        if isinstance(sweep, PointSpec):
            return (sweep,)
        return tuple(sweep)

    def run(self, sweep, jobs: int | None = None, *,
            progress=None) -> dict[PointSpec, SimResult]:
        """Run a sweep; returns ``{point: result}`` in sweep order.

        Cache misses are grouped by :func:`build_key` -- points of one
        group simulate the same trace -- and each group runs through
        :func:`execute_group` as the lanes of one
        :class:`~repro.cpu.batch.BatchCore` pass.  When the effective
        ``jobs`` is 1 the groups run in process, in first-appearance
        order; otherwise they run on a process pool ``jobs`` wide, and a
        group longer than the even share ``ceil(misses / jobs)`` is cut
        into consecutive slices of that size, so a one-trace sweep still
        keeps every worker busy.  Results are identical either way, and
        are stored back to the persistent cache so a warm rerun performs
        no simulation at all.

        ``progress``, when given, is called as ``progress(n)`` each time
        ``n`` more distinct points have resolved (cache hits once up
        front, then per completed group) -- the hook behind the CLI's
        ``--progress`` line.
        """
        points = self.resolve(sweep)
        jobs = self.jobs if jobs is None else _check_jobs(jobs)
        tracer = self.obs.tracer
        metrics = self.obs.metrics
        root = tracer.span("session.run", points=len(points), jobs=jobs)
        try:
            results: dict[PointSpec, SimResult] = {}
            missing: list[PointSpec] = []
            with tracer.span("cache.lookup", parent=root) as scan:
                for point in points:
                    if point in results or point in missing:
                        continue
                    cached = self.lookup(point)
                    if cached is not None:
                        self.hits += 1
                        results[point] = cached
                    else:
                        missing.append(point)
                scan.set(hits=len(results), misses=len(missing))
            metrics.counter("session_cache_hits").inc(len(results))
            metrics.counter("session_cache_misses").inc(len(missing))
            self.misses += len(missing)
            if progress is not None and results:
                progress(len(results))

            # Same-trace groups, in first-appearance order.
            groups: list[list[PointSpec]] = []
            by_key: dict[tuple, list[PointSpec]] = {}
            for point in missing:
                key = build_key(point)
                if key in by_key:
                    by_key[key].append(point)
                else:
                    by_key[key] = group = [point]
                    groups.append(group)

            if jobs == 1:
                for group in groups:
                    self._store_group(group, execute_group(
                        group, obs=self.obs, parent=root), results, root)
                    if progress is not None:
                        progress(len(group))
            elif groups:
                # Each task builds its trace once in its worker.  Workers
                # get the root span's handle and ship their span records
                # back with the results; the sink is local to each worker
                # call, so this survives pool reuse and either start
                # method.
                size = -(-len(missing) // jobs)     # ceil(misses / jobs)
                tasks = [group[i:i + size] for group in groups
                         for i in range(0, len(group), size)]
                handle = root.handle    # None when telemetry is disabled
                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    replies = pool.map(_group_worker, [
                        {"points": [p.payload() for p in task],
                         "span": handle}
                        for task in tasks])
                    for task, reply in zip(tasks, replies):
                        tracer.adopt(reply["spans"])
                        self._store_group(
                            task, [SimResult.from_dict(data)
                                   for data in reply["results"]],
                            results, root)
                        if progress is not None:
                            progress(len(task))

            return {point: results[point] for point in points}
        finally:
            root.end()

    def _store_group(self, group: list[PointSpec],
                     group_results: list[SimResult],
                     results: dict[PointSpec, SimResult],
                     parent) -> None:
        """Cache one executed group point by point."""
        with self.obs.tracer.span("cache.put", parent=parent,
                                  points=len(group)):
            for point, result in zip(group, group_results):
                self.store(point, result)
                results[point] = result


_DEFAULT_SESSION: Session | None = None


def default_session() -> Session:
    """The process-wide session shared by drivers, benchmarks and examples."""
    global _DEFAULT_SESSION
    if _DEFAULT_SESSION is None:
        _DEFAULT_SESSION = Session()
    return _DEFAULT_SESSION
