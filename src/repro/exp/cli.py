"""The ``repro`` console command: reproduce any figure/table of the paper.

Examples::

    repro figure5                      # all eight kernel panels
    repro figure5 --kernel idct --jobs 4
    repro figure7 --app jpeg_encode
    repro tables
    repro latency --way 4
    repro fetch-pressure
    repro explain figure7 --ways 4       # ASCII CPI-stack bars per point
    repro explain figure7 --ways 4 --diff mom-vectorcache mmx-conv
    repro figure5 --explain              # figure + cycle attribution
    repro sweep figure5 --jobs 8       # raw grid, parallel
    repro sweep figure5 --progress     # live points/s + ETA line (TTY)
    repro sweep vc-kernels             # the compiler-built kernels
    repro sweep frame-scale            # one full 720x480 MPEG-2 frame
    repro sweep --kernels idct,motion2 --isas mom --ways 1,2,4,8
    repro kernels                      # registry + per-ISA DLP coverage
    repro lint                         # static verification, whole grid
    repro lint --kernel ssd --isa mdmx --json --artifact findings.json
    repro cache                        # show cache location / size
    repro cache --clear
    repro cache --prune 7d             # evict entries older than a week
    repro serve --workers 4            # boot the simulation service
    repro ping                         # handshake with a running server
    repro submit figure5               # run a sweep through the service
    repro stats                        # live server telemetry snapshot
    repro stats --prom                 # raw Prometheus text exposition
    repro stats --trace spans.jsonl    # aggregate a local span trace
    repro shutdown                     # drain and stop the server

Every simulation funnels through one :class:`~repro.exp.engine.Session`,
so a warm-cache rerun of any command skips simulation entirely; the
service shares the same persistent cache, so ``repro submit`` and
``repro sweep`` warm each other.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

from .. import __version__
from .engine import Session
from .spec import SweepSpec, preset


def _csv(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _csv_int(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in _csv(text))


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=_positive_int, default=1,
                        help="parallel simulation processes; one trace's "
                             "points are split across them (default 1)")
    parser.add_argument("--scale", type=int, default=1,
                        help="workload scale factor (default 1)")
    parser.add_argument("--cache-dir", default=None,
                        help="override the result-cache directory")
    parser.add_argument("--no-cache", action="store_true",
                        help="skip the persistent result cache")
    parser.add_argument("--progress", action="store_true",
                        help="live done/total, points/s and ETA line on "
                             "stderr (honoured only when stderr is a TTY)")


def _session(args: argparse.Namespace) -> Session:
    return Session(args.cache_dir, jobs=args.jobs,
                   use_cache=not args.no_cache)


@contextmanager
def _progress(args, total: int, session: Session):
    """Yield the ``progress`` hook for ``total`` points: a live
    :class:`ProgressLine`'s ``tick``, closed on the way out, or ``None``
    (no --progress / no TTY).

    When the session's telemetry is enabled the line keeps its counters in
    the session's own metrics registry, so ``progress_done`` shows up in
    any trace/metrics snapshot taken alongside the sweep.
    """
    from ..obs.progress import ProgressLine, progress_wanted

    if not progress_wanted(args.progress):
        yield None
        return
    registry = session.obs.metrics if session.obs.enabled else None
    line = ProgressLine(total, registry=registry)
    try:
        yield line.tick
    finally:
        line.close()


def _cmd_figure5(args) -> int:
    from ..eval import figure5
    from ..kernels import KERNEL_ORDER

    kernels = tuple(args.kernel) if args.kernel else KERNEL_ORDER
    session = _session(args)
    sweep = figure5.sweep(args.scale, kernels)
    with _progress(args, len(sweep.points()), session) as tick:
        results = figure5.run(scale=args.scale, kernels=kernels,
                              session=session, progress=tick)
    for kernel, points in results.items():
        print(f"\n=== Figure 5: {kernel} (speed-up vs 1-way Alpha) ===")
        print(figure5.format_grid(points))
    print("\n=== MOM gain over best 1D SIMD ISA at 4-way ===")
    for kernel, ratio in figure5.mom_vs_best_simd(results).items():
        print(f"  {kernel:16s} {ratio:5.2f}x")
    if getattr(args, "explain", False):
        _explain_sweep(session, sweep)
    return 0


def _cmd_figure7(args) -> int:
    from ..apps import APP_ORDER
    from ..eval import figure7

    apps = tuple(args.app) if args.app else APP_ORDER
    session = _session(args)
    sweep = figure7.sweep(args.scale, apps)
    with _progress(args, len(sweep.points()), session) as tick:
        results = figure7.run(scale=args.scale, apps=apps, session=session,
                              progress=tick)
    for app, points in results.items():
        print(f"\n=== Figure 7: {app} (speed-up vs 4-way Alpha) ===")
        for way in figure7.WAYS:
            cells = "  ".join(f"{p.config}={p.speedup:5.2f}x"
                              for p in points if p.way == way)
            print(f"{way}-way: {cells}")
    print("\n=== MOM (best cache) gain over MMX at 4-way "
          "(paper: ~20% average) ===")
    for app, ratio in figure7.summarize(results).items():
        print(f"  {app:16s} {ratio:5.2f}x")
    if getattr(args, "explain", False):
        _explain_sweep(session, sweep)
    return 0


def _cmd_latency(args) -> int:
    from ..eval import latency

    print(f"Slow-down going from 1-cycle to {latency.HIGH_LATENCY}-cycle "
          f"memory ({args.way}-way machine):\n")
    session = _session(args)
    total = len(latency.sweep(args.scale, args.way).points())
    with _progress(args, total, session) as tick:
        results = latency.run(scale=args.scale, way=args.way,
                              session=session, progress=tick)
    for kernel, row in results.items():
        cells = "  ".join(f"{isa}={v:5.2f}x" for isa, v in row.items())
        print(f"{kernel:16s} {cells}")
    print("\nRange per ISA (paper: Alpha 3-9x, MMX/MDMX 4-8x, MOM 2-4x):")
    for isa, (lo, hi) in latency.summarize(results).items():
        print(f"  {isa:6s} {lo:.1f}x .. {hi:.1f}x")
    return 0


def _cmd_fetch_pressure(args) -> int:
    from ..eval import fetch_pressure

    print("ops/instruction, measured 1-way fetch-bound share (f) and "
          "1-way retention of 8-way performance:\n")
    session = _session(args)
    total = len(fetch_pressure.sweep(scale=args.scale).points())
    with _progress(args, total, session) as tick:
        results = fetch_pressure.run(scale=args.scale, session=session,
                                     progress=tick)
    for kernel, row in results.items():
        cells = "  ".join(f"{isa}:{p.ops_per_instruction:5.1f}op/i"
                          f"/f{p.fetch_bound_share:4.0%}"
                          f"/{p.retention_1way:4.0%}"
                          for isa, p in row.items())
        print(f"{kernel:16s} {cells}")
    print("\nFetch economy: measured MMX fetch-bound cycles per MOM "
          "fetch-bound cycle at 1-way (paper: 'an order of magnitude'):")
    for kernel, ratio in fetch_pressure.mom_fetch_advantage(results).items():
        print(f"  {kernel:16s} {ratio:5.1f}x")
    return 0


def _cmd_tables(args) -> int:
    from ..eval import tables

    print(tables.render_all())
    return 0


def _sweep_from_args(args) -> SweepSpec:
    if args.preset:
        sweep = preset(args.preset)
    elif args.apps:
        sweep = SweepSpec(name="custom", kind="app", targets=(),
                          isas=("alpha", "mmx", "mom"))
    else:
        sweep = SweepSpec(name="custom", kind="kernel", targets=(),
                          isas=("alpha", "mmx", "mdmx", "mom"),
                          ways=(1, 2, 4, 8))
    overrides: dict = {"scale": args.scale}
    if args.kernels:
        overrides.update(kind="kernel", targets=args.kernels, pairs=())
    if args.apps:
        overrides.update(kind="app", targets=args.apps, pairs=())
    if args.isas:
        overrides.update(isas=args.isas, pairs=())
    if args.ways:
        overrides["ways"] = args.ways
    if args.latencies:
        overrides["latencies"] = args.latencies
    if args.memory:
        overrides.update(memories=args.memory, pairs=())
    sweep = sweep.replace(**overrides)
    from ..apps import APP_ORDER, APPS
    from ..kernels import KERNEL_ORDER, KERNELS
    if not sweep.targets:
        sweep = sweep.replace(targets=(KERNEL_ORDER if sweep.kind == "kernel"
                                       else APP_ORDER))
    if not sweep.pairs and not sweep.isas:
        # An override cleared a preset's explicit (isa, memory) pairs
        # (e.g. `repro sweep figure7 --memory conventional`): fall back
        # to the full ISA axis so the product is never silently empty.
        sweep = sweep.replace(isas=(("alpha", "mmx", "mdmx", "mom")
                                    if sweep.kind == "kernel"
                                    else ("alpha", "mmx", "mom")))
    registry = KERNELS if sweep.kind == "kernel" else APPS
    unknown = [t for t in sweep.targets if t not in registry]
    if unknown:
        raise ValueError(f"unknown {sweep.kind}(s) {unknown}; "
                         f"available: {sorted(registry)}")
    if not sweep.points():
        raise ValueError("sweep resolves to 0 points; check the "
                         "--kernels/--apps/--isas/--ways/--memory values")
    return sweep


def _print_grid(points, results) -> None:
    # Per-target baseline for the speedup column: alpha at the narrowest
    # way/latency present in the sweep, falling back to whatever is there.
    baselines: dict[str, tuple[tuple, int]] = {}
    for point in points:
        rank = (point.isa != "alpha", point.way, point.latency)
        if (point.target not in baselines
                or rank < baselines[point.target][0]):
            baselines[point.target] = (rank, results[point].cycles)

    header = (f"{'target':16s} {'isa':6s} {'way':>3s} {'lat':>4s} "
              f"{'memory':12s} {'cycles':>10s} {'speedup':>8s}")
    print(header)
    print("-" * len(header))
    for point in points:
        res = results[point]
        speedup = baselines[point.target][1] / res.cycles
        print(f"{point.target:16s} {point.isa:6s} {point.way:>3d} "
              f"{point.latency:>4d} {point.memory:12s} {res.cycles:>10d} "
              f"{speedup:7.2f}x")


def _cmd_sweep(args) -> int:
    session = _session(args)
    sweep = _sweep_from_args(args)
    if getattr(args, "explain", False):
        sweep = sweep.replace(accounting=True)
    points = sweep.points()
    print(f"sweep {sweep.name}: {len(points)} points, jobs={args.jobs}")
    with _progress(args, len(points), session) as tick:
        results = session.run(points, jobs=args.jobs, progress=tick)
    _print_grid(points, results)
    if getattr(args, "explain", False):
        _print_stacks(points, results)
    print(f"\ncache: {session.hits} hits, {session.misses} misses")
    return 0


# --- CPI-stack rendering (repro explain / --explain) --------------------------

#: Stack components in commit-blame order, with their bar glyphs.
_STACK_GLYPHS = (
    ("base", "B"), ("fetch", "F"), ("rename", "R"), ("fu_structural", "S"),
    ("mem_conflict", "C"), ("mem_latency", "M"), ("drain", "D"),
)

#: Short memory-model aliases accepted by ``repro explain --diff``
#: (matching the figure7 configuration labels).
_MEMORY_ALIASES = {"conv": "conventional", "ma": "multiaddress",
                   "vc": "vectorcache", "col": "collapsing"}


def _stack_bar(stack: dict, cycles: int, length: int) -> str:
    """One segmented ASCII bar, component lengths by largest remainder."""
    if cycles <= 0 or length <= 0:
        return ""
    quotas = [(glyph, stack.get(name, 0) * length / cycles)
              for name, glyph in _STACK_GLYPHS]
    cells = [int(q) for _, q in quotas]
    short = length - sum(cells)
    order = sorted(range(len(quotas)),
                   key=lambda i: quotas[i][1] - cells[i], reverse=True)
    for i in order[:short]:
        cells[i] += 1
    return "".join(glyph * n for (glyph, _), n in zip(quotas, cells))


def _print_stacks(points, results, width: int = 40) -> None:
    """ASCII CPI-stack bars, one row per simulated point."""
    rows = []
    for point in points:
        res = results[point]
        if res.stack is None or not res.instructions:
            continue
        rows.append((point, res, res.cycles / res.instructions))
    if not rows:
        print("\nno CPI stacks: results carry no accounting data "
              "(rerun with --explain / accounting on)")
        return
    peak = max(cpi for _, _, cpi in rows)
    legend = " ".join(f"{glyph}={name}" for name, glyph in _STACK_GLYPHS)
    print(f"\nCPI stacks ({legend}):")
    header = (f"{'target':16s} {'isa':6s} {'way':>3s} {'memory':12s} "
              f"{'CPI':>6s}  stack")
    print(header)
    print("-" * (len(header) + width - 5))
    for point, res, cpi in rows:
        bar = _stack_bar(res.stack.to_dict(), res.cycles,
                         max(1, round(cpi / peak * width)))
        print(f"{point.target:16s} {point.isa:6s} {point.way:>3d} "
              f"{point.memory:12s} {cpi:>6.2f}  |{bar}|")


def _explain_sweep(session: Session, sweep: SweepSpec) -> None:
    """``--explain`` rider for the figure commands: an accounting pass
    over the same sweep (builds are memoized, so only the timing loop
    reruns) followed by the stack rendering."""
    points = sweep.replace(accounting=True).points()
    results = session.run(points)
    _print_stacks(points, results)


def _parse_explain_config(label: str) -> tuple[str, str]:
    """``isa-memory`` (figure7-style label) -> (isa, memory model)."""
    isa, sep, memory = label.partition("-")
    if not sep or not isa or not memory:
        raise ValueError(
            f"bad config {label!r}; use isa-memory, e.g. mom-vectorcache "
            f"or mmx-conv")
    return isa, _MEMORY_ALIASES.get(memory, memory)


def _print_stack_diff(points, results, pair: tuple[str, str]) -> None:
    """Per-component CPI delta between two (isa, memory) configurations.

    Components are averaged over every point of each configuration
    (cycle-weighted: total component cycles / total instructions), so a
    multi-target sweep diffs the aggregate stacks.
    """
    from ..cpu.core import STACK_COMPONENTS

    def aggregate(isa: str, memory: str) -> dict[str, float] | None:
        cycles = {name: 0 for name in STACK_COMPONENTS}
        instructions = 0
        for point in points:
            res = results[point]
            if (point.isa != isa or point.memory != memory
                    or res.stack is None):
                continue
            instructions += res.instructions
            for name, value in res.stack.to_dict().items():
                cycles[name] += value
        if not instructions:
            return None
        return {name: value / instructions for name, value in cycles.items()}

    configs = [_parse_explain_config(label) for label in pair]
    sides = [aggregate(isa, memory) for isa, memory in configs]
    for label, side in zip(pair, sides):
        if side is None:
            print(f"\ndiff: no accounted points match {label!r} "
                  f"in this sweep")
            return
    a, b = sides
    deltas = []
    # The two memory components read best as one "memory" delta plus
    # detail; everything else diffs per component.
    merged = (("fetch", ("fetch",)), ("rename", ("rename",)),
              ("fu", ("fu_structural",)),
              ("memory", ("mem_conflict", "mem_latency")),
              ("base", ("base",)), ("drain", ("drain",)))
    for label, names in merged:
        delta = sum(a[n] for n in names) - sum(b[n] for n in names)
        if abs(delta) >= 0.005:
            deltas.append(f"{delta:+.2f} CPI {label}")
    text = ", ".join(deltas) if deltas else "no component differs by >=0.01 CPI"
    print(f"\n{pair[0]} vs {pair[1]}: {text}")


def _cmd_explain(args) -> int:
    session = _session(args)
    sweep = _sweep_from_args(args).replace(accounting=True)
    points = sweep.points()
    print(f"explain {sweep.name}: {len(points)} points, jobs={args.jobs}")
    with _progress(args, len(points), session) as tick:
        results = session.run(points, jobs=args.jobs, progress=tick)
    _print_stacks(points, results)
    if args.diff:
        _print_stack_diff(points, results, tuple(args.diff))
    print(f"\ncache: {session.hits} hits, {session.misses} misses")
    return 0


#: Age-suffix multipliers accepted by ``repro cache --prune``.
_AGE_UNITS = {"s": 1, "m": 60, "h": 3600, "d": 86400}


def _parse_age(text: str) -> float:
    """``"300"``, ``"90s"``, ``"30m"``, ``"12h"`` or ``"7d"`` -> seconds."""
    original = text
    text = text.strip().lower()
    unit = 1
    if text and text[-1] in _AGE_UNITS:
        unit = _AGE_UNITS[text[-1]]
        text = text[:-1]
    import math

    try:
        value = float(text)
    except ValueError:
        raise ValueError(
            f"bad age {original!r}; use seconds or a s/m/h/d suffix "
            f"(e.g. 7d)")
    if not math.isfinite(value):
        raise ValueError(f"bad age {original!r}; must be finite")
    if value < 0:
        raise ValueError("age must be >= 0")
    return value * unit


def _cmd_kernels(args) -> int:
    from ..analysis import verified_status
    from ..apps import APP_ORDER, APPS
    from ..core.vectorize import coverage_for_isa
    from ..kernels import ISAS, KERNEL_ORDER, KERNELS
    from ..vc import COMPILED

    order = [k for k in KERNEL_ORDER if k in KERNELS]
    order += sorted(k for k in KERNELS if k not in order)
    print(f"{len(KERNELS)} kernels, {len(APPS)} applications; "
          f"builders: hand = hand-vectorized, vc = compiled from IR; "
          f"verified = all static analysis passes clean\n")
    header = (f"{'kernel':14s} {'isa':6s} {'builder':14s} "
              f"{'elems/instr':>11s} {'util':>6s} {'verified':>9s}")
    print(header)
    print("-" * len(header))
    for name in order:
        spec = KERNELS[name]
        record = COMPILED.get(name)
        nest = None
        if record is not None:
            binding = record.bind(spec.make_workload(1))
            primary = record.ir.buffers[0].name
            nest = record.ir.nest(binding.buffers[primary].row_stride)
        for i, isa in enumerate(ISAS):
            builder = spec.builders.get(isa)
            if getattr(builder, "compiled", False):
                origin = "vc"
            elif record is not None:
                origin = "hand (+mirror)"
            else:
                origin = "hand"
            if nest is not None:
                cov = coverage_for_isa(nest, isa)
                cover = f"{cov.elements_per_instruction:>11d}"
                util = f"{cov.utilization:>6.0%}"
            else:
                cover, util = f"{'-':>11s}", f"{'-':>6s}"
            verified = "yes" if verified_status(name, isa) else "NO"
            label = name if i == 0 else ""
            print(f"{label:14s} {isa:6s} {origin:14s} {cover} {util} "
                  f"{verified:>9s}")
    from ..apps import APP_ISAS

    print(f"\n{'application':14s} {'isas':20s} description")
    print("-" * 60)
    for name in APP_ORDER:
        app = APPS[name]
        print(f"{name:14s} {','.join(APP_ISAS):20s} {app.description}")
    return 0


def _cmd_lint(args) -> int:
    import json

    from ..analysis import lint_grid
    from ..analysis.runner import kernel_names

    kernels = [args.kernel] if args.kernel else None
    isas = [args.isa] if args.isa else None
    report, artifacts = lint_grid(kernels, isas)

    payload = report.to_dict()
    payload["cells"] = artifacts
    if args.artifact:
        with open(args.artifact, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)

    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        names = kernels if kernels is not None else kernel_names()
        targets = isas if isas is not None else ["alpha", "mmx", "mdmx",
                                                 "mom"]
        proved = sum(len(cell.get("checkpoints",
                                  cell.get("mirror_checkpoints", [])))
                     for cell in artifacts)
        print(f"linted {len(names)} kernels x {len(targets)} ISAs: "
              f"{proved} range checkpoints, "
              f"{len(report.findings)} findings")
        for finding in report.findings:
            print(f"  {finding}")
        if args.artifact:
            print(f"findings artifact written to {args.artifact}")
    return 0 if report.ok else 1


def _cmd_cache(args) -> int:
    session = Session(args.cache_dir)
    cache = session.cache
    if cache is None:
        print("persistent cache disabled (REPRO_NO_CACHE=1)")
        return 0
    if args.clear:
        removed = cache.clear()
        print(f"cleared {removed} cached results from {cache.directory}")
        return 0
    if args.prune is not None:
        age = _parse_age(args.prune)
        removed = cache.prune(age)
        print(f"pruned {removed} cached results older than {args.prune} "
              f"from {cache.directory} ({len(cache)} remain)")
        return 0
    print(f"cache directory: {cache.directory}")
    print(f"entries:         {len(cache)}")
    print(f"size:            {cache.size_bytes() / 1024:.1f} KiB")
    print(f"code salt:       {session.salt}")
    return 0


# --- the serving layer --------------------------------------------------------

def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from ..serve import SimServer

    server = SimServer(args.host, args.port, workers=args.workers,
                       cache_dir=args.cache_dir,
                       use_cache=not args.no_cache,
                       max_inflight=args.max_inflight)

    async def main() -> None:
        loop = asyncio.get_running_loop()
        host, port = await server.start()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    sig, lambda: asyncio.ensure_future(server.stop()))
            except NotImplementedError:      # non-unix event loop
                pass
        print(f"repro serve: v{__version__} listening on {host}:{port} "
              f"({server.workers} workers, salt {server.session.salt})",
              flush=True)
        await server.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    print("repro serve: drained and stopped")
    return 0


def _cmd_ping(args) -> int:
    from ..emulib.fingerprint import source_fingerprint
    from ..serve import Client, ServeError
    from ..serve.protocol import PROTOCOL_VERSION

    try:
        with Client(args.host, args.port, timeout=args.timeout) as client:
            pong = client.ping()
    except (OSError, ServeError) as exc:
        print(f"repro ping: {args.host}:{args.port} unreachable or "
              f"incompatible: {exc}", file=sys.stderr)
        return 1
    if pong.get("protocol") != PROTOCOL_VERSION:
        print(f"repro ping: server speaks protocol {pong.get('protocol')}, "
              f"this client speaks {PROTOCOL_VERSION}; upgrade the older "
              f"side", file=sys.stderr)
        return 1
    print(f"server {args.host}:{args.port}: version {pong['version']}, "
          f"protocol {pong['protocol']}, {pong['workers']} workers")
    stats = pong["stats"]
    print(f"stats: {stats['points']} points served "
          f"({stats['cache_hits']} cache, {stats['dedup_hits']} dedup, "
          f"{stats['simulated']} simulated), "
          f"{stats['cache_entries']} cache entries, "
          f"{stats['workers_alive']} workers alive")
    local = source_fingerprint()
    if pong["salt"] != local:
        print(f"warning: server code salt {pong['salt']} != local {local}; "
              f"results will not share a cache namespace", file=sys.stderr)
    return 0


def _cmd_submit(args) -> int:
    from ..cpu import SimResult
    from ..serve import Client, ServeError
    from .spec import PointSpec

    sweep = _sweep_from_args(args)
    points = sweep.points()
    try:
        with Client(args.host, args.port, timeout=args.timeout) as client:
            print(f"submit {sweep.name}: {len(points)} points "
                  f"-> {args.host}:{args.port}")
            results: dict[PointSpec, SimResult] = {}
            failures: list[tuple[dict, str]] = []
            done: dict = {}
            for message in client.submit_iter(points):
                if message["op"] == "result" and message["ok"]:
                    results[PointSpec.from_payload(message["point"])] = \
                        SimResult.from_dict(message["result"])
                elif message["op"] == "result":
                    failures.append((message["point"], message["error"]))
                elif message["op"] == "done":
                    done = message
    except (OSError, ServeError) as exc:
        print(f"repro submit: {exc}", file=sys.stderr)
        return 1
    completed = [p for p in points if p in results]
    if completed:
        _print_grid(completed, results)
    print(f"\nserver: {done.get('cache_hits', 0)} cache hits, "
          f"{done.get('dedup_hits', 0)} dedup hits, "
          f"{done.get('simulated', 0)} simulated")
    for payload, error in failures:
        print(f"repro submit: point {payload} failed: {error}",
              file=sys.stderr)
    return 1 if failures else 0


def _trace_stats(path: str) -> int:
    """Aggregate a local JSONL span trace (``REPRO_OBS_TRACE`` output)."""
    from ..obs.sinks import read_jsonl

    try:
        records = [r for r in read_jsonl(path)
                   if isinstance(r, dict) and "name" in r]
    except OSError as exc:
        print(f"repro stats: cannot read {path}: {exc}", file=sys.stderr)
        return 1
    if not records:
        print(f"repro stats: no span records in {path}", file=sys.stderr)
        return 1
    by_name: dict[str, list] = {}
    for rec in records:
        entry = by_name.setdefault(rec["name"], [0, 0.0, 0.0])
        dur = float(rec.get("dur", 0.0))
        entry[0] += 1
        entry[1] += dur
        entry[2] = max(entry[2], dur)
    traces = {rec.get("trace") for rec in records}
    roots = sum(1 for rec in records if rec.get("parent") is None)
    print(f"{path}: {len(records)} spans, {len(traces)} trace(s), "
          f"{roots} root span(s)\n")
    header = (f"{'span':24s} {'count':>7s} {'total s':>9s} "
              f"{'mean ms':>9s} {'max ms':>9s}")
    print(header)
    print("-" * len(header))
    for name, (count, total, peak) in sorted(by_name.items(),
                                             key=lambda kv: -kv[1][1]):
        print(f"{name:24s} {count:>7d} {total:>9.3f} "
              f"{total / count * 1e3:>9.2f} {peak * 1e3:>9.2f}")
    return 0


def _cmd_stats(args) -> int:
    """Telemetry snapshot: a local span trace, or a live server's metrics."""
    if args.trace:
        return _trace_stats(args.trace)
    from ..serve import Client, ServeError

    try:
        with Client(args.host, args.port, timeout=args.timeout) as client:
            payload = client.metrics()
    except (OSError, ServeError) as exc:
        print(f"repro stats: {args.host}:{args.port}: {exc} "
              f"(is a 1.6+ server running? or use --trace FILE)",
              file=sys.stderr)
        return 1
    if args.prom:
        print(payload["text"], end="")
        return 0
    stats, metrics = payload["stats"], payload["metrics"]
    answered = stats.get("points", 0)
    print(f"server {args.host}:{args.port}")
    print(f"  points answered:  {answered} "
          f"({stats.get('cache_hits', 0)} cache, "
          f"{stats.get('dedup_hits', 0)} dedup, "
          f"{stats.get('simulated', 0)} simulated)")
    if answered:
        print(f"  hit rates:        "
              f"cache {stats.get('cache_hits', 0) / answered:.0%}, "
              f"dedup {stats.get('dedup_hits', 0) / answered:.0%}")
    print(f"  shard queues:     {stats.get('shard_queue_depths', [])} "
          f"(inflight {stats.get('inflight', 0)})")
    print(f"  workers:          {stats.get('workers_alive', 0)} alive, "
          f"{stats.get('worker_deaths', 0)} death(s), "
          f"{stats.get('worker_respawns', 0)} respawn(s), "
          f"{stats.get('worker_failed_keys', 0)} failed key(s)")
    latency = metrics.get("submit_answer_seconds")
    if isinstance(latency, dict) and latency.get("count"):
        print(f"  submit->answer:   "
              f"p50 {latency['p50'] * 1e3:.1f} ms, "
              f"p90 {latency['p90'] * 1e3:.1f} ms, "
              f"p99 {latency['p99'] * 1e3:.1f} ms "
              f"over {latency['count']} request(s)")
    print(f"  jobs/connections: {stats.get('jobs', 0)} job(s), "
          f"{stats.get('connections', 0)} connection(s), "
          f"{stats.get('errors', 0)} error(s)")
    return 0


def _cmd_shutdown(args) -> int:
    from ..serve import Client, ServeError

    try:
        with Client(args.host, args.port, timeout=args.timeout) as client:
            client.shutdown()
    except (OSError, ServeError) as exc:
        print(f"repro shutdown: {exc}", file=sys.stderr)
        return 1
    print(f"server {args.host}:{args.port} draining")
    return 0


def _add_sweep_axes(parser: argparse.ArgumentParser, *,
                    scale: bool = False) -> None:
    """The axis flags shared by ``repro sweep`` and ``repro submit``.

    ``_sweep_from_args`` reads every flag added here plus ``scale``;
    pass ``scale=True`` unless :func:`_add_common` already supplies it.
    """
    if scale:
        parser.add_argument("--scale", type=int, default=1,
                            help="workload scale factor (default 1)")
    parser.add_argument("preset", nargs="?", default=None,
                        help="named preset (figure5, figure7, vc-kernels, "
                             "latency, fetch-pressure, table1, frame-scale)")
    parser.add_argument("--kernels", type=_csv, default=(),
                        help="comma-separated kernel names")
    parser.add_argument("--apps", type=_csv, default=(),
                        help="comma-separated application names")
    parser.add_argument("--isas", type=_csv, default=(),
                        help="comma-separated ISAs (alpha,mmx,mdmx,mom)")
    parser.add_argument("--ways", type=_csv_int, default=(),
                        help="comma-separated issue widths (1,2,4,8)")
    parser.add_argument("--latencies", type=_csv_int, default=(),
                        help="comma-separated perfect-memory latencies")
    parser.add_argument("--memory", type=_csv, default=(),
                        help="comma-separated memory models")


def _add_endpoint(parser: argparse.ArgumentParser) -> None:
    from ..serve.protocol import DEFAULT_HOST, DEFAULT_PORT

    parser.add_argument("--host", default=DEFAULT_HOST,
                        help=f"server address (default {DEFAULT_HOST})")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"server port (default {DEFAULT_PORT})")
    parser.add_argument("--timeout", type=float, default=None,
                        help="socket timeout in seconds (default: none)")


def build_parser() -> argparse.ArgumentParser:
    from ..serve.protocol import PROTOCOL_VERSION

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce figures and tables of the MOM paper "
                    "(MICRO 1999) through the unified experiment engine.")
    parser.add_argument(
        "--version", action="version",
        version=f"repro {__version__} (serve protocol {PROTOCOL_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("figure5", help="kernel speedups across issue widths")
    p.add_argument("--kernel", action="append",
                   help="restrict to specific kernels (repeatable)")
    p.add_argument("--explain", action="store_true",
                   help="follow up with a cycle-accounting pass and print "
                        "the CPI stacks")
    _add_common(p)
    p.set_defaults(func=_cmd_figure5)

    p = sub.add_parser("figure7", help="full-app speedups on real caches")
    p.add_argument("--app", action="append",
                   help="restrict to specific applications (repeatable)")
    p.add_argument("--explain", action="store_true",
                   help="follow up with a cycle-accounting pass and print "
                        "the CPI stacks")
    _add_common(p)
    p.set_defaults(func=_cmd_figure7)

    p = sub.add_parser("tables", help="print Tables 1-3 (configurations)")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("latency", help="memory-latency tolerance study")
    p.add_argument("--way", type=int, default=4, choices=(1, 2, 4, 8))
    _add_common(p)
    p.set_defaults(func=_cmd_latency)

    p = sub.add_parser("fetch-pressure", help="ops/instruction study")
    _add_common(p)
    p.set_defaults(func=_cmd_fetch_pressure)

    p = sub.add_parser("sweep", help="run a preset or custom sweep")
    _add_sweep_axes(p)
    p.add_argument("--explain", action="store_true",
                   help="run with cycle accounting and print the CPI "
                        "stacks under the grid")
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("explain",
                       help="attribute every cycle: ASCII CPI-stack bars "
                            "per point, optionally diffing two configs")
    _add_sweep_axes(p)
    p.add_argument("--diff", nargs=2, metavar=("CFG_A", "CFG_B"),
                   default=None,
                   help="per-component CPI delta between two isa-memory "
                        "configurations, e.g. --diff mom-vectorcache "
                        "mmx-conv")
    _add_common(p)
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("kernels",
                       help="list kernels/apps with per-ISA DLP coverage")
    p.set_defaults(func=_cmd_kernels)

    p = sub.add_parser("lint",
                       help="statically verify kernels: IR/stream "
                            "dataflow, saturation ranges")
    p.add_argument("--kernel", help="lint one kernel (default: all)")
    p.add_argument("--isa", choices=["alpha", "mmx", "mdmx", "mom"],
                   help="lint one ISA (default: all)")
    p.add_argument("--json", action="store_true",
                   help="print findings and proof artifacts as JSON")
    p.add_argument("--artifact", metavar="PATH",
                   help="write the JSON findings/proof artifact to PATH")
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("cache", help="inspect, clear or prune the result "
                                     "cache")
    p.add_argument("--clear", action="store_true", help="delete all entries")
    p.add_argument("--prune", metavar="AGE", default=None,
                   help="evict entries older than AGE (seconds, or with a "
                        "s/m/h/d suffix, e.g. 7d)")
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(func=_cmd_cache)

    p = sub.add_parser("serve", help="run the sharded simulation service")
    _add_endpoint(p)
    p.add_argument("--workers", type=int, default=2,
                   help="shard worker processes (default 2)")
    p.add_argument("--max-inflight", type=int, default=None,
                   help="in-flight simulation budget (default 8*workers)")
    p.add_argument("--cache-dir", default=None,
                   help="override the result-cache directory")
    p.add_argument("--no-cache", action="store_true",
                   help="skip the persistent result cache")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("ping", help="handshake with a running server")
    _add_endpoint(p)
    p.set_defaults(func=_cmd_ping)

    p = sub.add_parser("submit",
                       help="run a preset or custom sweep via the service")
    _add_sweep_axes(p, scale=True)
    _add_endpoint(p)
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser("stats",
                       help="render telemetry: live server metrics, or a "
                            "local JSONL span trace")
    _add_endpoint(p)
    p.add_argument("--trace", metavar="FILE", default=None,
                   help="aggregate a local REPRO_OBS_TRACE span file "
                        "instead of querying a server")
    p.add_argument("--prom", action="store_true",
                   help="print the raw Prometheus text exposition")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("shutdown", help="drain and stop a running server")
    _add_endpoint(p)
    p.set_defaults(func=_cmd_shutdown)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"repro: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
