"""One fresh interpreter of the benchmark: a set-up probe, one cold
iteration, or the ``repro serve`` a replay is timed on.

Started by ``run.py`` with :func:`common.child_env`; never imported by it.
The probe and cold modes first do what a user's command does before any
work -- ``import repro.exp.cli`` and construct a ``Session`` -- then
print one ``ready`` JSON line, so the parent can time set-up from spawn
to that line.  A cold iteration then runs, with the core-speed sampler
of ``speed.py``, and prints one ``done`` JSON line.

Usage::

    child.py probe CACHE_DIR
    child.py cold WORKLOAD CACHE_DIR TRACE ORDER [TAMPER]
    child.py serve STATS_PATH TRACE SERVE_ARGS...
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

from common import (cold_points, load_pins, peak_rss_mb,
                    point_key, result_counters, result_digest)
from speed import Sampler, rescale, window

_clock = time.perf_counter
_STDOUT = sys.stdout


def emit(record: dict) -> None:
    _STDOUT.write(json.dumps(record) + "\n")
    _STDOUT.flush()


def ready(cache_dir: str):
    """The set-up every mode shares; returns the constructed Session."""
    start = _clock()
    import repro.exp.cli  # noqa: F401  (what `repro ...` imports first)
    imported = _clock()
    from repro.exp import Session

    session = Session(cache_dir)
    import numpy

    emit({"op": "ready", "import_s": imported - start,
          "boot_s": _clock() - imported, "numpy": numpy.__version__,
          "numba": _has_numba()})
    return session


def _has_numba() -> bool:
    import importlib.util

    return importlib.util.find_spec("numba") is not None


def run_workload(workload: str, session, order: tuple[str, ...]) -> dict:
    """The timed part: ``Session.run`` of the points plus the summary."""
    if workload == "fig5-cold":
        from repro.eval import figure5

        panels = figure5.run(kernels=order, session=session)
        return figure5.mom_vs_best_simd(panels)
    if workload == "fig7-cold":
        from repro.eval import figure7

        panels = figure7.run(apps=order, session=session)
        return figure7.summarize(panels)
    points = cold_points(workload)
    results = session.run(points)
    for point in points:
        print(point.target, point.isa, point.way, point.memory,
              results[point].cycles)
    return {}


def cold(workload: str, cache_dir: str, trace: bool, order: str,
         tamper: bool = False) -> None:
    session = ready(cache_dir)
    order = tuple(order.split(",")) if order else ()
    recorder = None
    if trace:
        from layers import Recorder

        recorder = Recorder().install()
    sink = io.StringIO()
    error = None
    sampler = Sampler().start()
    with contextlib.redirect_stdout(sink):
        root = recorder.root() if recorder else contextlib.nullcontext()
        start, cpu_start = _clock(), time.process_time()
        try:
            with root:
                summary = run_workload(workload, session, order)
        except Exception as exc:       # reported as failed points
            error = f"{type(exc).__name__}: {exc}"
            summary = {}
        wall, cpu_end = _clock() - start, time.process_time()
    sampler.stop()
    if recorder is not None:
        recorder.uninstall()
    rss = peak_rss_mb()
    chunks = window(sampler.samples, cpu_start, cpu_end)
    cpu = cpu_end - cpu_start - sum(chunks)
    points = cold_points(workload, order)
    record = {"op": "done", "wall_s": wall, "cpu_s": cpu,
              "ref_cpu_s": rescale(cpu, chunks) if chunks else None,
              "rss_mb": rss, "points": len(points), "summary": summary}
    if error is not None:
        record.update(failed=len(points), failures=[error])
        emit(record)
        return
    pins = load_pins()
    results, failures = [], []
    for point in points:
        cached = session.lookup(point)
        data = cached.to_dict() if cached is not None else None
        if data is not None and tamper and not results:
            data["cycles"] += 1        # the self-test's planted defect
        pin = pins.get(point_key(point.payload()))
        if data is None or pin is None \
                or result_digest(data) != pin["digest"]:
            failures.append(point_key(point.payload()))
        if data is not None:
            results.append(data)
    counters = result_counters(results)
    counters["exp.cache.puts"] = sum(
        1 for name in os.listdir(cache_dir) if name.endswith(".json"))
    record.update(failed=len(failures), failures=failures[:5],
                  counters=counters)
    if recorder is not None:
        record["layers"] = recorder.layer_report()
    emit(record)


def serve(stats_path: str, trace: bool, argv: list[str]) -> None:
    """``repro serve`` with the core-speed sampler running and, in traced
    runs, the layer wrappers installed.

    The server's own span trace goes wherever ``REPRO_OBS_TRACE`` points;
    the sampler's samples and the wrapper aggregates are written to
    ``stats_path`` on exit.
    """
    from repro.exp import cli

    recorder = None
    if trace:
        from layers import Recorder

        recorder = Recorder().install()
        recorder.active = True
    sampler = Sampler().start()
    try:
        cli.main(["serve", *argv])
    finally:
        sampler.stop()
        stats = {"samples": sampler.samples}
        if recorder is not None:
            recorder.active = False
            stats["layers"] = recorder.layer_report()
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(stats, fh)


def main(argv: list[str]) -> int:
    mode, args = argv[0], argv[1:]
    if mode == "probe":
        ready(args[0])
    elif mode == "cold":
        cold(args[0], args[1], args[2] == "1", args[3],
             tamper=len(args) > 4 and args[4] == "1")
    elif mode == "serve":
        serve(args[0], args[1] == "1", args[2:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
