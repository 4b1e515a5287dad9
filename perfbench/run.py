"""The repository benchmark: cold Figure 5/7 regeneration, one streamed
point, and a warm served replay.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig5-cold --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seconds 15 --trace 1   # + report
    python3 perfbench/run.py --self-test

Workloads -- each a closed loop driven from this process, with at most
two processes or connections working at once:

``fig7-cold``
    ``repro figure7`` on an empty result cache, ``--jobs 1``: 50 points in
    15 same-trace ``BatchCore`` groups on all four cache hierarchies.
``fig5-cold``
    ``repro figure5`` on an empty result cache: 128 points in 32 groups of
    4 ``PerfectMemory`` lanes, with the kernels' golden checks.
``frame-point``
    ``repro sweep --apps mpeg2_encode --isas alpha --memory conventional
    --ways 4 --scale 5``: one point above ``Core.STREAM_THRESHOLD``, so
    single-lane ``Core.run`` on the streamed record source.
``serve-warm``
    ``repro serve --workers 1`` on a result cache already holding the
    fig5 and fig7 grids (filled untimed from ``pins.json``).  Two
    connections each request every same-trace group once per pass; the
    passes run on three servers in turn.

Each cold iteration is a fresh interpreter (bytecode compiled beforehand)
on a fresh result cache under ``perfbench/.work``; ``REPRO_*`` variables
are removed.  A run repeats iterations until ``--seconds`` have passed
(whole iterations, at least one) and reports medians.  Every result is
checked against the digest pinned for its point in ``pins.json``; a
mismatch, an exception or a non-ok answer counts as a failed point, and
an iteration or pass with a failure is left out of the timings.

End-to-end metrics (``--trace 0``, the JSON result line), host time:

* ``ref_cpu_s`` -- CPU seconds of one iteration in the process that does
  the work, rescaled to the reference core speed (``speed.py``):
  ``Session.run`` of the workload's points plus the figure summary in
  the simulating process (median over iterations), or one replay pass in
  the server (mean over a server's passes, median over the run's three
  servers; the client is this process, the load generator).  CPU rather
  than wall seconds, because the reference host (a 2-CPU virtual
  machine) shares its cores with other machines: their load stretches
  the wall time of two cooperating processes 2-5x.  Rescaled, because
  it also changes how fast a core runs: raw CPU seconds of the same
  iteration spread 8-35% over ten runs.
* ``peak_rss_mb`` -- VmHWM of the simulating process (serve-warm: of the
  server).  Median.
* ``setup_s`` -- fresh interpreter to ready, wall seconds rescaled to
  the reference core speed: ``import repro.exp.cli`` plus a constructed
  ``Session`` (serve-warm: ``repro serve`` spawned until its first
  ``ping`` answers).  Median of seven.

Printed beside them, not gated: ``cpu_s`` and the set-up wall seconds
(raw), ``wall_s``, ``sim_ips`` (cold), ``answers_per_s`` and the per-request
``answer_p50_ms``/``answer_p95_ms`` (serve-warm), ``fail_frac``, the host
facts and load, and the simulated speed-ups beside the paper's.

``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics: self time of each layer's public entry points (see
``layers.py``), work counters, and the tracing overhead.  Work counters
are compared across every run of the same source fingerprint; any
difference makes the run incorrect.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import speed
from common import (BENCH, PINS, ROOT, SRC, WORK, bootstrap, child_env,
                    load_pins, point_key, result_digest)

WORKLOADS = ("fig7-cold", "fig5-cold", "frame-point", "serve-warm")
#: Counts only the traced wrappers see; like the result-derived counters,
#: they must repeat exactly across runs of the same code.
TRACED_COUNTERS = ("exp.cache.gets", "exp.cache.puts", "cpu.runs",
                   "emulib.instr")
SETUP_SAMPLES = 7
#: Serve replay passes per server at least: 2 connections x 47 groups
#: each, so three passes give 282 request latencies.
MIN_PASSES = 3
#: Servers an untraced serve-warm run replays on in turn, each for an
#: equal share of the run; the run reports their median.
MEASURE_SERVERS = 3
#: No iteration starts once a run has used this much time, so every run
#: ends well inside the 180 s a run may take.
RUN_BUDGET_S = 140.0
CHILD_TIMEOUT_S = 170.0
ACCURACY_NOTE = ("model not validated against hardware; the paper is the "
                 "only reference")
UNITS = {"ref_cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

_clock = time.perf_counter


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, dead child)."""


# --- processes --------------------------------------------------------------

def _spawn(args: list[str], log_name: str, env=None) -> subprocess.Popen:
    log = open(WORK / "logs" / f"{log_name}.err", "w", encoding="utf-8")
    try:
        return subprocess.Popen([sys.executable, *args], cwd=ROOT,
                                env=env or child_env(), text=True,
                                stdout=subprocess.PIPE, stderr=log)
    finally:
        log.close()


def _read_json(proc: subprocess.Popen, what: str) -> dict:
    line = proc.stdout.readline()
    if not line:
        proc.wait(timeout=CHILD_TIMEOUT_S)
        raise BenchError(f"{what} exited with {proc.returncode} before "
                         f"reporting; see perfbench/.work/logs")
    return json.loads(line)


def _finish(proc: subprocess.Popen) -> None:
    try:
        proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("child process timed out") from None


def _child(mode_args: list[str], name: str):
    """Run ``child.py``; returns (set-up sample, ready record, done record)."""
    chunks = speed.measure()
    start = _clock()
    proc = _spawn([str(BENCH / "child.py"), *mode_args], name)
    try:
        ready = _read_json(proc, name)
        setup = _setup_sample(_clock() - start, chunks)
        done = _read_json(proc, name) if mode_args[0] == "cold" else None
    finally:
        _finish(proc)
    return setup, ready, done


def _setup_sample(wall: float, chunks: list[float]) -> tuple[float, float]:
    """Set-up wall seconds, and the same rescaled to the reference core by
    chunks run just before the spawn (``speed.py``)."""
    return wall, speed.rescale(wall, chunks)


def _setup_metrics(setups: list[tuple[float, float]]) -> dict:
    return {"setup_s": statistics.median(ref for _, ref in setups),
            "setup_wall_s": statistics.median(wall for wall, _ in setups)}


def _fresh_cache() -> str:
    return tempfile.mkdtemp(prefix="cache-", dir=WORK / "tmp")


def _probe() -> tuple[tuple[float, float], dict]:
    """One set-up sample: a fresh interpreter that only gets ready."""
    cache = _fresh_cache()
    try:
        setup, ready, _ = _child(["probe", cache], "probe")
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    return setup, ready


# --- provenance -------------------------------------------------------------

def _fingerprint() -> str:
    from repro.emulib.fingerprint import source_fingerprint

    return source_fingerprint()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def provenance(ready: dict) -> str:
    numba = "present" if ready["numba"] else "absent (jit path unmeasured)"
    return (f"host: nproc={os.cpu_count()} cpu={_cpu_model()!r} "
            f"python={sys.version.split()[0]} numpy={ready['numpy']} "
            f"numba={numba} git={_git_sha()} src={_fingerprint()}")


# --- cold workloads -----------------------------------------------------------

def run_cold(workload: str, rng: random.Random, seconds: float,
             trace: bool, started: float, tamper: bool = False) -> dict:
    targets: list[str] = []
    if workload != "frame-point":
        from repro.exp import preset

        targets = list(preset("figure5" if workload == "fig5-cold"
                              else "figure7").targets)
    iterations: list[dict] = []
    setups: list[float] = []
    readies: list[dict] = []
    window = _clock()
    while True:
        traced = trace and len(iterations) % 2 == 1
        # Each iteration runs the figure's kernels or applications in an
        # order of its own, so the run's medians do not rest on one order.
        rng.shuffle(targets)
        order = ",".join(targets)
        cache = _fresh_cache()
        try:
            setup, ready, done = _child(
                ["cold", workload, cache, "1" if traced else "0", order,
                 "1" if tamper else "0"], f"{workload}-{len(iterations)}")
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        done["traced"] = traced
        iterations.append(done)
        setups.append(setup)
        readies.append(ready)
        # Whole iterations only: stop at the count that lands nearest to
        # the window (at least one; two when traced, one of each kind).
        spent = _clock() - window
        each = spent / len(iterations)
        enough = spent + each / 2 >= seconds \
            and (not trace or len(iterations) >= 2)
        if enough or _clock() - started + each > RUN_BUDGET_S:
            break
    while len(setups) < SETUP_SAMPLES:
        setup, ready = _probe()
        setups.append(setup)
        readies.append(ready)
    return {"iterations": iterations, "setups": setups, "readies": readies}


def cold_metrics(workload: str, run: dict, trace: bool) -> dict:
    iterations = run["iterations"]
    clean = [it for it in iterations if it["failed"] == 0]
    plain = [it for it in clean if not it["traced"]]
    out = {
        "attempted": sum(it["points"] for it in iterations),
        "failed": sum(it["failed"] for it in iterations),
        "failures": [f for it in iterations for f in it.get("failures", [])],
        "counters": [it["counters"] for it in clean],
        **_setup_metrics(run["setups"]),
        "samples": len(plain),
    }
    if plain:
        out["wall_s"] = statistics.median(it["wall_s"] for it in plain)
        out["cpu_s"] = statistics.median(it["cpu_s"] for it in plain)
        _set_ref_cpu(out, [it["ref_cpu_s"] for it in plain],
                     statistics.median)
        out["peak_rss_mb"] = statistics.median(it["rss_mb"] for it in plain)
        out["sim_ips"] = (clean[0]["counters"]["cpu.lane_instr"]
                          / out["wall_s"])
        out["summary"] = plain[0]["summary"]
    traced = [it for it in clean if it["traced"]]
    out["traced_counters"] = [
        {k: it["layers"][k] for k in TRACED_COUNTERS} for it in traced]
    if trace and traced and plain:
        out["layers"] = _cold_layers(traced, run["readies"], out)
    return out


def _set_ref_cpu(out: dict, values: list, reduce) -> None:
    """``ref_cpu_s`` from the samples that ran a calibration chunk (every
    timed one longer than a few chunk intervals)."""
    values = [v for v in values if v is not None]
    if values:
        out["ref_cpu_s"] = reduce(values)


def _cold_layers(traced: list[dict], readies: list[dict], out: dict) -> dict:
    layers = [it["layers"] for it in traced]
    keys = layers[0].keys()
    mean = {k: sum(layer[k] for layer in layers) / len(layers) for k in keys}
    counters = traced[0]["counters"]
    report = dict(mean)
    report.update(counters)
    report["setup.import_s"] = statistics.median(r["import_s"]
                                                 for r in readies)
    report["setup.boot_s"] = statistics.median(r["boot_s"] for r in readies)
    report["emulib.build_ips"] = (mean["emulib.instr"] / mean["emulib.build_s"]
                                  if mean["emulib.build_s"] else 0.0)
    report["cpu.step_ips"] = (counters["cpu.lane_instr"] / mean["cpu.step_s"]
                              if mean["cpu.step_s"] else 0.0)
    report["exp.cache.hit_ratio"] = (mean["exp.cache.hits"]
                                     / mean["exp.cache.gets"]
                                     if mean["exp.cache.gets"] else 0.0)
    traced_wall = statistics.median(it["wall_s"] for it in traced)
    report["obs.overhead_frac"] = traced_wall / out["wall_s"] - 1.0
    return report


# --- serve-warm ---------------------------------------------------------------

def prepare_serve_cache(tamper: bool) -> tuple[str, list]:
    """A result cache holding the pinned fig5 + fig7 grid (every scale-1
    point) under this code's salt; returns it and the grid's same-trace
    groups."""
    from repro.cpu import SimResult
    from repro.exp import PointSpec, Session
    from repro.exp.engine import build_key

    cache = _fresh_cache()
    session = Session(cache)
    groups: dict[tuple, list] = {}
    for entry in load_pins().values():
        point = PointSpec.from_payload(entry["point"])
        if point.scale != 1:
            continue
        result = SimResult.from_dict(entry["result"])
        if tamper and not groups:
            result.cycles += 1          # the self-test's planted defect
        session.store(point, result)
        groups.setdefault(build_key(point), []).append(point)
    return cache, list(groups.values())


def boot_server(cache: str, stats_path: str | None = None,
                spans_path: str | None = None):
    """Spawn ``repro serve``; returns (process, port, spawn-to-ping sample).

    With ``stats_path`` the server runs under ``child.py`` with the
    core-speed sampler (and, with ``spans_path``, traced); otherwise it
    is the plain command, for set-up timing.
    """
    from repro.serve import Client

    serve_args = ["--workers", "1", "--host", "127.0.0.1", "--port", "0",
                  "--cache-dir", cache]
    env = child_env()
    chunks = speed.measure()
    start = _clock()
    if stats_path is None:
        args = ["-m", "repro.exp.cli", "serve", *serve_args]
    else:
        if spans_path is not None:
            env["REPRO_OBS_TRACE"] = spans_path
        args = [str(BENCH / "child.py"), "serve", stats_path,
                "1" if spans_path else "0", *serve_args]
    proc = _spawn(args, "serve", env=env)
    line = proc.stdout.readline()
    if "listening on" not in line:
        _finish(proc)
        raise BenchError(f"repro serve did not start: {line!r}")
    port = int(line.split("listening on ", 1)[1].split()[0].rsplit(":", 1)[1])
    try:
        with Client("127.0.0.1", port, timeout=30) as client:
            client.ping()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, port, _setup_sample(_clock() - start, chunks)


def _cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds a process has used (clock ticks)."""
    with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _vmhwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def stop_server(proc: subprocess.Popen, port: int) -> None:
    from repro.serve import Client

    try:
        with Client("127.0.0.1", port, timeout=30) as client:
            client.shutdown()
    finally:
        _finish(proc)
        proc.stdout.close()


async def _replay(port: int, groups: list, rng: random.Random,
                  seconds: float, started: float, pins: dict,
                  expected: int) -> list[dict]:
    """Closed-loop replay passes on two connections; one record per pass,
    its answers checked after the pass (outside its timing)."""
    from repro.serve.client import AsyncClient

    clients = [await AsyncClient("127.0.0.1", port).connect()
               for _ in range(2)]
    passes: list[dict] = []
    window = _clock()
    try:
        while True:
            latencies: list[float] = []
            messages: list[dict] = []

            async def connection(client, order):
                for index in order:
                    sent = _clock()
                    async for message in client.submit_iter(groups[index]):
                        if message["op"] == "result":
                            messages.append(message)
                    latencies.append(_clock() - sent)

            orders = [rng.sample(range(len(groups)), len(groups))
                      for _ in clients]
            begin = _clock()
            await asyncio.gather(*(connection(c, o)
                                   for c, o in zip(clients, orders)))
            record = {"wall_s": _clock() - begin, "latencies": latencies}
            _check_answers(record, messages, pins, expected)
            passes.append(record)
            spent = _clock() - window
            if (spent >= seconds and len(passes) >= MIN_PASSES) \
                    or _clock() - started > RUN_BUDGET_S:
                return passes
    finally:
        for client in clients:
            await client.close()


def run_serve(rng: random.Random, seconds: float, trace: bool,
              started: float, tamper: bool = False) -> dict:
    pins = load_pins()
    cache, groups = prepare_serve_cache(tamper)
    expected = 2 * sum(len(g) for g in groups)
    out: dict = {"setups": [], "passes": [], "expected": expected}
    try:
        for _ in range(SETUP_SAMPLES):
            proc, port, setup = boot_server(cache)
            out["setups"].append(setup)
            stop_server(proc, port)
        # A traced run replays on untraced servers, then a traced one.
        modes = [False] * MEASURE_SERVERS + ([True] if trace else [])
        for server, traced in enumerate(modes):
            stats_path = str(WORK / "tmp" / "serve-stats.json")
            spans_path = (str(WORK / "tmp" / "serve-spans.jsonl")
                          if traced else None)
            for path in (stats_path, spans_path):
                if path and os.path.exists(path):
                    os.unlink(path)
            proc, port, _ = boot_server(cache, stats_path, spans_path)
            try:
                cpu_start = _cpu_seconds(proc.pid)
                passes = asyncio.run(_replay(port, groups, rng,
                                             seconds / len(modes), started,
                                             pins, expected))
                cpu_end = _cpu_seconds(proc.pid)
                rss = _vmhwm_mb(proc.pid)
            finally:
                stop_server(proc, port)
            with open(stats_path, encoding="utf-8") as fh:
                stats = json.load(fh)
            chunks = speed.window(stats["samples"], cpu_start, cpu_end)
            cpu = cpu_end - cpu_start - sum(chunks)
            ref = (speed.rescale(cpu, chunks) / len(passes) if chunks
                   else None)
            for record in passes:
                record["server"] = server
                record["traced"] = traced
                record["rss_mb"] = rss
                record["cpu_s"] = cpu / len(passes)
                record["ref_cpu_s"] = ref
            out["passes"].extend(passes)
            if traced:
                out["server"] = _load_server_trace(stats["layers"],
                                                   spans_path)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    return out


def _check_answers(record: dict, messages: list[dict], pins: dict,
                   expected: int) -> None:
    """Check one pass's answers against the pins."""
    from repro.serve import protocol

    failures = []
    size = 0
    for message in messages:
        key = point_key(message["point"])
        size += len(protocol.encode(message))
        if not message["ok"] or key not in pins \
                or result_digest(message["result"]) != pins[key]["digest"]:
            failures.append(key)
    failures.extend(["missing answer"] * max(0, expected - len(messages)))
    record["answers"] = len(messages)
    record["failed"] = len(failures)
    record["failures"] = failures[:5]
    record["bytes"] = size


def _load_server_trace(layers: dict, spans_path: str) -> dict:
    stats = dict(layers)
    spans: dict[str, list[float]] = {}
    with open(spans_path, encoding="utf-8") as fh:
        for line in fh:
            try:
                record = json.loads(line)
            except ValueError:
                continue
            spans.setdefault(record.get("name"), []).append(record["dur"])
    stats["spans"] = {name: (len(durs), sum(durs))
                      for name, durs in spans.items()}
    return stats


def serve_metrics(run: dict, trace: bool) -> dict:
    passes = run["passes"]
    clean = [p for p in passes if p["failed"] == 0]
    plain = [p for p in clean if not p["traced"]]
    latencies = sorted(x for p in plain for x in p["latencies"])
    out = {
        "attempted": run["expected"] * len(passes),
        "failed": sum(p["failed"] for p in passes),
        "failures": [f for p in passes for f in p["failures"]],
        "counters": [{"serve.answers": p["answers"]} for p in clean],
        **_setup_metrics(run["setups"]),
        "samples": len(plain),
    }
    if plain:
        # The server figures are per server: one pass of each carries them.
        servers = list({p["server"]: p for p in plain}.values())
        out["wall_s"] = statistics.median(p["wall_s"] for p in plain)
        out["cpu_s"] = statistics.median(p["cpu_s"] for p in servers)
        _set_ref_cpu(out, [p["ref_cpu_s"] for p in servers],
                     statistics.median)
        out["peak_rss_mb"] = statistics.median(p["rss_mb"] for p in servers)
        out["answers_per_s"] = plain[0]["answers"] / out["wall_s"]
        out["latency"] = {"n": len(latencies),
                          "p50_ms": 1e3 * _quantile(latencies, 0.50),
                          "p95_ms": 1e3 * _quantile(latencies, 0.95)}
    traced = [p for p in clean if p["traced"]]
    out["traced_counters"] = []
    if trace and traced and plain:
        out["layers"] = _serve_layers(run["server"], traced, out)
        out["traced_counters"] = [{"exp.cache.gets":
                                   out["layers"]["exp.cache.gets"]}]
    return out


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile of sorted values."""
    return values[min(len(values) - 1, max(0, round(q * len(values)) - 1))]


def _serve_layers(server: dict, traced: list[dict], out: dict) -> dict:
    spans = server["spans"]
    requests = spans.get("serve.request", (0, 0.0))[0] or 1
    dispatch = 1e3 * spans.get("serve.dispatch", (0, 0.0))[1] / requests
    flush = 1e3 * spans.get("serve.flush", (0, 0.0))[1] / requests
    latency = 1e3 * statistics.fmean(x for p in traced
                                     for x in p["latencies"])
    answers = sum(p["answers"] for p in traced)
    report = {name: 0.0 for name in PER_LAYER}
    report.update({
        "exp.cache.get_s": server["exp.cache.get_s"],
        "exp.cache.gets": server["exp.cache.gets"],
        "exp.cache.hit_ratio": (server["exp.cache.hits"]
                                / server["exp.cache.gets"]
                                if server["exp.cache.gets"] else 0.0),
        "exp.codec_s": server["exp.codec_s"] / len(traced),
        "serve.dispatch_ms": dispatch,
        "serve.flush_ms": flush,
        "serve.wait_ms": latency - dispatch - flush,
        "serve.bytes_per_answer": sum(p["bytes"] for p in traced) / answers,
        "serve.answers": traced[0]["answers"],
        "trace.wall_s": statistics.median(p["wall_s"] for p in traced),
    })
    report["obs.overhead_frac"] = report["trace.wall_s"] / out["wall_s"] - 1
    return report


# --- reporting ----------------------------------------------------------------

#: Every per-layer metric with its unit (the ``--trace 1`` result).
PER_LAYER = {
    "setup.import_s": "s", "setup.boot_s": "s",
    "emulib.build_s": "s", "emulib.instr": "count",
    "emulib.build_ips": "instr/s", "emulib.trace_mb": "MB",
    "emulib.peak_rss_mb": "MB",
    "cpu.decode_s": "s", "cpu.step_s": "s", "cpu.writeback_s": "s",
    "cpu.other_s": "s", "cpu.lane_instr": "count", "cpu.step_ips": "instr/s",
    "cpu.lanes_per_decode": "ratio", "cpu.sim_cycles": "count",
    "cpu.peak_rss_mb": "MB",
    "memsys.l1_accesses": "count", "memsys.l1_miss_rate": "ratio",
    "memsys.l2_miss_rate": "ratio", "memsys.dram_accesses": "count",
    "memsys.vector_transactions": "count",
    "exp.session_self_s": "s", "exp.cache.put_s": "s",
    "exp.cache.puts": "count", "exp.cache.get_s": "s",
    "exp.cache.gets": "count", "exp.cache.hit_ratio": "ratio",
    "exp.codec_s": "s",
    "serve.dispatch_ms": "ms", "serve.flush_ms": "ms", "serve.wait_ms": "ms",
    "serve.bytes_per_answer": "B", "serve.answers": "count",
    "bench.self_s": "s", "trace.wall_s": "s", "obs.overhead_frac": "ratio",
}


def check_counters(workload: str, counters: list[dict]) -> list[str]:
    """Compare this run's work counters with each other and with every
    earlier run of the same source fingerprint in this checkout."""
    problems = []
    for other in counters[1:]:
        if other != counters[0]:
            problems.append(f"counters differ between iterations: "
                            f"{_diff(counters[0], other)}")
    if not counters:
        return problems
    state_path = WORK / "state" / f"{_fingerprint()}.json"
    state = {}
    if state_path.exists():
        with open(state_path, encoding="utf-8") as fh:
            state = json.load(fh)
    if workload in state:
        if state[workload] != counters[0]:
            problems.append(f"counters differ from an earlier run: "
                            f"{_diff(state[workload], counters[0])}")
    else:
        state[workload] = counters[0]
        state_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = state_path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(state, fh, indent=1, sort_keys=True)
        os.replace(tmp, state_path)
    return problems


def _diff(old: dict, new: dict) -> str:
    keys = sorted(set(old) | set(new))
    return ", ".join(f"{k}: {old.get(k)} -> {new.get(k)}"
                     for k in keys if old.get(k) != new.get(k))


def accuracy_line(workload: str, summary: dict) -> str | None:
    """The simulated speed-up beside the paper's claim (not gated)."""
    if workload == "fig7-cold" and summary:
        return (f"accuracy: MOM over MMX at 4-way, average "
                f"{summary['average']:.2f}x simulated vs ~1.20x in the paper "
                f"({ACCURACY_NOTE})")
    if workload == "fig5-cold" and summary:
        ratios = " ".join(f"{k}={v:.2f}x" for k, v in summary.items())
        return (f"accuracy: MOM over best 1D SIMD at 4-way: {ratios}; "
                f"paper: 1.3-4x ({ACCURACY_NOTE})")
    return None


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tamper: bool = False) -> dict:
    """One run of one workload; returns the metrics and the check outcome."""
    started = _clock()
    rng = random.Random(f"{workload}:{seed}")
    load_before = os.getloadavg()
    if workload == "serve-warm":
        run = run_serve(rng, seconds, trace, started, tamper)
        result = serve_metrics(run, trace)
        ready = _probe()[1]
        if "layers" in result:
            # The server's import is not observable from outside; take it
            # from probes, and the rest of spawn-to-ping as its boot.
            imp = statistics.median(
                [ready["import_s"]] + [_probe()[1]["import_s"]
                                       for _ in range(2)])
            result["layers"]["setup.import_s"] = imp
            result["layers"]["setup.boot_s"] = result["setup_wall_s"] - imp
    else:
        run = run_cold(workload, rng, seconds, trace, started, tamper)
        result = cold_metrics(workload, run, trace)
        ready = run["readies"][0]
    result["problems"] = (
        check_counters(workload, result.pop("counters"))
        + check_counters(f"{workload}:traced", result.pop("traced_counters")))
    result["provenance"] = provenance(ready)
    result["load"] = (load_before, os.getloadavg())
    result["seconds"] = _clock() - started
    return result


def print_human(workload: str, result: dict, trace: bool) -> None:
    print(f"== {workload}  ({result['seconds']:.1f} s)")
    print(result["provenance"])
    before, after = result["load"]
    print(f"load average before {before[0]:.2f}, after {after[0]:.2f}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"fail_frac {failed / attempted if attempted else 1.0:.6f} ratio "
          f"({failed} of {attempted} points failed)")
    for failure in result["failures"][:5]:
        print(f"  failed: {failure}")
    for problem in result["problems"]:
        print(f"  counter check: {problem}")
    print(f"setup_s {result['setup_s']:.4f} s  (wall "
          f"{result['setup_wall_s']:.4f} s)")
    if "wall_s" not in result:
        print("no clean iteration: nothing timed")
        return
    if "ref_cpu_s" in result:
        print(f"ref_cpu_s {result['ref_cpu_s']:.4f} s  (cores ran at "
              f"{result['ref_cpu_s'] / result['cpu_s']:.2f}x the reference "
              f"speed)")
    print(f"cpu_s {result['cpu_s']:.4f} s  ({result['samples']} untraced "
          f"iterations)")
    print(f"wall_s {result['wall_s']:.4f} s")
    if "sim_ips" in result:
        print(f"sim_ips {result['sim_ips']:.0f} instr/s")
    if "latency" in result:
        lat = result["latency"]
        print(f"answers_per_s {result['answers_per_s']:.1f} 1/s")
        print(f"answer_p50_ms {lat['p50_ms']:.3f} ms  answer_p95_ms "
              f"{lat['p95_ms']:.3f} ms  ({lat['n']} requests)")
    print(f"peak_rss_mb {result['peak_rss_mb']:.1f} MB")
    line = accuracy_line(workload, result.get("summary", {}))
    if line:
        print(line)
    if trace and "layers" in result:
        print_layers(workload, result["layers"])
        write_report(workload, result["layers"])


def print_layers(workload: str, layers: dict) -> None:
    from layers import SELF_KEYS

    print(f"-- per-layer ({workload}, traced)")
    wall = layers["trace.wall_s"]
    for name, unit in PER_LAYER.items():
        value = layers.get(name, 0.0)
        share = (f"  {100 * value / wall:5.1f}% of traced wall"
                 if name in SELF_KEYS and workload != "serve-warm" else "")
        print(f"  {name:28s} {value:14.6g} {unit:7s}{share}")
    if workload != "serve-warm":
        total = sum(layers[k] for k in SELF_KEYS)
        print(f"  self times sum to {total:.4f} s of traced wall "
              f"{wall:.4f} s; tracing overhead "
              f"{100 * layers['obs.overhead_frac']:+.1f}%")


def self_times_add_up(layers: dict) -> bool:
    from layers import SELF_KEYS

    total = sum(layers[k] for k in SELF_KEYS)
    return abs(total - layers["trace.wall_s"]) <= 0.01 * layers["trace.wall_s"]


def write_report(workload: str, layers: dict) -> None:
    """The traced run's report, written once when the run ends."""
    path = WORK / "reports" / f"{workload}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "layers": layers}, fh, indent=1,
                  sort_keys=True)


def final_record(workload: str, result: dict, trace: bool) -> dict:
    correct = (result["failed"] == 0 and not result["problems"]
               and all(name in result for name in UNITS))
    if trace:
        layers = result.get("layers")
        correct = correct and layers is not None
        if layers is not None and workload != "serve-warm":
            correct = correct and self_times_add_up(layers)
        metrics = {name: {"value": (layers or {}).get(name, 0.0),
                          "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": result[name], "unit": unit}
                   for name, unit in UNITS.items() if name in result}
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def prepare() -> None:
    """Check the checkout holds the program, then compile its bytecode."""
    if not (SRC / "repro" / "exp" / "cli.py").is_file() or not PINS.is_file():
        raise BenchError(f"no repro sources under {SRC} or no pin table; "
                         f"run from the root of a full checkout")
    for sub in ("tmp", "logs", "state"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    done = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "repro"),
         str(BENCH)], cwd=ROOT, env=child_env(), capture_output=True,
        text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError(f"compileall failed: {done.stdout}{done.stderr}")


def self_test() -> int:
    """Plant one tampered result per path; each must count as failed and
    stay out of the timings."""
    ok = True
    # One tampered point per cold iteration; the serve replay answers the
    # tampered point on both connections in every one of its passes.
    for workload, expected in (("fig5-cold", 1),
                               ("serve-warm",
                                2 * MIN_PASSES * MEASURE_SERVERS)):
        result = run_workload(workload, 0, 0.0, False, tamper=True)
        print_human(workload, result, False)
        caught = result["failed"] == expected and "wall_s" not in result
        print(f"self-test {workload}: {result['failed']} failed (expected "
              f"{expected}), timed={'wall_s' in result} -> "
              f"{'ok' if caught else 'WRONG'}")
        ok &= caught
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="plant tampered results; exit 0 if caught")
    args = parser.parse_args(argv)
    try:
        prepare()
        if args.self_test:
            return self_test()
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        records = {}
        for workload in workloads:
            result = run_workload(workload, args.seed, args.seconds,
                                  bool(args.trace))
            print_human(workload, result, bool(args.trace))
            records[workload] = final_record(workload, result,
                                             bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(records) == 1:
        record = next(iter(records.values()))
    else:
        record = {
            "correct": all(r["correct"] for r in records.values()),
            "attempted": sum(r["attempted"] for r in records.values()),
            "failed": sum(r["failed"] for r in records.values()),
            "metrics": {f"{w}.{name}": m for w, r in records.items()
                        for name, m in r["metrics"].items()}}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    bootstrap()
    sys.exit(main())
