"""Frame-scale trace benchmark: columnar build + streaming consume.

Runs the ``frame-scale`` preset's configurations (one full 720x480 MPEG-2
frame per Figure 7 ISA) end to end -- functional build into the columnar
trace store, then cycle-level simulation through the core's streaming
consume path -- in a fresh subprocess per configuration so peak RSS is
measured cleanly per point.  Each configuration is also rebuilt with the
*seed* list-of-objects trace encoding (a plain list of ``DynInstr``) to
quantify what the columnar store buys; the headline criterion is the
scalar configuration, whose trace is ~61 million dynamic instructions.

Each configuration prints its instruction count, columnar build and
simulation seconds, core consume rate and peak RSS, plus the
object-encoding baseline's peak RSS and its ratio to the columnar
child's peak at the end of the build (the object child only builds; the
RSS budgets hold for the columnar child's build plus simulation).

Modes (the full frame is minutes of wall-clock per configuration):

* default -- a 64x48 smoke frame, small RSS budgets; keeps the tier-1
  suite fast while exercising the full path.
* ``REPRO_TRACE_BENCH_FULL=1`` -- the real 720x480 frame and the
  headline >= 5x peak-RSS (or >= 3x build-speed) assertion.
* ``REPRO_TRACE_CONFIGS=mom-vectorcache,...`` -- restrict configurations
  (CI runs the fast subset under its RSS assertion).
* ``REPRO_TRACE_BASELINE=0`` -- skip the object-encoding baselines.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.exp.spec import FRAME_SCALE_CONFIGS

FULL = os.environ.get("REPRO_TRACE_BENCH_FULL") == "1"
BASELINE = os.environ.get("REPRO_TRACE_BASELINE", "1") != "0"

#: Smoke geometry: big enough that the scalar trace (~700k instructions)
#: dwarfs interpreter overhead, small enough for the tier-1 budget.
FRAME = (720, 480) if FULL else (64, 48)
WAY = 4

#: Peak-RSS budgets (MB) per configuration -- the "bounded memory" claim.
#: The full-frame scalar trace is ~13 GB as objects; columnar plus
#: the streaming consume path must stay within a laptop-class budget.
#: The smoke budgets are about 1.5x the measured peaks (62.1, 54.3 and
#: 47.4 MB on a 2-CPU Xeon VM, Python 3.11, numpy 2.4).
RSS_BUDGET_MB = {
    "alpha-conv": 8000 if FULL else 95,
    "mmx-conv": 3000 if FULL else 82,
    "mom-vectorcache": 1500 if FULL else 72,
}

_CHILD = r"""
import json, resource, sys, time

isa, memory, way, width, height, store = sys.argv[1:7]
way, width, height = int(way), int(width), int(height)


def peak_rss_mb():
    # VmHWM resets at exec, so it measures *this* process; ru_maxrss is
    # inherited through fork from the (possibly huge) test runner and
    # only serves as the non-Linux fallback.
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

if store == "objects":
    # The seed trace encoding: an eagerly-built Python list of DynInstr.
    # Builders resolve Trace through base_builder, so rebinding it there
    # reproduces the old storage behaviour without keeping dead code.
    import repro.emulib.base_builder as bb
    from repro.emulib.trace import DynInstr, RowSkeleton

    class LegacyTrace:
        def __init__(self, isa):
            self.isa = isa
            self.instructions = []

        def emit(self, op, srcs, dsts, addr=None, nbytes=0, stride=0,
                 vl=1, taken=None, site=0):
            # Builders write rows; the seed stored one DynInstr per row.
            self.instructions.append(DynInstr(
                op, srcs=srcs, dsts=dsts, addr=addr, nbytes=nbytes,
                stride=stride, vl=vl, taken=taken, site=site))

        def skeleton(self, start):
            # What a replayed emitter's first call wrote, read back.
            return RowSkeleton(
                (i.op, i.srcs, i.dsts, i.addr, i.nbytes, i.stride, i.vl,
                 i.taken, i.site) for i in self.instructions[start:])

        def emit_skeleton(self, skeleton, addrs, taken, site):
            # A replayed call: one DynInstr per row, as the seed stored.
            for row in skeleton.rows(addrs, taken, site):
                self.emit(*row)

        def __len__(self):
            return len(self.instructions)

        def __iter__(self):
            return iter(self.instructions)

    bb.Trace = LegacyTrace

from repro.apps.mpeg2 import _build_encode
from repro.apps.workloads import video_frames

frames = video_frames(width, height, count=2)
start = time.perf_counter()
built = _build_encode(isa, frames, width, height)
build_seconds = time.perf_counter() - start
out = {"instructions": len(built.trace),
       "build_seconds": round(build_seconds, 3)}

if store == "columnar":
    out["storage_mb"] = round(built.trace.storage_bytes() / 1e6, 2)
    # The build-phase peak, before the core and memory models are
    # imported: what the object baseline's peak is compared with.
    out["build_peak_rss_mb"] = round(peak_rss_mb(), 1)
    from repro.cpu import Core, machine_config
    from repro.exp.engine import make_memsys
    from repro.exp.spec import PointSpec

    point = PointSpec(kind="app", target="mpeg2_frame", isa=isa, way=way,
                      memory=memory)
    core = Core(machine_config(way, isa), make_memsys(point))
    start = time.perf_counter()
    result = core.run(built.trace)
    sim_seconds = time.perf_counter() - start
    out["sim_seconds"] = round(sim_seconds, 3)
    out["cycles"] = result.cycles
    out["consume_instructions_per_second"] = round(
        result.instructions / sim_seconds) if sim_seconds else None

out["peak_rss_mb"] = round(peak_rss_mb(), 1)
print(json.dumps(out))
"""


def _run_child(isa, memory, store):
    width, height = FRAME
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(Path(__file__).resolve().parents[1] / "src")
                         + os.pathsep + env.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, isa, memory, str(WAY),
         str(width), str(height), store],
        capture_output=True, text=True, env=env, timeout=7200)
    assert proc.returncode == 0, proc.stderr[-4000:]
    return json.loads(proc.stdout.splitlines()[-1])


def _selected_configs():
    chosen = os.environ.get("REPRO_TRACE_CONFIGS")
    configs = list(FRAME_SCALE_CONFIGS)
    if chosen:
        wanted = {c.strip() for c in chosen.split(",") if c.strip()}
        configs = [c for c in configs if c[0] in wanted]
        assert configs, f"no frame-scale config matches {chosen!r}"
    return configs


def test_frame_scale_trace_benchmark():
    report = {"configs": {}}
    for label, isa, memory in _selected_configs():
        entry = {"isa": isa, "memory": memory}
        col = _run_child(isa, memory, "columnar")
        entry["columnar"] = col
        budget = RSS_BUDGET_MB[label]
        assert col["peak_rss_mb"] < budget, (
            f"{label}: columnar build+simulate peak RSS "
            f"{col['peak_rss_mb']} MB exceeds the {budget} MB budget")
        if BASELINE:
            obj = _run_child(isa, memory, "objects")
            assert obj["instructions"] == col["instructions"]
            entry["object_baseline"] = obj
            entry["build_speedup_vs_objects"] = round(
                obj["build_seconds"] / col["build_seconds"], 2)
            # Build against build: the object child never simulates.
            entry["peak_rss_ratio_vs_objects"] = round(
                obj["peak_rss_mb"] / col["build_peak_rss_mb"], 2)
        report["configs"][label] = entry
        print(f"\n[{label}] {col['instructions']} instrs: "
              f"build {col['build_seconds']}s, sim {col['sim_seconds']}s "
              f"({col['consume_instructions_per_second']}/s), "
              f"peak RSS {col['peak_rss_mb']} MB "
              f"(build {col['build_peak_rss_mb']} MB)"
              + (f" (objects: {entry['object_baseline']['peak_rss_mb']} MB,"
                 f" {entry['peak_rss_ratio_vs_objects']}x)"
                 if BASELINE else ""))

    if "alpha-conv" in report["configs"] and BASELINE:
        head = report["configs"]["alpha-conv"]
        report["headline"] = {
            "config": "alpha-conv",
            "instructions": head["columnar"]["instructions"],
            "build_speedup_vs_objects": head["build_speedup_vs_objects"],
            "peak_rss_ratio_vs_objects": head["peak_rss_ratio_vs_objects"],
        }
        if FULL:
            # The acceptance bar: on the frame-scale workload the columnar
            # store must build >= 3x faster or in >= 5x less peak memory
            # than the seed list-of-objects encoding.
            assert (head["build_speedup_vs_objects"] >= 3.0
                    or head["peak_rss_ratio_vs_objects"] >= 5.0), (
                report["headline"])
