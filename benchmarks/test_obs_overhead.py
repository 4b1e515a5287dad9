"""Telemetry overhead guard: enabled spans + metrics must stay under 3%.

Runs the golden mini-grid (the same coordinates
``tests/test_golden_digest.py`` pins) through two uncached Sessions --
one with telemetry disabled (the no-op singletons) and one with spans
recording into a MemorySink and a live metrics registry -- interleaved
over several repetitions, and compares the best-of-N wall clocks.  The
instrumentation sits at group/point granularity (never per trace
record), so the enabled path should cost well under the asserted bound;
phase timing itself runs identically in both configurations and cancels
out of the comparison.

``REPRO_BENCH_SMOKE=1`` shrinks the grid and repetitions;
``REPRO_OBS_OVERHEAD_MAX`` (percent, default 3) loosens the assertion
for pathologically noisy hosts without editing code.
"""

import os
import time

from repro.exp import PointSpec, Session
from repro.exp.engine import built_kernel
from repro.obs import Obs

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
REPS = 2 if SMOKE else 3
MAX_OVERHEAD_PCT = float(os.environ.get("REPRO_OBS_OVERHEAD_MAX", "3"))

#: Realistic-cache model per ISA, as in tests/test_golden_digest.py.
_CACHE = {"alpha": "conventional", "mmx": "conventional",
          "mdmx": "conventional", "mom": "multiaddress"}


def _grid_points() -> list[PointSpec]:
    """The golden mini-grid as PointSpecs (subset in smoke mode)."""
    kernels = ("idct",) if SMOKE else ("idct", "motion2")
    ways = (2,) if SMOKE else (2, 8)
    points = []
    for kernel in kernels:
        for isa in ("alpha", "mmx", "mdmx", "mom"):
            for way in ways:
                points.append(PointSpec(kind="kernel", target=kernel,
                                        isa=isa, way=way))
                points.append(PointSpec(kind="kernel", target=kernel,
                                        isa=isa, way=way, latency=50))
                points.append(PointSpec(kind="kernel", target=kernel,
                                        isa=isa, way=way,
                                        memory=_CACHE[isa]))
                if isa == "mom":
                    for memory in ("vectorcache", "collapsing"):
                        points.append(PointSpec(kind="kernel", target=kernel,
                                                isa=isa, way=way,
                                                memory=memory))
    return points


def _timed_pass(points, obs=None) -> tuple[float, int]:
    """One uncached sweep through a fresh Session: (seconds, span count)."""
    session = Session(None, use_cache=False, obs=obs)
    t0 = time.perf_counter()
    results = session.run(points)
    elapsed = time.perf_counter() - t0
    assert len(results) == len(points)
    # Drain so records never accumulate across repetitions.
    spans = len(obs.sink.drain()) if obs is not None else 0
    return elapsed, spans


def test_enabled_telemetry_overhead_under_bound():
    points = _grid_points()
    for point in points:        # warm the process-wide build memo, untimed
        built_kernel(point.target, point.isa)

    # A wall-clock comparison on a shared host can lose to a transient
    # load spike; retry the whole measurement before failing so only a
    # *reproducible* overhead (a real regression) trips the bound.
    attempts = []
    base = instrumented = overhead_pct = spans = None
    for _ in range(3):
        disabled, enabled = [], []
        for _ in range(REPS):   # interleaved: drift hits both columns
            disabled.append(_timed_pass(points, obs=None)[0])
            seconds, spans = _timed_pass(points, obs=Obs.make())
            enabled.append(seconds)
        base, instrumented = min(disabled), min(enabled)
        overhead_pct = (instrumented - base) / base * 100.0
        attempts.append(round(overhead_pct, 2))
        if overhead_pct < MAX_OVERHEAD_PCT:
            break

    payload = {
        "benchmark": "obs_overhead",
        "smoke": SMOKE,
        "points": len(points),
        "reps": REPS,
        "disabled_seconds": round(base, 4),
        "enabled_seconds": round(instrumented, 4),
        "overhead_pct": round(overhead_pct, 2),
        "attempts": attempts,
        "bound_pct": MAX_OVERHEAD_PCT,
        "spans_per_sweep": spans,
    }
    print(f"\nobs overhead: disabled {base:.3f}s  enabled "
          f"{instrumented:.3f}s  ({overhead_pct:+.2f}%, bound "
          f"{MAX_OVERHEAD_PCT}%)")

    assert overhead_pct < MAX_OVERHEAD_PCT, payload
