"""Cycle-accounting overhead guard: ``accounting=True`` must stay cheap.

Runs the golden mini-grid (the coordinates ``tests/test_golden_digest.py``
pins) through two uncached Sessions -- one with plain points and one with
the same points flagged ``accounting=True`` -- interleaved over several
repetitions, and compares the best-of-N wall clocks.  The classifier is
a handful of integer comparisons per simulated cycle (and a closed-form
multiply per skipped span), so the accounted path should cost well under
the asserted bound.

``REPRO_BENCH_SMOKE=1`` shrinks the grid and repetitions;
``REPRO_EXPLAIN_OVERHEAD_MAX`` (percent, default 5) loosens the
assertion for pathologically noisy hosts without editing code.
"""

import os
import time
from dataclasses import replace

from repro.exp import Session
from repro.exp.engine import built_kernel

from test_obs_overhead import _grid_points

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
REPS = 2 if SMOKE else 3
MAX_OVERHEAD_PCT = float(os.environ.get("REPRO_EXPLAIN_OVERHEAD_MAX", "5"))


def _timed_pass(points) -> float:
    """One uncached sweep through a fresh Session, in seconds."""
    session = Session(None, use_cache=False)
    t0 = time.perf_counter()
    results = session.run(points)
    elapsed = time.perf_counter() - t0
    assert len(results) == len(points)
    return elapsed


def test_accounting_overhead_under_bound():
    plain = _grid_points()
    accounted = [replace(p, accounting=True) for p in plain]
    for point in plain:         # warm the process-wide build memo, untimed
        built_kernel(point.target, point.isa)

    # Wall clocks on a shared host can lose to a transient load spike;
    # retry the whole measurement so only a *reproducible* overhead (a
    # real regression) trips the bound.
    attempts = []
    base = instrumented = overhead_pct = None
    for _ in range(3):
        off, on = [], []
        for _ in range(REPS):   # interleaved: drift hits both columns
            off.append(_timed_pass(plain))
            on.append(_timed_pass(accounted))
        base, instrumented = min(off), min(on)
        overhead_pct = (instrumented - base) / base * 100.0
        attempts.append(round(overhead_pct, 2))
        if overhead_pct < MAX_OVERHEAD_PCT:
            break

    payload = {
        "benchmark": "explain_overhead",
        "smoke": SMOKE,
        "points": len(plain),
        "reps": REPS,
        "accounting_off_seconds": round(base, 4),
        "accounting_on_seconds": round(instrumented, 4),
        "overhead_pct": round(overhead_pct, 2),
        "attempts": attempts,
        "bound_pct": MAX_OVERHEAD_PCT,
    }
    print(f"\naccounting overhead: off {base:.3f}s  on "
          f"{instrumented:.3f}s  ({overhead_pct:+.2f}%, bound "
          f"{MAX_OVERHEAD_PCT}%)")

    assert overhead_pct < MAX_OVERHEAD_PCT, payload
