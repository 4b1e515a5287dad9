"""Re-capture ``pins.json``: the digest and result of every cold point.

Simulates the Figure 5 grid (128 points), the Figure 7 grid (50 points)
and the streamed frame point (1 point) on an empty result cache and
writes, one line per point, its payload, its :func:`result_digest` and
its full ``SimResult`` dict.  The digests are what every benchmark run
checks results against; the result dicts (``meta`` included, so entries
are the size real cache entries are) fill the result cache that the
serve-warm workload replays.

Run it only when a deliberate model change moves the digests, in the same
commit as that change::

    python3 perfbench/capture_pins.py
"""

from __future__ import annotations

import json
import sys
import tempfile

from common import (PINS, WORK, bootstrap, cold_points, point_key,
                    result_digest)


def main() -> int:
    bootstrap()
    from repro.exp import Session

    WORK.mkdir(parents=True, exist_ok=True)
    points = [p for workload in ("fig5-cold", "fig7-cold", "frame-point")
              for p in cold_points(workload)]
    with tempfile.TemporaryDirectory(dir=WORK) as cache_dir:
        results = Session(cache_dir).run(points)
    lines = []
    for point in points:
        data = results[point].to_dict()
        data["meta"].pop("cache_hit", None)
        entry = {"point": point.payload(), "digest": result_digest(data),
                 "result": data}
        lines.append(json.dumps(entry, sort_keys=True))
    assert len({point_key(p.payload()) for p in points}) == len(points)
    with open(PINS, "w", encoding="utf-8") as fh:
        fh.write('{"points": [\n' + ",\n".join(lines) + "\n]}\n")
    print(f"pinned {len(lines)} points to {PINS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
