"""Definitions shared by ``run.py``, its child processes and the
pin-capture script: paths, the child environment, the cold workloads'
point sets, result digests and the work counters derived from results.

Everything that touches ``repro`` imports it lazily, so ``run.py`` can do
its own bookkeeping without loading the package.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: Everything a run writes (result caches, bytecode, traces, state) lives
#: here, inside the benchmark's own directory; git ignores it.
WORK = BENCH / ".work"
PINS = BENCH / "pins.json"

#: Memory-system statistics summed into the ``memsys.*`` counters.
MEMSYS_KEYS = ("l1_hits", "l1_misses", "l2_hits", "l2_misses",
               "dram_accesses", "vector_transactions")


def bootstrap() -> None:
    """Import ``repro`` from this checkout's ``src`` and keep bytecode
    under :data:`WORK` instead of ``__pycache__`` directories in the tree."""
    sys.pycache_prefix = str(WORK / "pycache")
    sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for every process the benchmark starts.

    The package comes from this checkout's ``src``; every ``REPRO_*``
    switch (telemetry, ``REPRO_NO_*`` path toggles, cache location) is
    removed so runs measure the defaults users get.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (VmHWM), in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def point_key(payload: dict) -> str:
    """Canonical text of a point payload: the key of the pin table."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def result_digest(data: dict) -> str:
    """Digest of every deterministic ``SimResult`` field (``meta`` is
    wall-clock and excluded) -- the hash ``tests/test_golden_digest.py``
    pins, applied to a ``SimResult.to_dict()`` image."""
    data = {k: v for k, v in data.items() if k != "meta"}
    canon = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def load_pins() -> dict[str, dict]:
    """``{point_key: {"point", "digest", "result"}}`` from :data:`PINS`."""
    with open(PINS, encoding="utf-8") as fh:
        entries = json.load(fh)["points"]
    return {point_key(e["point"]): e for e in entries}


def cold_points(workload: str, order: tuple[str, ...] = ()):
    """The points a cold workload simulates, in the order it runs them.

    ``order`` permutes the kernels (fig5-cold) or applications
    (fig7-cold); the point set is the full preset either way.
    """
    from repro.exp import PointSpec, preset

    if workload == "fig5-cold":
        sweep = preset("figure5")
    elif workload == "fig7-cold":
        sweep = preset("figure7")
    elif workload == "frame-point":
        # `repro sweep --apps mpeg2_encode --isas alpha --memory
        # conventional --ways 4 --scale 5`: 1.22M instructions, above
        # Core.STREAM_THRESHOLD (scale 4 falls below it).
        return (PointSpec(kind="app", target="mpeg2_encode", isa="alpha",
                          way=4, memory="conventional", scale=5),)
    else:
        raise ValueError(f"not a cold workload: {workload}")
    if order:
        sweep = sweep.replace(targets=tuple(order))
    return sweep.points()


def result_counters(results: list[dict]) -> dict[str, float]:
    """Work counters that must repeat exactly, from ``SimResult`` dicts.

    ``emulib.instr`` counts each simulated trace once per decode (a batch
    group shares one trace); ``cpu.lanes_per_decode`` is points per
    decode pass, so a lost batch group or an extra decode shows here.
    """
    decodes: dict[object, int] = {}
    lane_instr = cycles = 0
    mem = dict.fromkeys(MEMSYS_KEYS, 0)
    for index, data in enumerate(results):
        meta = data.get("meta", {})
        group = meta.get("batch_group")
        decodes[group if group is not None else ("point", index)] = \
            data["instructions"]
        lane_instr += data["instructions"]
        cycles += data["cycles"]
        for key in MEMSYS_KEYS:
            mem[key] += data["mem_stats"].get(key, 0)
    l1 = mem["l1_hits"] + mem["l1_misses"]
    l2 = mem["l2_hits"] + mem["l2_misses"]
    return {
        "emulib.instr": sum(decodes.values()),
        "cpu.lane_instr": lane_instr,
        "cpu.sim_cycles": cycles,
        "cpu.lanes_per_decode": round(len(results) / len(decodes), 6)
        if decodes else 0.0,
        "memsys.l1_accesses": l1,
        "memsys.l1_miss_rate": round(mem["l1_misses"] / l1, 9) if l1 else 0.0,
        "memsys.l2_miss_rate": round(mem["l2_misses"] / l2, 9) if l2 else 0.0,
        "memsys.dram_accesses": mem["dram_accesses"],
        "memsys.vector_transactions": mem["vector_transactions"],
    }
