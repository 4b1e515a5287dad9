"""Shared experiment plumbing, now a thin facade over :mod:`repro.exp`.

Every figure/table driver funnels through the unified experiment engine:
:func:`simulate_kernel` wraps one :class:`~repro.exp.spec.PointSpec` through
the process-wide :func:`~repro.exp.engine.default_session`, which verifies
builds against the numpy golden reference (memoized per process) and
memoizes cycle-level results in the persistent on-disk cache.  The
historical helpers keep their signatures so tests and benchmarks written
against the old sequential runner keep working unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cpu import SimResult
from ..exp.engine import built_kernel, default_session
from ..exp.spec import PointSpec

__all__ = [
    "built_kernel", "simulate_kernel",
    "SpeedupPoint", "kernel_speedup_grid", "format_grid",
]


def simulate_kernel(kernel: str, isa: str, way: int, latency: int = 1,
                    scale: int = 1) -> SimResult:
    """Simulate one (kernel, ISA, width) point of the Figure 5 grid."""
    point = PointSpec(kind="kernel", target=kernel, isa=isa, way=way,
                      latency=latency, scale=scale)
    return default_session().run_point(point)


@dataclass
class SpeedupPoint:
    """One bar of Figure 5: cycles and speedup vs the 1-way Alpha run."""

    kernel: str
    isa: str
    way: int
    cycles: int
    speedup: float


def speedup_points(kernel: str, results, isas, ways, baseline_cycles: int,
                   latency: int = 1, scale: int = 1) -> list[SpeedupPoint]:
    """Normalize engine results for one kernel into Figure 5 bars.

    ``results`` is a ``{PointSpec: SimResult}`` mapping as returned by
    :meth:`repro.exp.engine.Session.run`; specs are hashable, so each
    cell is a direct dictionary lookup.
    """
    points = []
    for way in ways:
        for isa in isas:
            key = PointSpec(kind="kernel", target=kernel, isa=isa, way=way,
                            latency=latency, scale=scale)
            points.append(SpeedupPoint(
                kernel=kernel, isa=isa, way=way, cycles=results[key].cycles,
                speedup=baseline_cycles / results[key].cycles,
            ))
    return points


def kernel_speedup_grid(kernel: str, isas=("alpha", "mmx", "mdmx", "mom"),
                        ways=(1, 2, 4, 8), latency: int = 1,
                        scale: int = 1, session=None,
                        jobs: int | None = None) -> list[SpeedupPoint]:
    """The full per-kernel grid, normalized to 1-way Alpha (as Figure 5)."""
    session = session or default_session()
    baseline = PointSpec(kind="kernel", target=kernel, isa="alpha", way=1,
                         latency=latency, scale=scale)
    grid = [PointSpec(kind="kernel", target=kernel, isa=isa, way=way,
                      latency=latency, scale=scale)
            for way in ways for isa in isas]
    results = session.run([baseline] + grid, jobs=jobs)
    return speedup_points(kernel, results, isas, ways,
                          results[baseline].cycles,
                          latency=latency, scale=scale)


def format_grid(points: list[SpeedupPoint]) -> str:
    """Render a Figure 5 panel as an aligned text table."""
    isas = []
    ways = []
    by_cell: dict[tuple[int, str], SpeedupPoint] = {}
    for p in points:
        if p.isa not in isas:
            isas.append(p.isa)
        if p.way not in ways:
            ways.append(p.way)
        by_cell.setdefault((p.way, p.isa), p)
    lines = ["        " + "".join(f"{isa:>10s}" for isa in isas)]
    for way in ways:
        row = [f"{way}-way  "]
        for isa in isas:
            row.append(f"{by_cell[(way, isa)].speedup:9.1f}x")
        lines.append("".join(row))
    return "\n".join(lines)
