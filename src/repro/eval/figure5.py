"""Figure 5: kernel speedups of the four ISAs across issue widths.

Reproduces the eight panels of Figure 5 -- speed-up of each multimedia ISA
with respect to the 1-way Alpha run, under the idealized 1-cycle memory of
Section 4.1.  A thin driver over the ``figure5`` preset of the unified
experiment engine; ``repro figure5`` renders its panels.

The paper's headline claims checked here: MMX/MDMX gain 1.5x-15x over
scalar; MDMX edges MMX on reduction-heavy kernels; MOM adds 1.3x-4x on top
(except rgb2ycc, whose vector length is 3); MOM's advantage is largest at
low issue widths thanks to its fetch-pressure reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exp import PointSpec, default_session, preset
from ..kernels import KERNEL_ORDER

ISAS = ("alpha", "mmx", "mdmx", "mom")
WAYS = (1, 2, 4, 8)


@dataclass
class SpeedupPoint:
    """One bar of Figure 5: cycles and speedup vs the 1-way Alpha run."""

    kernel: str
    isa: str
    way: int
    cycles: int
    speedup: float


def speedup_points(kernel: str, results, isas, ways, baseline_cycles: int,
                   scale: int = 1) -> list[SpeedupPoint]:
    """Normalize engine results for one kernel into Figure 5 bars.

    ``results`` is a ``{PointSpec: SimResult}`` mapping as returned by
    :meth:`repro.exp.engine.Session.run`; specs are hashable, so each
    cell is a direct dictionary lookup.
    """
    points = []
    for way in ways:
        for isa in isas:
            key = PointSpec(kind="kernel", target=kernel, isa=isa, way=way,
                            scale=scale)
            points.append(SpeedupPoint(
                kernel=kernel, isa=isa, way=way, cycles=results[key].cycles,
                speedup=baseline_cycles / results[key].cycles,
            ))
    return points


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


def run(scale: int = 1, kernels=KERNEL_ORDER, session=None,
        progress=None) -> dict:
    """Compute the full Figure 5 grid; returns {kernel: [SpeedupPoint]}.

    The whole grid (all kernels, all baselines) resolves into one engine
    sweep, so a session with ``jobs > 1`` parallelizes across every
    uncached point.  ``progress`` is forwarded to :meth:`Session.run`
    (called with the count of newly resolved points).
    """
    session = session or default_session()
    sweep = preset("figure5").replace(targets=tuple(kernels), scale=scale)
    results = session.run(sweep, progress=progress)
    output = {}
    for kernel in kernels:
        baseline = results[PointSpec(kind="kernel", target=kernel,
                                     isa="alpha", way=1, scale=scale)].cycles
        output[kernel] = speedup_points(kernel, results, ISAS, WAYS,
                                        baseline, scale=scale)
    return output


def mom_vs_best_simd(results: dict) -> dict[str, float]:
    """MOM's extra gain over the better of MMX/MDMX at 4-way (paper: 1.3-4x,
    except rgb2ycc)."""
    ratios = {}
    for kernel, points in results.items():
        at4 = {p.isa: p.speedup for p in points if p.way == 4}
        ratios[kernel] = at4["mom"] / max(at4["mmx"], at4["mdmx"])
    return ratios
