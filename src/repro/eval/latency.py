"""Section 4.1's memory-latency tolerance study.

The paper repeats the kernel simulations with a fixed 50-cycle memory
latency ("trying to approximate the effects of streaming-like memory
references") and reports the slow-down of every ISA relative to its own
1-cycle-latency run:

* Alpha slows down 3x-9x,
* MMX / MDMX slow down 4x-8x,
* **MOM slows down only 2x-4x** -- the classic latency tolerance of vector
  instructions, since one matrix load amortizes the latency over up to 16
  element accesses.

A thin driver over the ``latency`` preset of the unified experiment
engine; ``repro latency`` renders its rows.
"""

from __future__ import annotations

from ..exp import PointSpec, SweepSpec, default_session, preset
from ..exp.spec import HIGH_LATENCY
from ..kernels import KERNEL_ORDER

__all__ = ["HIGH_LATENCY", "run", "summarize", "sweep"]

ISAS = ("alpha", "mmx", "mdmx", "mom")


def sweep(scale: int = 1, way: int = 4, kernels=KERNEL_ORDER) -> SweepSpec:
    """The engine sweep :func:`run` executes: every kernel and ISA at
    1-cycle and :data:`HIGH_LATENCY`-cycle memory, ``way``-wide."""
    return preset("latency").replace(targets=tuple(kernels), ways=(way,),
                                     scale=scale)


def run(scale: int = 1, way: int = 4, kernels=KERNEL_ORDER,
        session=None, progress=None) -> dict[str, dict[str, float]]:
    """Slow-down factors {kernel: {isa: slowdown}} at ``way``-wide issue.

    ``progress`` is forwarded to :meth:`Session.run`.
    """
    session = session or default_session()
    grid = session.run(sweep(scale, way, kernels), progress=progress)

    def cycles(kernel: str, isa: str, latency: int) -> int:
        key = PointSpec(kind="kernel", target=kernel, isa=isa, way=way,
                        latency=latency, scale=scale)
        return grid[key].cycles

    return {kernel: {isa: (cycles(kernel, isa, HIGH_LATENCY)
                           / cycles(kernel, isa, 1)) for isa in ISAS}
            for kernel in kernels}


def summarize(results: dict[str, dict[str, float]]) -> dict[str, tuple[float, float]]:
    """(min, max) slow-down per ISA across kernels."""
    out = {}
    for isa in ISAS:
        values = [row[isa] for row in results.values()]
        out[isa] = (min(values), max(values))
    return out
