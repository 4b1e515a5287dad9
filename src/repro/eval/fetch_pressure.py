"""Fetch-pressure study: the paper's embedded-systems argument.

Section 4.1 / Section 5 claim MOM "greatly reduces the fetch pressure by
packing an order of magnitude more operations per instruction than MMX or
MDMX, making it an ideal candidate for embedded systems where high issue
rates and out-of-order execution are not even an option".

This driver quantifies that claim on every kernel:

* **operations per instruction** -- lane-level work items carried by one
  fetched instruction (MOM targets >10x MMX);
* **measured fetch-bound share** -- the fraction of the 1-way machine's
  cycles the CPI-stack accounting attributes to instruction delivery:
  ``base`` (commit width saturated -- the front end is the binding
  resource) plus ``fetch`` (window empty).  This is the pressure as the
  pipeline experiences it, not as an instruction-count proxy predicts
  it: the scalar and SIMD machines run essentially 100% fetch-bound at
  1-way while MOM spends most cycles in the memory/FU components;
* **narrow-machine retention** -- the fraction of its own 8-way performance
  each ISA keeps on the 1-way machine (MOM should retain the most).

The sweep runs with cycle accounting on, so every point carries its CPI
stack; :func:`mom_fetch_advantage` compares the *measured*
fetch-bound cycles of MMX and MOM over the same workload.

A thin driver over the ``fetch-pressure`` preset of the unified
experiment engine; ``repro fetch-pressure`` renders its rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exp import PointSpec, SweepSpec, default_session, preset
from ..kernels import KERNEL_ORDER

ISAS = ("alpha", "mmx", "mdmx", "mom")


@dataclass
class FetchPressurePoint:
    """Per (kernel, isa) fetch-pressure metrics."""

    kernel: str
    isa: str
    instructions: int
    ops_per_instruction: float
    fetch_bound_cycles: int     # 1-way cycles bound by instruction
                                # delivery (stack `base` + `fetch`)
    fetch_bound_share: float    # ... as a fraction of all 1-way cycles
    retention_1way: float       # speedup(1-way) / speedup(8-way)


def sweep(kernels=KERNEL_ORDER, scale: int = 1) -> SweepSpec:
    """The engine sweep :func:`run` executes: every kernel and ISA at 1
    and 8 wide, with cycle accounting on."""
    return preset("fetch-pressure").replace(targets=tuple(kernels),
                                            scale=scale, accounting=True)


def run(kernels=KERNEL_ORDER, scale: int = 1, session=None,
        progress=None) -> dict[str, dict[str, FetchPressurePoint]]:
    """Per-kernel, per-ISA fetch-pressure rows, read off the sweep's
    results alone (a warm cache builds no trace).  ``progress`` is
    forwarded to :meth:`Session.run`."""
    session = session or default_session()
    grid = session.run(sweep(kernels, scale), progress=progress)

    def result(kernel: str, isa: str, way: int):
        key = PointSpec(kind="kernel", target=kernel, isa=isa, way=way,
                        scale=scale, accounting=True)
        return grid[key]

    results: dict[str, dict[str, FetchPressurePoint]] = {}
    for kernel in kernels:
        row = {}
        for isa in ISAS:
            narrow = result(kernel, isa, 1)
            bound = narrow.stack.base + narrow.stack.fetch
            row[isa] = FetchPressurePoint(
                kernel=kernel,
                isa=isa,
                instructions=narrow.instructions,
                ops_per_instruction=narrow.operations / narrow.instructions,
                fetch_bound_cycles=bound,
                fetch_bound_share=(bound / narrow.cycles
                                   if narrow.cycles else 0.0),
                retention_1way=(result(kernel, isa, 8).cycles
                                / narrow.cycles),
            )
        results[kernel] = row
    return results


def mom_fetch_advantage(results) -> dict[str, float]:
    """Measured fetch economy: cycles the 1-way machine spends
    fetch-bound under MMX per such cycle under MOM, per kernel.

    Both ISAs execute the same workload, so the ratio of their
    fetch-bound cycles (stack ``base`` + ``fetch``) is the measured
    counterpart of the paper's instruction-count argument (a
    never-fetch-bound MOM run counts as one cycle so the advantage
    stays finite).
    """
    return {
        kernel: (row["mmx"].fetch_bound_cycles
                 / max(1, row["mom"].fetch_bound_cycles))
        for kernel, row in results.items()
    }
