"""Figure 7: full-application speedups with realistic cache hierarchies.

Reproduces the five panels of Figure 7: each application runs in five
configurations -- Alpha and MMX on the conventional cache, MOM on the
multi-address cache, the vector cache and the collapsing-buffer cache --
at 4-way and 8-way issue, normalized to the 4-way Alpha/conventional run.
A thin driver over the ``figure7`` preset of the unified experiment
engine; ``repro figure7`` renders its panels.

Paper claims checked here (Section 4.2.2): MMX gains 1.1x-3.1x over Alpha,
MOM 1.5x-4.3x (about 20% over MMX on average); the multi-address cache wins
at 4-way (working sets fit in L1), the vector/collapsing caches win at
8-way (bandwidth), and mpeg2-encode is the exception where large strides
defeat the line-pair organizations.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..apps import APP_ORDER
from ..exp import PointSpec, SweepSpec, default_session, preset
from ..exp.spec import FIGURE7_CONFIGS

#: The five configurations of Figure 7: (label, app ISA, memory model).
CONFIGS = FIGURE7_CONFIGS

WAYS = (4, 8)


@dataclass
class AppPoint:
    """One bar of Figure 7."""

    app: str
    config: str
    way: int
    cycles: int
    speedup: float


def _panel(app: str, results, scale: int) -> list[AppPoint]:
    """Normalize one application's engine results into Figure 7 bars."""
    def cycles(way: int, isa: str, memory: str) -> int:
        key = PointSpec(kind="app", target=app, isa=isa, way=way,
                        memory=memory, scale=scale)
        return results[key].cycles

    baseline = cycles(4, "alpha", "conventional")
    return [
        AppPoint(app=app, config=label, way=way,
                 cycles=cycles(way, isa, memory),
                 speedup=baseline / cycles(way, isa, memory))
        for way in WAYS
        for label, isa, memory in CONFIGS
    ]


def sweep(scale: int = 1, apps=APP_ORDER) -> SweepSpec:
    """The engine sweep :func:`run` executes: every app in the five
    configurations at both widths."""
    return preset("figure7").replace(targets=tuple(apps), scale=scale)


def run(scale: int = 1, apps=APP_ORDER, session=None,
        progress=None) -> dict:
    """All panels through one engine sweep (parallel across every point).

    ``progress`` is forwarded to :meth:`Session.run`.
    """
    session = session or default_session()
    results = session.run(sweep(scale, apps), progress=progress)
    return {app: _panel(app, results, scale) for app in apps}


def summarize(results: dict) -> dict[str, float]:
    """Headline ratios: best-MOM over MMX at 4-way, per app and average."""
    ratios = {}
    for app, points in results.items():
        at4 = {p.config: p.speedup for p in points if p.way == 4}
        best_mom = max(v for k, v in at4.items() if k.startswith("mom"))
        ratios[app] = best_mom / at4["mmx-conv"]
    ratios["average"] = sum(ratios.values()) / len(ratios)
    return ratios
