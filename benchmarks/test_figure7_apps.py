"""Figure 7: full-application speed-ups on realistic cache hierarchies.

One benchmark per application panel: five configurations (Alpha/MMX on the
conventional cache; MOM on multi-address, vector and collapsing-buffer
caches) at 4- and 8-way issue, normalized to the 4-way Alpha run.
"""

import pytest

from repro.apps import APP_ORDER
from repro.eval import figure7
from repro.exp import built_app


@pytest.mark.parametrize("app", APP_ORDER)
def test_figure7_panel(benchmark, app):
    for isa in ("alpha", "mmx", "mom"):
        built_app(app, isa, 1)            # build + verify outside the timer

    points = benchmark.pedantic(figure7.run, kwargs={"apps": (app,)},
                                rounds=1, iterations=1)[app]

    grid = {(p.config, p.way): p.speedup for p in points}
    benchmark.extra_info["speedups"] = {
        f"{cfg}@{way}": round(v, 2) for (cfg, way), v in grid.items()
    }

    print(f"\nFigure 7 / {app} (speed-up vs 4-way Alpha):")
    for way in (4, 8):
        row = "  ".join(
            f"{cfg.split('-', 1)[1] if '-' in cfg else cfg}="
            f"{grid[(cfg, way)]:5.2f}x"
            for cfg in ("alpha-conv", "mmx-conv", "mom-multiaddress",
                        "mom-vectorcache", "mom-collapsing"))
        print(f"  {way}-way: {row}")

    # Paper shape claims (Section 4.2.2):
    for way in (4, 8):
        assert grid[("mmx-conv", way)] > grid[("alpha-conv", way)]
        best_mom = max(grid[(c, way)] for c in
                       ("mom-multiaddress", "mom-vectorcache",
                        "mom-collapsing"))
        assert best_mom > grid[("mmx-conv", way)] * 0.95
    # The multi-address cache wins at 4-way (working sets fit in L1).
    assert grid[("mom-multiaddress", 4)] >= grid[("mom-vectorcache", 4)]
    # mpeg2 encode: large strides hurt the vector cache most among
    # the MOM organizations.
    if app == "mpeg2_encode":
        assert grid[("mom-vectorcache", 8)] < grid[("mom-multiaddress", 8)]
        assert grid[("mom-vectorcache", 8)] <= grid[("mom-collapsing", 8)]
