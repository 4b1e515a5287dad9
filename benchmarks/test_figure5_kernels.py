"""Figure 5: kernel speed-ups of the four ISAs across issue widths.

One benchmark per kernel panel.  Each timed region simulates the whole
4-ISA x 4-width grid under the idealized 1-cycle memory and asserts the
paper's shape claims; the resulting speed-up rows are attached as
``extra_info`` and printed.
"""

import pytest

from repro.eval import figure5
from repro.exp import built_kernel
from repro.kernels import KERNEL_ORDER


@pytest.mark.parametrize("kernel", KERNEL_ORDER)
def test_figure5_panel(benchmark, kernel):
    for isa in ("alpha", "mmx", "mdmx", "mom"):
        built_kernel(kernel, isa, 1)      # build + verify outside the timer

    points = benchmark.pedantic(figure5.run, kwargs={"kernels": (kernel,)},
                                rounds=1, iterations=1)[kernel]

    grid = {(p.isa, p.way): p.speedup for p in points}
    benchmark.extra_info["speedups"] = {
        f"{isa}@{way}": round(grid[(isa, way)], 2)
        for isa, way in grid
    }

    # Paper shape claims (Section 4.1):
    # 1. every media ISA beats scalar at every width;
    for way in (1, 2, 4, 8):
        for isa in ("mmx", "mdmx", "mom"):
            assert grid[(isa, way)] > grid[("alpha", way)], (isa, way)
    # 2. MOM adds gains over the best 1D SIMD ISA -- except rgb2ycc,
    #    whose vector length is only 3;
    best_simd4 = max(grid[("mmx", 4)], grid[("mdmx", 4)])
    if kernel == "rgb2ycc":
        assert grid[("mom", 4)] > 0.85 * best_simd4
    else:
        assert grid[("mom", 4)] > best_simd4
    # 3. MOM's relative advantage is largest at the narrow machine
    #    (the fetch-pressure argument).
    ratio_1way = grid[("mom", 1)] / max(grid[("mmx", 1)], grid[("mdmx", 1)])
    if kernel != "rgb2ycc":
        assert ratio_1way > 1.2

    print(f"\nFigure 5 / {kernel} (speed-up vs 1-way Alpha):")
    for way in (1, 2, 4, 8):
        row = "  ".join(f"{isa}={grid[(isa, way)]:6.1f}x"
                        for isa in ("alpha", "mmx", "mdmx", "mom"))
        print(f"  {way}-way: {row}")
