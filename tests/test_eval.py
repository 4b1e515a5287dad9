"""Tests for the evaluation harness, tables and the vectorization model."""

import pytest

from repro.core.vectorize import (LoopNest, compare, conventional_vector,
                                  dist1_nest, mmx_like, mom_matrix)
from repro.eval.figure5 import format_grid, mom_vs_best_simd, speedup_points
from repro.eval.figure7 import CONFIGS
from repro.eval.latency import HIGH_LATENCY, summarize
from repro.eval.tables import table1_rows, table2_rows, table3_rows
from repro.exp import PointSpec, built_kernel, default_session, preset


def compensation_speedups(isas, ways):
    """Figure 5 bars for compensation on an (isas x ways) sub-grid that
    includes the 1-way Alpha baseline."""
    sweep = preset("figure5").replace(targets=("compensation",), isas=isas,
                                      ways=ways)
    results = default_session().run(sweep)
    baseline = results[PointSpec(kind="kernel", target="compensation",
                                 isa="alpha", way=1)].cycles
    return speedup_points("compensation", results, isas, ways, baseline)


# --- drivers -----------------------------------------------------------------

def test_built_kernel_memoized():
    a = built_kernel("compensation", "mom", 1)
    b = built_kernel("compensation", "mom", 1)
    assert a is b


def test_simulate_kernel_returns_result():
    result = default_session().run_point(
        PointSpec(kind="kernel", target="compensation", isa="mom", way=4))
    assert result.cycles > 0
    assert result.instructions == len(built_kernel("compensation", "mom", 1).trace)


def test_speedup_grid_structure():
    points = compensation_speedups(isas=("alpha", "mom"), ways=(1, 4))
    assert len(points) == 4
    baseline = [p for p in points if p.isa == "alpha" and p.way == 1][0]
    assert baseline.speedup == pytest.approx(1.0)
    mom4 = [p for p in points if p.isa == "mom" and p.way == 4][0]
    assert mom4.speedup > 1.0


def test_format_grid_renders():
    points = compensation_speedups(isas=("alpha", "mom"), ways=(1,))
    text = format_grid(points)
    assert "alpha" in text and "mom" in text and "1-way" in text


def test_mom_beats_simd_on_motion(capsys):
    from repro.eval import figure5
    results = figure5.run(kernels=("motion2",))
    ratios = mom_vs_best_simd(results)
    assert ratios["motion2"] > 1.3


def test_latency_summary_shape():
    fake = {"k1": {"alpha": 5.0, "mmx": 4.0, "mdmx": 4.5, "mom": 2.0},
            "k2": {"alpha": 9.0, "mmx": 8.0, "mdmx": 7.0, "mom": 4.0}}
    ranges = summarize(fake)
    assert ranges["alpha"] == (5.0, 9.0)
    assert ranges["mom"] == (2.0, 4.0)
    assert HIGH_LATENCY == 50


def test_latency_tolerance_ordering():
    """MOM must tolerate the 50-cycle memory better than scalar Alpha."""
    from repro.eval.latency import run
    results = run(way=4, kernels=("compensation",))
    row = results["compensation"]
    assert row["mom"] < row["alpha"]
    assert row["mom"] < row["mmx"]


# --- figure 7 config ---------------------------------------------------------------

def test_figure7_configurations_match_paper():
    labels = [c[0] for c in CONFIGS]
    assert labels == ["alpha-conv", "mmx-conv", "mom-multiaddress",
                      "mom-vectorcache", "mom-collapsing"]
    isas = {c[1] for c in CONFIGS}
    assert isas == {"alpha", "mmx", "mom"}     # no MDMX at app level


# --- tables --------------------------------------------------------------------------

def test_table1_contents():
    rows = table1_rows()
    assert [r["way"] for r in rows] == [1, 2, 4, 8]
    assert rows[0]["rob"] == 8 and rows[3]["rob"] == 64
    assert rows[3]["med"] == "4 - (2x2)"
    assert rows[3]["ports"] == "4 - (2x2)"


def test_table2_contents():
    rows = table2_rows()
    assert rows["mmx"]["media_regs"] == "32/64"
    assert rows["mom"]["media_regs"] == "16/20"
    assert rows["mom"]["norm_area"] == pytest.approx(0.87, abs=0.01)
    assert rows["mdmx"]["size_kb"] == pytest.approx(0.78, abs=0.01)


def test_table3_contents():
    rows = table3_rows()
    assert rows[4]["conv_ma"]["l1_ports"] == 2
    assert rows[8]["conv_ma"]["l1_banks"] == 8
    assert rows[4]["vc_col"]["l2_ports"] == "1x2"
    assert rows[8]["vc_col"]["l2_ports"] == "1x4"


# --- vectorization model (Figure 3) -----------------------------------------------------

def test_loopnest_validation():
    with pytest.raises(ValueError):
        LoopNest(inner_trip=0, outer_trip=1)
    with pytest.raises(ValueError):
        LoopNest(inner_trip=1, outer_trip=1, elem_bits=7)


def test_vector_wastes_register_bits():
    cov = conventional_vector(dist1_nest())
    assert cov.utilization == pytest.approx(8 / 64)
    assert cov.elements_per_instruction == 16


def test_mmx_full_utilization_single_row():
    cov = mmx_like(dist1_nest())
    assert cov.utilization == 1.0
    assert cov.elements_per_instruction == 8


def test_wider_register_capped_by_stride():
    narrow = mmx_like(dist1_nest(), register_bits=128)
    wide = mmx_like(dist1_nest(), register_bits=1024)
    assert narrow.elements_per_instruction == wide.elements_per_instruction == 16


def test_wider_register_helps_contiguous_data():
    nest = LoopNest(inner_trip=16, outer_trip=16, stride_bytes=16)
    wide = mmx_like(nest, register_bits=1024)
    assert wide.elements_per_instruction == 128


def test_mom_covers_half_the_block():
    cov = mom_matrix(dist1_nest())
    assert cov.elements_per_instruction == 128    # 16 rows x 8 pixels
    assert cov.utilization == 1.0
    assert cov.instructions_for(dist1_nest()) == 2


def test_compare_returns_all_paradigms():
    result = compare(dist1_nest())
    assert set(result) == {"vector", "mmx", "mom"}
    assert (result["mom"].elements_per_instruction
            > result["mmx"].elements_per_instruction)
