"""Kernel tests: every ISA version must match the numpy golden reference."""

import numpy as np
import pytest

from repro.emulib.alpha_builder import AlphaBuilder
from repro.kernels import (ISAS, KERNEL_ORDER, KERNELS, VC_KERNEL_ORDER,
                           build_and_check)
from repro.kernels.common import BuiltKernel, KernelSpec
from repro.kernels.idct import golden_block, idct_matrix, make_workload as idct_workload
from repro.kernels.motion import spiral_candidates
from repro.isa.model import InstrClass

ALL_PAIRS = [(k, isa) for k in KERNEL_ORDER for isa in ISAS]


@pytest.fixture(scope="module")
def workloads():
    return {name: KERNELS[name].make_workload(1) for name in KERNEL_ORDER}


@pytest.fixture(scope="module")
def built(workloads):
    cache = {}
    for name, isa in ALL_PAIRS:
        cache[(name, isa)] = build_and_check(
            KERNELS[name], isa, workloads[name]
        )
    return cache


def test_registry_complete():
    assert set(KERNEL_ORDER) | set(VC_KERNEL_ORDER) == set(KERNELS)
    assert len(KERNEL_ORDER) == 8        # the paper's Section 4.1 grid
    assert len(KERNELS) == 8 + len(VC_KERNEL_ORDER)
    for spec in KERNELS.values():
        assert set(ISAS) <= set(spec.builders)


@pytest.mark.parametrize("kernel,isa", ALL_PAIRS)
def test_kernel_matches_golden(built, kernel, isa):
    """build_and_check raises on mismatch; reaching here means bit-exact."""
    bk = built[(kernel, isa)]
    assert len(bk.trace) > 0


@pytest.mark.parametrize("kernel", KERNEL_ORDER)
def test_instruction_count_ordering(built, kernel):
    """MOM needs far fewer instructions than MMX, which needs far fewer
    than scalar -- the fetch-pressure argument of the paper."""
    alpha = len(built[(kernel, "alpha")].trace)
    mmx = len(built[(kernel, "mmx")].trace)
    mom = len(built[(kernel, "mom")].trace)
    assert mom < mmx < alpha
    assert alpha / mmx > 2.5
    assert mmx / mom > 1.2


@pytest.mark.parametrize("kernel", KERNEL_ORDER)
def test_operation_counts_agree(built, kernel):
    """All ISAs perform comparable element-level work on the same input."""
    alpha_ops = len(built[(kernel, "alpha")].trace)
    mom_ops = built[(kernel, "mom")].trace.operation_count()
    # MOM covers the same element work in lane-operations; the scalar
    # version spends several instructions per element, so a modest floor
    # already proves the vector version is not skipping work.
    assert mom_ops > 0.05 * alpha_ops


@pytest.mark.parametrize("kernel", KERNEL_ORDER)
def test_mom_memory_references_not_inflated(built, kernel):
    """Element-level memory traffic must not exceed the scalar version's
    by more than the packing factor allows."""
    alpha_refs = built[(kernel, "alpha")].trace.memory_references()
    mom_refs = built[(kernel, "mom")].trace.memory_references()
    assert mom_refs <= alpha_refs * 1.5


def test_scaled_workloads_still_verify():
    for name in ("motion1", "addblock"):
        spec = KERNELS[name]
        workload = spec.make_workload(2)
        for isa in ("alpha", "mom"):
            build_and_check(spec, isa, workload)


def _stub_spec(outputs):
    """A one-ISA spec whose golden is ``pixels = [[1, 2, 3], [4, 5, 6]]``."""
    return KernelSpec(
        name="stub", description="stub",
        make_workload=lambda scale: None,
        golden=lambda w: {"pixels": np.arange(1, 7).reshape(2, 3)},
        builders={"alpha": lambda w: BuiltKernel(AlphaBuilder(), outputs)},
    )


@pytest.mark.parametrize("outputs,message", [
    ({}, r"stub/alpha: output 'pixels' missing"),
    ({"pixels": np.asarray([[1, 2, 3], [4, 0, 6]])},
     r"stub/alpha: output 'pixels' mismatches golden at 1 positions"),
    ({"pixels": np.arange(1, 7)},
     r"stub/alpha: output 'pixels' has shape \(6,\), golden has \(2, 3\)"),
    ({"pixels": np.arange(1, 7).reshape(3, 2)},
     r"stub/alpha: output 'pixels' has shape \(3, 2\), golden has \(2, 3\)"),
    ({"pixels": np.arange(1, 5)},
     r"stub/alpha: output 'pixels' has shape \(4,\), golden has \(2, 3\)"),
], ids=["missing", "values", "flat", "transposed", "short"])
def test_build_and_check_names_the_failing_output(outputs, message):
    with pytest.raises(AssertionError, match=message):
        build_and_check(_stub_spec(outputs), "alpha", None)


def test_workloads_deterministic():
    a = KERNELS["motion1"].make_workload(1)
    b = KERNELS["motion1"].make_workload(1)
    assert np.array_equal(a.ref, b.ref)
    assert a.candidates == b.candidates


# --- kernel-specific properties --------------------------------------------------------

def test_spiral_matches_paper_walk():
    cands = spiral_candidates(5, 5, 1)
    assert cands[0] == (5, 5)
    assert len(cands) == 9
    assert cands[1] == (4, 4)          # starts at (-win, -win)
    assert len(set(cands)) == 9        # no duplicates at win=1


def test_spiral_count_grows_quadratically():
    assert len(spiral_candidates(0, 0, 2)) == 1 + 8 + 16


def test_idct_matrix_orthogonality():
    m = idct_matrix().astype(np.float64) / (1 << 14)
    assert np.allclose(m.T @ m, np.eye(8), atol=0.01)


def test_idct_dc_block():
    block = np.zeros((8, 8), dtype=np.int16)
    block[0][0] = 1024
    out = golden_block(block)
    assert (np.abs(out.astype(int) - 128) <= 1).all()


def test_idct_roundtrip_accuracy():
    """fdct followed by idct recovers pixels within quantization error."""
    workload = idct_workload(1)
    for coef in workload.blocks:
        out = golden_block(coef)
        assert out.min() >= -256 and out.max() <= 255


def test_motion_golden_best_is_minimum():
    spec = KERNELS["motion1"]
    w = spec.make_workload(1)
    g = spec.golden(w)
    assert g["distances"][g["best"][0]] == g["distances"].min()


def test_motion_traces_contain_branches(built):
    alpha = built[("motion1", "alpha")].trace
    assert alpha.branch_count() > 100
    mom = built[("motion1", "mom")].trace
    assert mom.branch_count() < 10


def test_mom_kernels_use_matrix_memory(built):
    for kernel in KERNEL_ORDER:
        trace = built[(kernel, "mom")].trace
        vectors = [i for i in trace
                   if i.iclass in (InstrClass.MED_LOAD, InstrClass.MED_STORE)
                   and i.vl > 1]
        assert vectors, f"{kernel} never used a matrix memory access"


def test_mdmx_uses_accumulators(built):
    for kernel in ("motion1", "motion2", "ltpparameters", "rgb2ycc"):
        trace = built[(kernel, "mdmx")].trace
        assert any(i.op.writes_acc for i in trace), kernel


def test_addblock_scalar_is_memory_heavy(built):
    """The table-lookup clamp makes scalar addblock memory-bound."""
    trace = built[("addblock", "alpha")].trace
    hist = trace.class_histogram()
    memory = hist.get(InstrClass.LOAD, 0) + hist.get(InstrClass.STORE, 0)
    assert memory / len(trace) > 0.45


def test_h2v2_is_store_heavy(built):
    trace = built[("h2v2upsample", "alpha")].trace
    hist = trace.class_histogram()
    assert hist[InstrClass.STORE] > hist[InstrClass.LOAD]
