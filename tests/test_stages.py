"""Integration tests for the per-ISA application stage emitters.

Every stage must produce identical bytes in memory on all three ISA
configurations, matching the numpy reference; these are the pieces from
which Figure 7's applications are composed.
"""

import importlib

import numpy as np
import pytest

from repro.apps.common import make_stages
from repro.apps.reference import (addblock_ref, avg_ref, dequant_ref,
                                  downsample2_ref, dot16_ref, quant_ref,
                                  residual_ref, rgb2ycc_ref, transform8_ref,
                                  upsample2_ref, ycc2rgb_ref)
from repro.apps.stages import FDCT_MAT, IDCT_MAT

ISAS = ("alpha", "mmx", "mom")
RNG = np.random.default_rng(42)


def setup_stage(isa):
    return make_stages(isa)


@pytest.mark.parametrize("isa", ISAS)
def test_sad16_stage(isa):
    b, st = setup_stage(isa)
    ref = RNG.integers(0, 256, (24, 64), dtype=np.uint8)
    blk = RNG.integers(0, 256, (16, 16), dtype=np.uint8)
    ref_addr = b.mem.alloc_array(ref)
    blk_addr = b.mem.alloc_array(blk)
    out = b.ireg()
    st.sad16(ref_addr + 3 * 64 + 5, 64, blk_addr, 16, out)
    expected = int(np.abs(
        ref[3:19, 5:21].astype(int) - blk.astype(int)).sum())
    assert int(out.value) == expected


@pytest.mark.parametrize("isa", ISAS)
def test_motion_search_stage(isa):
    b, st = setup_stage(isa)
    ref = RNG.integers(0, 256, (24, 64), dtype=np.uint8)
    blk = ref[4:20, 8:24].copy()
    ref_addr = b.mem.alloc_array(ref)
    blk_addr = b.mem.alloc_array(blk)
    candidates = [ref_addr + y * 64 + x
                  for y, x in ((0, 0), (4, 8), (2, 2), (5, 9))]
    best = st.motion_search(candidates, 64, blk_addr, 16)
    assert best == 1      # exact match position


@pytest.mark.parametrize("isa", ISAS)
def test_copy_and_avg_stages(isa):
    b, st = setup_stage(isa)
    a = RNG.integers(0, 256, (16, 16), dtype=np.uint8)
    c = RNG.integers(0, 256, (16, 16), dtype=np.uint8)
    a_addr, c_addr = b.mem.alloc_array(a), b.mem.alloc_array(c)
    dst = b.mem.alloc(256)
    st.copy_block(a_addr, 16, dst, 16, 16, 16)
    assert (b.mem.load_array(dst, np.uint8, 256).reshape(16, 16) == a).all()
    st.avg_block(a_addr, 16, c_addr, 16, dst, 16, 16, 16)
    got = b.mem.load_array(dst, np.uint8, 256).reshape(16, 16)
    assert (got == avg_ref(a, c)).all()


@pytest.mark.parametrize("isa", ISAS)
def test_residual_and_addblock_stages(isa):
    b, st = setup_stage(isa)
    cur = RNG.integers(0, 256, (8, 8), dtype=np.uint8)
    pred = RNG.integers(0, 256, (8, 8), dtype=np.uint8)
    resid_expect = residual_ref(cur, pred)
    cur_addr = b.mem.alloc_array(cur)
    pred_addr = b.mem.alloc_array(pred)
    resid_addr = b.mem.alloc(128)
    st.residual8(cur_addr, 8, pred_addr, 8, resid_addr)
    got = b.mem.load_array(resid_addr, np.int16, 64).reshape(8, 8)
    assert (got == resid_expect).all()

    out_addr = b.mem.alloc(64)
    st.addblock8(pred_addr, 8, resid_addr, out_addr, 8)
    got2 = b.mem.load_array(out_addr, np.uint8, 64).reshape(8, 8)
    assert (got2 == addblock_ref(pred, resid_expect)).all()
    assert (got2 == cur).all()     # pred + (cur - pred) clamps back to cur


@pytest.mark.parametrize("isa", ISAS)
@pytest.mark.parametrize("mat,clamp", [(FDCT_MAT, False), (IDCT_MAT, True)])
def test_transform_stage(isa, mat, clamp):
    b, st = setup_stage(isa)
    block = RNG.integers(-256, 256, (8, 8)).astype(np.int16)
    src = b.mem.alloc_array(block)
    dst = b.mem.alloc(128)
    st.transform8(src, dst, mat, clamp)
    got = b.mem.load_array(dst, np.int16, 64).reshape(8, 8)
    assert (got == transform8_ref(block, mat, clamp)).all()


@pytest.mark.parametrize("isa", ISAS)
def test_transform_stage_constants_stay_resident(isa):
    """Two calls with the same matrix must not reload constants (mmx/mom)."""
    b, st = setup_stage(isa)
    block = np.zeros((8, 8), dtype=np.int16)
    src = b.mem.alloc_array(block)
    dst = b.mem.alloc(128)
    st.transform8(src, dst, IDCT_MAT, False)
    first = len(b.trace)
    st.transform8(src, dst, IDCT_MAT, False)
    second = len(b.trace) - first
    if isa != "alpha":
        assert second < first     # constant loads amortized


@pytest.mark.parametrize("isa", ISAS)
def test_quant_dequant_stage(isa):
    b, st = setup_stage(isa)
    coefs = RNG.integers(-2000, 2000, (8, 8)).astype(np.int16)
    addr = b.mem.alloc_array(coefs)
    st.quant8(addr)
    got_q = b.mem.load_array(addr, np.int16, 64).reshape(8, 8)
    assert (got_q == quant_ref(coefs)).all()
    st.dequant8(addr)
    got_d = b.mem.load_array(addr, np.int16, 64).reshape(8, 8)
    assert (got_d == dequant_ref(quant_ref(coefs))).all()


@pytest.mark.parametrize("isa", ISAS)
def test_rgb2ycc_stage(isa):
    b, st = setup_stage(isa)
    n = 128
    r = RNG.integers(0, 256, n, dtype=np.uint8)
    g = RNG.integers(0, 256, n, dtype=np.uint8)
    bb = RNG.integers(0, 256, n, dtype=np.uint8)
    base = b.mem.alloc(3 * n)
    b.mem.store_array(base, np.concatenate([r, g, bb]))
    y, cb, cr = b.mem.alloc(n), b.mem.alloc(n), b.mem.alloc(n)
    st.rgb2ycc(base, base + n, base + 2 * n, y, cb, cr, n)
    ey, ecb, ecr = rgb2ycc_ref(r, g, bb)
    assert (b.mem.load_array(y, np.uint8, n) == ey).all()
    assert (b.mem.load_array(cb, np.uint8, n) == ecb).all()
    assert (b.mem.load_array(cr, np.uint8, n) == ecr).all()


@pytest.mark.parametrize("isa", ISAS)
def test_ycc2rgb_stage(isa):
    b, st = setup_stage(isa)
    n = 128
    y = RNG.integers(0, 256, n, dtype=np.uint8)
    cb = RNG.integers(0, 256, n, dtype=np.uint8)
    cr = RNG.integers(0, 256, n, dtype=np.uint8)
    ya, cba, cra = (b.mem.alloc_array(p) for p in (y, cb, cr))
    r, g, bb = b.mem.alloc(n), b.mem.alloc(n), b.mem.alloc(n)
    st.ycc2rgb(ya, cba, cra, r, g, bb, n)
    er, eg, eb = ycc2rgb_ref(y, cb, cr)
    assert (b.mem.load_array(r, np.uint8, n) == er).all()
    assert (b.mem.load_array(g, np.uint8, n) == eg).all()
    assert (b.mem.load_array(bb, np.uint8, n) == eb).all()


@pytest.mark.parametrize("isa", ISAS)
def test_resample_stages(isa):
    b, st = setup_stage(isa)
    plane = RNG.integers(0, 256, (16, 32), dtype=np.uint8)
    src = b.mem.alloc_array(plane)
    down = b.mem.alloc(8 * 16)
    st.downsample2(src, 32, 16, down)
    got = b.mem.load_array(down, np.uint8, 8 * 16).reshape(8, 16)
    assert (got == downsample2_ref(plane)).all()

    up = b.mem.alloc(32 * 64)
    st.upsample2(src, 32, 16, up)
    got2 = b.mem.load_array(up, np.uint8, 32 * 64).reshape(32, 64)
    assert (got2 == upsample2_ref(plane)).all()


@pytest.mark.parametrize("isa", ISAS)
@pytest.mark.parametrize("n", [40, 152])
def test_dot16_stage(isa, n):
    b, st = setup_stage(isa)
    x = RNG.integers(-2048, 2048, n).astype(np.int16)
    y = RNG.integers(-2048, 2048, n).astype(np.int16)
    xa, ya = b.mem.alloc_array(x), b.mem.alloc_array(y)
    out = b.ireg()
    st.dot16(xa, ya, n, out)
    assert int(out.value) == dot16_ref(x, y)


@pytest.mark.parametrize("isa", ("mmx", "mom"))
def test_media_stages_emit_fewer_instructions(isa):
    """Each media stage must be shorter than its scalar counterpart."""
    scalar_b, scalar_st = setup_stage("alpha")
    media_b, media_st = setup_stage(isa)
    cur = RNG.integers(0, 256, (8, 8), dtype=np.uint8)
    pred = RNG.integers(0, 256, (8, 8), dtype=np.uint8)
    for b, st in ((scalar_b, scalar_st), (media_b, media_st)):
        c = b.mem.alloc_array(cur)
        p = b.mem.alloc_array(pred)
        d = b.mem.alloc(128)
        st.residual8(c, 8, p, 8, d)
    assert len(media_b.trace) < len(scalar_b.trace)


def _run_motion_search(b, st):
    ref = RNG.integers(0, 256, (24, 64), dtype=np.uint8)
    ref_addr = b.mem.alloc_array(ref)
    blk_addr = b.mem.alloc_array(ref[4:20, 8:24].copy())
    candidates = [ref_addr + y * 64 + x for y, x in ((0, 0), (4, 8))]
    assert st.motion_search(candidates, 64, blk_addr, 16) == 1


def _run_sad16(b, st):
    ref = RNG.integers(0, 256, (16, 16), dtype=np.uint8)
    ref_addr = b.mem.alloc_array(ref)
    st.sad16(ref_addr, 16, ref_addr, 16, b.ireg())


def _run_avg_block(b, st):
    a_addr = b.mem.alloc_array(RNG.integers(0, 256, (16, 16), dtype=np.uint8))
    st.avg_block(a_addr, 16, a_addr, 16, b.mem.alloc(256), 16, 16, 16)


def _run_addblock8(b, st):
    pred = b.mem.alloc_array(RNG.integers(0, 256, (8, 8), dtype=np.uint8))
    resid = b.mem.alloc_array(RNG.integers(-256, 256, (8, 8)).astype(np.int16))
    st.addblock8(pred, 8, resid, b.mem.alloc(64), 8)


def _run_transform8(b, st):
    block = RNG.integers(-256, 256, (8, 8)).astype(np.int16)
    st.transform8(b.mem.alloc_array(block), b.mem.alloc(128), IDCT_MAT, True)


def _run_rgb2ycc(b, st):
    n = 64
    base = b.mem.alloc_array(RNG.integers(0, 256, 3 * n, dtype=np.uint8))
    outs = [b.mem.alloc(n) for _ in range(3)]
    st.rgb2ycc(base, base + n, base + 2 * n, *outs, n)


def _run_dot16(b, st):
    x = b.mem.alloc_array(RNG.integers(-2048, 2048, 40).astype(np.int16))
    st.dot16(x, x, 40, b.ireg())


#: (isa, stage module, kernel emitter it imports, stage run) for every
#: stage that shares its body with a Figure 5 kernel builder.
SHARED = [
    ("alpha", "stages", "emit_alpha_pass", _run_transform8),
    ("alpha", "stages", "emit_alpha_distance", _run_motion_search),
    ("alpha", "stages", "emit_alpha_average", _run_avg_block),
    ("alpha", "stages", "emit_alpha_addblock", _run_addblock8),
    ("alpha", "stages", "emit_alpha_dot", _run_dot16),
    ("mmx", "stages_media", "emit_mmx_transpose", _run_transform8),
    ("mmx", "stages_media", "emit_mmx_row_pass", _run_transform8),
    ("mmx", "stages_media", "emit_mmx_distance", _run_sad16),
    ("mmx", "stages_media", "emit_packed_addblock", _run_addblock8),
    ("mmx", "stages_media", "emit_mmx_rgb2ycc", _run_rgb2ycc),
    ("mom", "stages_media", "emit_mom_transpose", _run_transform8),
]


@pytest.mark.parametrize("isa,module,emitter,run", SHARED,
                         ids=[f"{i}-{e}" for i, _m, e, _r in SHARED])
def test_shared_stage_runs_its_kernel_emitter(monkeypatch, isa, module,
                                              emitter, run):
    """A stage forked off its kernel again fails here even if its trace
    digest still matches."""
    mod = importlib.import_module(f"repro.apps.{module}")
    original = getattr(mod, emitter)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(mod, emitter, counted)
    run(*setup_stage(isa))
    assert calls, f"{isa} stage never called {emitter}"
