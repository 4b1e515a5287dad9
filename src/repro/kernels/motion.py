"""motion1 / motion2: MPEG-2 motion-estimation kernels (Figures 1 and 2).

``motion1`` is the sum-of-absolute-differences pixel distance (the paper's
``dist1``), driven over the spiral candidate walk of ``fullsearch``;
``motion2`` is the sum-of-quadratic-differences variant.  These are the
motivating example of Section 2: three nested levels of DLP of which the
scalar code exploits none, MMX one (the 16-pixel row) and MOM two (the whole
16x16 block as one matrix access with the image width as row stride).

Implementation notes per ISA:

* **alpha** -- the branch-free sub/sub/cmovlt absolute-difference idiom,
  inner loop fully unrolled over the 16 pixels of a row (what a late-90s
  compiler achieves with unrolling).
* **mmx** -- two 64-bit loads per image row per block, ``psadb`` reductions
  (the "enhanced reduction operations" of Section 3.1), rows unrolled by 4.
* **mdmx** -- ``paccsadb``/``paccsqdb`` packed accumulators, *software
  pipelined over all four logical accumulators* to hide the accumulator
  recurrence, then the rac/punpck reduction tree.
* **mom** -- one ``momldq`` per 8-pixel column of the block (VL = 16 rows)
  and one ``mommsadb``/``mommsqdb`` matrix operation each; 2D DLP in
  earnest.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import mul, sub

import numpy as np

from ..emulib.alpha_builder import AlphaBuilder, emit_abs_diff, emit_track_min
from ..emulib.base_builder import replay, wrap64
from ..emulib.mdmx_builder import MdmxBuilder
from ..emulib.mmx_builder import MmxBuilder
from ..emulib.mom_builder import MomBuilder
from ..isa.model import ElemType
from .common import BuiltKernel, KernelSpec, register, rng_for
from .reduce import mdmx_sad_total, mdmx_sqd_total

BLOCK = 16


@dataclass
class MotionWorkload:
    """A reference frame, one current block, and a spiral candidate walk."""

    ref: np.ndarray                 # (height, width) uint8
    blk: np.ndarray                 # (16, 16) uint8
    width: int                      # row stride of the reference frame
    candidates: list[tuple[int, int]]   # (y, x) block positions in ref


def spiral_candidates(center_y: int, center_x: int, win: int) -> list[tuple[int, int]]:
    """The candidate walk of the paper's ``fullsearch`` (Figure 2)."""
    out = [(center_y, center_x)]
    for radius in range(1, win + 1):
        y, x = center_y - radius, center_x - radius
        for k in range(8 * radius):
            out.append((y, x))
            if k < 2 * radius:
                x += 1
            elif k < 4 * radius:
                y += 1
            elif k < 6 * radius:
                x -= 1
            else:
                y -= 1
    return out


def make_workload(scale: int = 1) -> MotionWorkload:
    """Synthesize a frame with a shifted copy of the block inside it.

    ``scale`` is the spiral window size: candidates = 1 + 4*scale*(scale+1).
    """
    win = max(1, scale)
    width = 64
    height = BLOCK + 2 * win + 8
    rng = rng_for("motion", scale)
    ref = rng.integers(0, 256, (height, width), dtype=np.uint8)
    blk = ref[win + 1 : win + 1 + BLOCK, win + 2 : win + 2 + BLOCK].copy()
    blk = (blk.astype(np.int16) + rng.integers(-3, 4, blk.shape)).clip(0, 255)
    blk = blk.astype(np.uint8)
    candidates = spiral_candidates(win, win, win)
    return MotionWorkload(ref=ref, blk=blk, width=width, candidates=candidates)


def _distances(workload: MotionWorkload, squared: bool) -> np.ndarray:
    ref = workload.ref.astype(np.int64)
    blk = workload.blk.astype(np.int64)
    out = []
    for y, x in workload.candidates:
        window = ref[y : y + BLOCK, x : x + BLOCK]
        diff = window - blk
        out.append(np.square(diff).sum() if squared else np.abs(diff).sum())
    return np.asarray(out, dtype=np.int64)


def golden_motion1(workload: MotionWorkload) -> dict[str, np.ndarray]:
    sads = _distances(workload, squared=False)
    return {"distances": sads, "best": np.asarray([int(np.argmin(sads))])}


def golden_motion2(workload: MotionWorkload) -> dict[str, np.ndarray]:
    sqds = _distances(workload, squared=True)
    return {"distances": sqds, "best": np.asarray([int(np.argmin(sqds))])}


def _outputs(distances: list[int], best: int) -> dict[str, np.ndarray]:
    return {
        "distances": np.asarray(distances, dtype=np.int64),
        "best": np.asarray([best]),
    }


# --- Alpha -----------------------------------------------------------------------

def _distance_body(b, ref_addr: int, ref_stride: int, blk_addr: int,
                   blk_stride: int, out, regs, site: int,
                   squared: bool) -> None:
    """:func:`emit_alpha_distance` one instruction at a time: what its
    first call with a shape records, and the oracle its replay is tested
    against."""
    pa, pb, va, vb, d, scr, rows = regs
    b.li(pa, ref_addr)
    b.li(pb, blk_addr)
    b.li(out, 0)
    b.li(rows, BLOCK)
    for _row in range(BLOCK):
        for i in range(BLOCK):
            b.ldbu(va, pa, i)
            b.ldbu(vb, pb, i)
            if squared:
                b.subq(d, va, vb)
                b.mulq(d, d, d)
            else:
                emit_abs_diff(b, d, va, vb, scr)
            b.addq(out, out, d)
        b.addi(pa, pa, ref_stride)
        b.addi(pb, pb, blk_stride)
        b.subi(rows, rows, 1)
        b.bne(rows, site)


#: The row loop's branch is taken after every row but the last.
_ROW_TAKEN = (True,) * (BLOCK - 1) + (False,)
_U64 = (1 << 64) - 1


def emit_alpha_distance(b, ref_addr: int, ref_stride: int, blk_addr: int,
                        blk_stride: int, out, regs, site: int,
                        squared: bool = False) -> None:
    """Distance of one 16x16 block pair into ``out``: each row's 16 pixels
    unrolled, one loop branch per row.

    ``regs`` is ``(pa, pb, va, vb, d, scr, rows)``.

    Replayed: no row depends on a data value -- the absolute difference
    is sub / sub / cmovlt, and the row loop's branch outcomes are fixed --
    so the first call with given registers and ``squared`` runs
    :func:`_distance_body` and records its rows, and every later call
    reads each block row with one ``read_block``, computes the distance
    and final register values on Python ints and appends the recorded
    rows (DESIGN.md section 5).
    """
    skeleton = replay(b, ("alpha_distance", squared), (*regs, out),
                      lambda: _distance_body(b, ref_addr, ref_stride,
                                             blk_addr, blk_stride, out,
                                             regs, site, squared))
    if skeleton is None:
        return
    pa, pb, va, vb, d, scr, rows = regs
    read = b.mem.read_block
    ref_rows = [(ref_addr + r * ref_stride) & _U64 for r in range(BLOCK)]
    blk_rows = [(blk_addr + r * blk_stride) & _U64 for r in range(BLOCK)]
    ref_bytes = [read(a, BLOCK) for a in ref_rows]
    blk_bytes = [read(c, BLOCK) for c in blk_rows]
    diffs = [list(map(sub, x, y)) for x, y in zip(ref_bytes, blk_bytes)]
    if squared:
        total = sum(sum(map(mul, row, row)) for row in diffs)
    else:
        total = sum(sum(map(abs, row)) for row in diffs)
    addrs = []
    for a, c in zip(ref_rows, blk_rows):
        addrs += chain.from_iterable(zip(range(a, a + BLOCK),
                                         range(c, c + BLOCK)))
    b.trace.emit_skeleton(skeleton, addrs, _ROW_TAKEN, site)
    # The last pixel pair sets va, vb, d (and scr).
    va.value, vb.value = ref_bytes[-1][-1], blk_bytes[-1][-1]
    last = diffs[-1][-1]
    if squared:
        d.value = last * last
    else:
        d.value, scr.value = abs(last), -last
    out.value = wrap64(total)
    pa.value = wrap64(ref_addr + BLOCK * ref_stride)
    pb.value = wrap64(blk_addr + BLOCK * blk_stride)
    rows.value = 0


def _build_alpha(workload: MotionWorkload, squared: bool) -> BuiltKernel:
    b = AlphaBuilder()
    ref_addr = b.mem.alloc_array(workload.ref)
    blk_addr = b.mem.alloc_array(workload.blk)
    width = workload.width

    pa, pb = b.ireg(), b.ireg(blk_addr)
    s, va, vb, d, scr = b.ireg(), b.ireg(), b.ireg(), b.ireg(), b.ireg()
    rows = b.ireg()
    best, besti, tmp, cand = b.ireg(1 << 30), b.ireg(0), b.ireg(), b.ireg()
    row_site = b.site()

    distances = []
    for index, (y, x) in enumerate(workload.candidates):
        emit_alpha_distance(b, ref_addr + y * width + x, width, blk_addr,
                            BLOCK, s, (pa, pb, va, vb, d, scr, rows),
                            row_site, squared)
        distances.append(s.value)
        emit_track_min(b, s, best, besti, tmp, cand, index)
    return BuiltKernel(builder=b, outputs=_outputs(distances, besti.value))


# --- MMX -------------------------------------------------------------------------

def emit_mmx_distance(b, ref_addr: int, ref_stride: int, blk_addr: int,
                      blk_stride: int, regs, site: int,
                      squared: bool = False, promote=None) -> None:
    """Distance of one 16x16 block pair, accumulated as packed words in
    ``acc``: two 64-bit loads per row and block, rows unrolled by four.

    ``regs`` is ``(pa, pb, rows, a_lo, a_hi, b_lo, b_hi, acc, d1, d2)``;
    ``squared`` also needs ``promote = (zero, ta0, ta1, tb0, tb1)``.
    """
    pa, pb, rows, a_lo, a_hi, b_lo, b_hi, acc, d1, d2 = regs
    b.li(pa, ref_addr)
    b.li(pb, blk_addr)
    b.pxor(acc, acc, acc)
    b.li(rows, BLOCK // 4)
    for row in range(BLOCK):
        b.m_ldq(a_lo, pa, 0)
        b.m_ldq(a_hi, pa, 8)
        b.m_ldq(b_lo, pb, 0)
        b.m_ldq(b_hi, pb, 8)
        if squared:
            zero, ta0, ta1, tb0, tb1 = promote
            for src_a, src_b in ((a_lo, b_lo), (a_hi, b_hi)):
                # Data promotion: unpack bytes to halves, subtract,
                # square-and-sum pairs with pmaddh -- the pack/unpack
                # overhead Section 2.1 blames on MMX reductions.
                b.punpcklb(ta0, src_a, zero)
                b.punpckhb(ta1, src_a, zero)
                b.punpcklb(tb0, src_b, zero)
                b.punpckhb(tb1, src_b, zero)
                b.psubh(ta0, ta0, tb0)
                b.psubh(ta1, ta1, tb1)
                b.pmaddh(d1, ta0, ta0)
                b.pmaddh(d2, ta1, ta1)
                b.paddw(acc, acc, d1)
                b.paddw(acc, acc, d2)
        else:
            b.psadb(d1, a_lo, b_lo)
            b.psadb(d2, a_hi, b_hi)
            b.paddw(acc, acc, d1)
            b.paddw(acc, acc, d2)
        b.addi(pa, pa, ref_stride)
        b.addi(pb, pb, blk_stride)
        if row % 4 == 3:      # rows unrolled by four
            b.subi(rows, rows, 1)
            b.bne(rows, site)


def _build_mmx(workload: MotionWorkload, squared: bool) -> BuiltKernel:
    b = MmxBuilder()
    ref_addr = b.mem.alloc_array(workload.ref)
    blk_addr = b.mem.alloc_array(workload.blk)
    width = workload.width

    pa, pb = b.ireg(), b.ireg()
    s, best, besti, tmp, cand = b.ireg(), b.ireg(1 << 30), b.ireg(0), b.ireg(), b.ireg()
    rows = b.ireg()
    a_lo, a_hi, b_lo, b_hi = b.mreg(), b.mreg(), b.mreg(), b.mreg()
    acc, d1, d2 = b.mreg(), b.mreg(), b.mreg()
    zero = b.mreg()
    promote = (zero, b.mreg(), b.mreg(), b.mreg(), b.mreg()) if squared else None
    b.pxor(zero, zero, zero)
    row_site = b.site()
    regs = (pa, pb, rows, a_lo, a_hi, b_lo, b_hi, acc, d1, d2)

    distances = []
    for index, (y, x) in enumerate(workload.candidates):
        emit_mmx_distance(b, ref_addr + y * width + x, width, blk_addr, BLOCK,
                          regs, row_site, squared, promote)
        if squared:
            b.psrlq(d1, acc, 32)
            b.paddw(acc, acc, d1)
        b.movd_from(s, acc)
        b.andi(s, s, 0xFFFF_FFFF)
        distances.append(s.value)
        emit_track_min(b, s, best, besti, tmp, cand, index)
    return BuiltKernel(builder=b, outputs=_outputs(distances, besti.value))


# --- MDMX ------------------------------------------------------------------------

def _build_mdmx(workload: MotionWorkload, squared: bool) -> BuiltKernel:
    b = MdmxBuilder()
    ref_addr = b.mem.alloc_array(workload.ref)
    blk_addr = b.mem.alloc_array(workload.blk)
    width = workload.width

    pa, pb = b.ireg(), b.ireg()
    s, s2 = b.ireg(), b.ireg()
    best, besti, tmp, cand = b.ireg(1 << 30), b.ireg(0), b.ireg(), b.ireg()
    rows = b.ireg()
    a_lo, a_hi, b_lo, b_hi = b.mreg(), b.mreg(), b.mreg(), b.mreg()
    zero = b.mreg()
    scratch = [b.mreg() for _ in range(7)]
    accs = [b.areg() for _ in range(4)]     # software-pipelined accumulators
    b.pxor(zero, zero, zero)
    row_site = b.site()
    acc_op = b.paccsqdb if squared else b.paccsadb
    total = (lambda acc, out: mdmx_sqd_total(b, acc, scratch, zero, out)) \
        if squared else (lambda acc, out: mdmx_sad_total(b, acc, scratch, out))

    distances = []
    for index, (y, x) in enumerate(workload.candidates):
        b.li(pa, ref_addr + y * width + x)
        b.li(pb, blk_addr)
        for acc in accs:
            b.clracc(acc)
        b.li(rows, BLOCK // 4)
        for row in range(BLOCK):
            b.m_ldq(a_lo, pa, 0)
            b.m_ldq(a_hi, pa, 8)
            b.m_ldq(b_lo, pb, 0)
            b.m_ldq(b_hi, pb, 8)
            # Alternate accumulators to break the recurrence (Section 2.1).
            acc_op(accs[(2 * row) % 4], a_lo, b_lo)
            acc_op(accs[(2 * row + 1) % 4], a_hi, b_hi)
            b.addi(pa, pa, width)
            b.addi(pb, pb, BLOCK)
            if row % 4 == 3:
                b.subi(rows, rows, 1)
                b.bne(rows, row_site)
        total(accs[0], s)
        for extra in accs[1:]:
            total(extra, s2)
            b.addq(s, s, s2)
        distances.append(s.value)
        emit_track_min(b, s, best, besti, tmp, cand, index)
    return BuiltKernel(builder=b, outputs=_outputs(distances, besti.value))


# --- MOM -------------------------------------------------------------------------

def _build_mom(workload: MotionWorkload, squared: bool) -> BuiltKernel:
    b = MomBuilder()
    ref_addr = b.mem.alloc_array(workload.ref)
    blk_addr = b.mem.alloc_array(workload.blk)
    width = workload.width

    pa, pb = b.ireg(), b.ireg()
    ref_stride, blk_stride = b.ireg(width), b.ireg(BLOCK)
    s = b.ireg()
    best, besti, tmp, cand = b.ireg(1 << 30), b.ireg(0), b.ireg(), b.ireg()
    a_lo, a_hi, c_lo, c_hi = b.mreg(), b.mreg(), b.mreg(), b.mreg()
    acc = b.areg()
    acc_op = b.mommsqdb if squared else b.mommsadb

    # The current block never changes: hoist its two column loads out of
    # the candidate loop entirely -- 2D vectorization at work.
    b.setvli(BLOCK)
    b.li(pb, blk_addr)
    b.momldq(c_lo, pb, blk_stride)
    b.addi(pb, pb, 8)
    b.momldq(c_hi, pb, blk_stride)

    distances = []
    for index, (y, x) in enumerate(workload.candidates):
        b.setvli(BLOCK)
        b.li(pa, ref_addr + y * width + x)
        b.clracc(acc)
        b.momldq(a_lo, pa, ref_stride)
        b.addi(pa, pa, 8)
        b.momldq(a_hi, pa, ref_stride)
        acc_op(acc, a_lo, c_lo)
        acc_op(acc, a_hi, c_hi)
        # The matrix instruction reduced both dimensions: one racl reads
        # the scalar total.
        b.racl(s, acc, ElemType.Q)
        distances.append(s.value)
        emit_track_min(b, s, best, besti, tmp, cand, index)
    return BuiltKernel(builder=b, outputs=_outputs(distances, besti.value))


register(KernelSpec(
    name="motion1",
    description="MPEG-2 motion estimation, sum of absolute differences",
    make_workload=make_workload,
    golden=golden_motion1,
    builders={
        "alpha": lambda w: _build_alpha(w, squared=False),
        "mmx": lambda w: _build_mmx(w, squared=False),
        "mdmx": lambda w: _build_mdmx(w, squared=False),
        "mom": lambda w: _build_mom(w, squared=False),
    },
))

register(KernelSpec(
    name="motion2",
    description="MPEG-2 motion estimation, sum of quadratic differences",
    make_workload=make_workload,
    golden=golden_motion2,
    builders={
        "alpha": lambda w: _build_alpha(w, squared=True),
        "mmx": lambda w: _build_mmx(w, squared=True),
        "mdmx": lambda w: _build_mdmx(w, squared=True),
        "mom": lambda w: _build_mom(w, squared=True),
    },
))
