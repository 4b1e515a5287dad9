"""Per-ISA stage emitters composed by the application pipelines.

The paper's methodology rewrites the hot functions of each Mediabench
program against the emulation libraries and leaves the rest scalar.  These
classes are those rewritten functions: every method emits instructions into
the application's builder *and* performs the computation functionally, so
application outputs can be validated end-to-end.

Three implementations exist -- :class:`ScalarStages` (plain Alpha),
:class:`MmxStages` and :class:`MomStages` -- matching the three full-program
configurations of Figure 7 (the paper omits MDMX there, "as MDMX exhibits
similar behavior to MMX").  All three produce bit-identical data for every
stage, which the application tests assert.

Where a stage emits the same rows as its Figure 5 kernel, the body is the
kernel module's ``emit_*`` function and the stage only picks registers,
addresses and the branch site: here ``transform8``, ``sad16`` /
``motion_search``, ``avg_block``, ``addblock8`` and ``dot16``.  DESIGN.md
section 11 lists the shared pairs and how each remaining stage differs
from its kernel.

Fixed-point stage definitions (mirrored by the numpy reference in
:mod:`repro.apps.reference`):

* ``transform8`` -- the same two-pass 14-bit transform as the idct kernel,
  parameterized by the constant matrix (IDCT uses ``M``, FDCT uses ``M.T``).
* ``quant8`` -- ``q = sign(x) * (|x| >> 4)`` (quality step 16).
* ``dequant8`` -- ``x = q << 4``.
* ``rgb2ycc`` / ``ycc2rgb`` -- the 8-bit integer conversions documented in
  the kernel and in :data:`YCC2RGB` below.
"""

from __future__ import annotations

import struct
from functools import partial
from itertools import chain

import numpy as np

from ..emulib.alpha_builder import emit_track_min, reads_written
from ..emulib.base_builder import replay, replay_body, wrap64
from ..emulib.scalar_section import SectionProfile, emit_scalar_section
from ..kernels.addblock import TABLE_BIAS, clamp_table, emit_alpha_addblock
from ..kernels.compensation import emit_alpha_average
from ..kernels.idct import (N, OUT_MAX, OUT_MIN, PASS1_ROUND, PASS1_SHIFT,
                            PASS2_ROUND, PASS2_SHIFT, emit_alpha_pass,
                            idct_matrix)
from ..kernels.ltp import emit_alpha_dot
from ..kernels.motion import emit_alpha_distance
from ..kernels.rgb2ycc import COMPONENTS as RGB2YCC

#: ycc2rgb integer coefficients: value = clamp(Y + (sum + 64) >> 7).
#: (name, cY, cCb, cCr) with Cb/Cr pre-biased by -128.
YCC2RGB = (
    ("r", 179),          # R = Y + (179 * (Cr - 128) + 64) >> 7
    ("g", (-44, -91)),   # G = Y + (-44*(Cb-128) - 91*(Cr-128) + 64) >> 7
    ("b", 227),          # B = Y + (227 * (Cb - 128) + 64) >> 7
)

IDCT_MAT = idct_matrix()
FDCT_MAT = IDCT_MAT.T.copy()

BLOCK16 = 16
QUANT_SHIFT = 4

_U64 = (1 << 64) - 1
_BLOCK_BYTES = 2 * N * N
#: The row loop's branch is taken after every row but the last.
_ROW_TAKEN = (True,) * (N - 1) + (False,)


# --- Alpha stage bodies ----------------------------------------------------------
# What the first call of a replayed stage with given registers records, and
# the oracles their replays are tested against (DESIGN.md section 5).

def _residual_body(b, cur: int, cstride: int, pred: int, pstride: int,
                   dst: int, regs, site: int) -> None:
    """:meth:`ScalarStages.residual8` one instruction at a time."""
    pc, pp, pd, vc, vp, rows = regs
    b.li(pc, cur)
    b.li(pp, pred)
    b.li(pd, dst)
    b.li(rows, N)
    for _ in range(N):
        for x in range(N):
            b.ldbu(vc, pc, x)
            b.ldbu(vp, pp, x)
            b.subq(vc, vc, vp)
            b.stw(vc, pd, 2 * x)
        b.addi(pc, pc, cstride)
        b.addi(pp, pp, pstride)
        b.addi(pd, pd, 2 * N)
        b.subi(rows, rows, 1)
        b.bne(rows, site)


def _quant_body(b, addr: int, regs, site: int) -> None:
    """:meth:`ScalarStages.quant8` one instruction at a time; ``regs``
    ends with the register ``zero``."""
    p, v, neg, sign, cnt, zero = regs
    b.li(p, addr)
    b.li(cnt, N)
    for _row in range(N):
        for x in range(N):
            b.ldwu(v, p, 2 * x)
            b.sextw(v, v)
            b.mov(sign, v)
            b.subq(neg, zero, v)
            b.cmovlt(v, v, neg)            # v = |x|
            b.srl(v, v, QUANT_SHIFT)
            b.subq(neg, zero, v)
            b.cmovlt(v, sign, neg)         # restore sign
            b.stw(v, p, 2 * x)
        b.addi(p, p, 2 * N)
        b.subi(cnt, cnt, 1)
        b.bne(cnt, site)


def _dequant_body(b, addr: int, regs, site: int) -> None:
    """:meth:`ScalarStages.dequant8` one instruction at a time."""
    p, v, cnt = regs
    b.li(p, addr)
    b.li(cnt, N)
    for _row in range(N):
        for x in range(N):
            b.ldwu(v, p, 2 * x)
            b.sextw(v, v)
            b.sll(v, v, QUANT_SHIFT)
            b.stw(v, p, 2 * x)
        b.addi(p, p, 2 * N)
        b.subi(cnt, cnt, 1)
        b.bne(cnt, site)


def _coefficients(b, addr: int) -> tuple[int, tuple[int, ...]]:
    """The masked address and the 64 int16 values (as ``ldwu`` +
    ``sextw`` read them) of an in-place coefficient stage."""
    lo = addr & _U64
    return lo, struct.unpack(f"<{N * N}h", b.mem.read_block(lo, _BLOCK_BYTES))


def _in_place(b, lo: int, values: list[int], skeleton, site: int) -> None:
    """Store an in-place coefficient stage's results and append its rows:
    per element a load and a store of the same address."""
    b.mem.write_block(lo, struct.pack(
        f"<{N * N}H", *[value & 0xFFFF for value in values]))
    elements = [lo + 2 * k for k in range(N * N)]
    b.trace.emit_skeleton(skeleton, list(chain.from_iterable(
        zip(elements, elements))), _ROW_TAKEN, site)


class ScalarStages:
    """Stage emitters for the pure-Alpha configuration."""

    isa = "alpha"

    def __init__(self, b) -> None:
        self.b = b
        # Persistent scalar working registers shared by all stages.
        self.z = b.ireg(0)
        self.r = [b.ireg() for _ in range(10)]
        self._scratch8 = b.mem.alloc(N * N * 2)

    # --- generic helpers -----------------------------------------------------

    def scalar_section(self, profile: SectionProfile, seed: int = 1) -> None:
        emit_scalar_section(self.b, profile, seed)

    # --- motion estimation -----------------------------------------------------

    def sad16(self, ref_addr: int, ref_stride: int, blk_addr: int,
              blk_stride: int, out):
        """SAD of one 16x16 block pair into integer register ``out``."""
        emit_alpha_distance(self.b, ref_addr, ref_stride, blk_addr,
                            blk_stride, out, self.r[:7], self.b.site())
        return out

    def motion_search(self, candidates: list[int], ref_stride: int,
                      blk_addr: int, blk_stride: int) -> int:
        """SADs over candidate addresses; returns the best index."""
        b = self.b
        s, best, besti, tmp, cand = (self.r[7], b.ireg(1 << 30), b.ireg(0),
                                     self.r[8], self.r[9])
        for index, addr in enumerate(candidates):
            self.sad16(addr, ref_stride, blk_addr, blk_stride, s)
            emit_track_min(b, s, best, besti, tmp, cand, index)
        winner = int(besti.value)
        b.free(best)
        b.free(besti)
        return winner

    # --- block movement ----------------------------------------------------------

    def copy_block(self, src: int, sstride: int, dst: int, dstride: int,
                   h: int, w: int) -> None:
        b = self.b
        ps, pd, v = self.r[:3]
        b.li(ps, src)
        b.li(pd, dst)
        site = b.site()
        rows = self.r[3]
        b.li(rows, h)
        for _ in range(h):
            for x in range(0, w, 8):
                b.ldq(v, ps, x)
                b.stq(v, pd, x)
            b.addi(ps, ps, sstride)
            b.addi(pd, pd, dstride)
            b.subi(rows, rows, 1)
            b.bne(rows, site)

    def avg_block(self, a: int, astride: int, c: int, cstride: int,
                  dst: int, dstride: int, h: int, w: int) -> None:
        """dst = (a + c + 1) >> 1 per pixel (motion compensation)."""
        emit_alpha_average(self.b, a, astride, c, cstride, dst, dstride, h, w,
                           self.r[:6], self.b.site())

    # --- residual / reconstruction ----------------------------------------------------

    def residual8(self, cur: int, cstride: int, pred: int, pstride: int,
                  dst: int) -> None:
        """dst (int16 8x8, contiguous) = cur - pred.

        Replayed (DESIGN.md section 5): after the first call with these
        registers, each call reads the block rows, computes the
        differences on Python ints and appends the recorded rows -- unless
        a load would read a byte an earlier store of the call wrote; that
        call runs :func:`_residual_body`."""
        b = self.b
        regs = self.r[:6]
        site = b.site()

        def body():
            _residual_body(b, cur, cstride, pred, pstride, dst, regs, site)

        cur_rows = [(cur + r * cstride) & _U64 for r in range(N)]
        pred_rows = [(pred + r * pstride) & _U64 for r in range(N)]
        out = dst & _U64
        loads = [(c + x, p + x) for c, p in zip(cur_rows, pred_rows)
                 for x in range(N)]
        stores = [(out + 2 * k, out + 2 * k + 1) for k in range(N * N)]
        if reads_written(loads, stores):
            body()
            return
        skeleton = replay(b, ("residual8",), regs, body)
        if skeleton is None:
            return
        read = b.mem.read_block
        cur_bytes = [read(a, N) for a in cur_rows]
        pred_bytes = [read(a, N) for a in pred_rows]
        diffs = [c - p for cs, ps in zip(cur_bytes, pred_bytes)
                 for c, p in zip(cs, ps)]
        b.mem.write_block(out, struct.pack(
            f"<{N * N}H", *[d & 0xFFFF for d in diffs]))
        addrs = []
        for (c, p), (d, _) in zip(loads, stores):
            addrs += (c, p, d)
        b.trace.emit_skeleton(skeleton, addrs, _ROW_TAKEN, site)
        pc, pp, pd, vc, vp, rows = regs
        pc.value = wrap64(cur + N * cstride)
        pp.value = wrap64(pred + N * pstride)
        pd.value = wrap64(dst + _BLOCK_BYTES)
        vc.value, vp.value = diffs[-1], pred_bytes[-1][-1]
        rows.value = 0

    def addblock8(self, pred: int, pstride: int, resid: int, dst: int,
                  dstride: int) -> None:
        """dst = clamp(pred + resid) via the mpeg2play memory table."""
        b = self.b
        if not hasattr(self, "_clamp_tab"):
            self._clamp_tab = b.mem.alloc_array(clamp_table()) + TABLE_BIAS
        tab = self.r[7]
        b.li(tab, self._clamp_tab)
        emit_alpha_addblock(b, pred, pstride, resid, dst, dstride, tab,
                            self.r[:7], b.site())

    # --- transforms ----------------------------------------------------------------------

    def transform8(self, src: int, dst: int, mat: np.ndarray,
                   clamp: bool) -> None:
        """Two-pass fixed-point 8x8 transform (IDCT with ``mat=IDCT_MAT``,
        FDCT with ``mat=FDCT_MAT``)."""
        b = self.b
        lo, hi = self.r[7], self.r[8]
        b.li(lo, OUT_MIN)
        b.li(hi, OUT_MAX)
        regs = (*self.r[:6], lo, hi, self.r[6])
        site = b.site()
        emit_alpha_pass(b, mat, src, self._scratch8, PASS1_ROUND, PASS1_SHIFT,
                        True, False, regs, site)
        emit_alpha_pass(b, mat, self._scratch8, dst, PASS2_ROUND, PASS2_SHIFT,
                        False, clamp, regs, site)

    # --- quantization -----------------------------------------------------------------------

    def quant8(self, addr: int) -> None:
        """In-place ``q = sign(x) * (|x| >> 4)`` over 64 int16 coefficients.

        Replayed (DESIGN.md section 5): the sign is restored by compare
        and cmov, so after the first call with these registers each call
        computes the values on Python ints with the body's arithmetic."""
        b = self.b
        regs = (*self.r[:5], self.z)
        site = b.site()
        skeleton = replay(b, ("quant8",), regs,
                          lambda: _quant_body(b, addr, regs, site))
        if skeleton is None:
            return
        lo, xs = _coefficients(b, addr)
        p, v, neg, sign, cnt, zero = regs
        z = zero.value
        out = []
        for x in xs:
            # |x| (cmovlt on x), shift, then the sign back (cmovlt on x).
            shifted = (wrap64(z - x) if x < 0 else x) & _U64
            shifted >>= QUANT_SHIFT
            out.append(wrap64(z - shifted) if x < 0 else shifted)
        _in_place(b, lo, out, skeleton, site)
        p.value = wrap64(addr + _BLOCK_BYTES)
        v.value, sign.value = out[-1], xs[-1]
        neg.value = wrap64(z - shifted)
        cnt.value = 0

    def dequant8(self, addr: int) -> None:
        """In-place ``x = q << 4``; replayed like :meth:`quant8`."""
        b = self.b
        regs = self.r[:3]
        site = b.site()
        skeleton = replay(b, ("dequant8",), regs,
                          lambda: _dequant_body(b, addr, regs, site))
        if skeleton is None:
            return
        lo, xs = _coefficients(b, addr)
        p, v, cnt = regs
        # sll of an int16 never leaves 64 bits: no wrap to apply.
        out = [x << QUANT_SHIFT for x in xs]
        _in_place(b, lo, out, skeleton, site)
        p.value = wrap64(addr + _BLOCK_BYTES)
        v.value = out[-1]
        cnt.value = 0

    # --- colour conversion -----------------------------------------------------------------------

    def rgb2ycc(self, r: int, g: int, bb: int, y: int, cb: int, cr: int,
                n: int) -> None:
        """Replayed by re-running (DESIGN.md section 5): each iteration
        of four pixels is one call, keyed by its pixel count."""
        b = self.b
        vr, vg, vb, c, prod, s, cnt = self.r[:7]
        po = self.r[8]
        outs = {"y": y, "cb": cb, "cr": cr}
        pr, pg, pb = b.ireg(r), b.ireg(g), b.ireg(bb)
        site = b.site()

        def pixels(i0: int) -> None:
            for i in range(i0, min(i0 + 4, n)):
                b.ldbu(vr, pr, i)
                b.ldbu(vg, pg, i)
                b.ldbu(vb, pb, i)
                for name, kr, kg, kb, bias in RGB2YCC:
                    b.li(c, kr)
                    b.mulq(s, vr, c)
                    b.li(c, kg)
                    b.mulq(prod, vg, c)
                    b.addq(s, s, prod)
                    b.li(c, kb)
                    b.mulq(prod, vb, c)
                    b.addq(s, s, prod)
                    b.addi(s, s, 128)
                    b.sra(s, s, 8)
                    if bias:
                        b.addi(s, s, bias)
                    b.li(po, outs[name] + i)
                    b.stb(s, po, 0)
                if i % 4 == 3:
                    b.subi(cnt, cnt, 1)
                    b.bne(cnt, site)

        b.li(cnt, n // 4)
        regs = (vr, vg, vb, c, prod, s, cnt, po, pr, pg, pb)
        for i0 in range(0, n, 4):
            replay_body(b, ("rgb2ycc", min(4, n - i0)), regs,
                        partial(pixels, i0))
        for reg in (pr, pg, pb):
            b.free(reg)

    def ycc2rgb(self, y: int, cb: int, cr: int, r: int, g: int, bb: int,
                n: int) -> None:
        """Replayed by re-running, four pixels a call, as :meth:`rgb2ycc`."""
        b = self.b
        vy, vcb, vcr, c, prod, s, t, cnt = self.r[:8]
        site = b.site()
        py, pcb, pcr = b.ireg(y), b.ireg(cb), b.ireg(cr)
        pout = self.r[8]

        def pixels(i0: int) -> None:
            for i in range(i0, min(i0 + 4, n)):
                b.ldbu(vy, py, i)
                b.ldbu(vcb, pcb, i)
                b.ldbu(vcr, pcr, i)
                b.addi(vcb, vcb, -128)
                b.addi(vcr, vcr, -128)
                for name, dst in (("r", r), ("g", g), ("b", bb)):
                    if name == "r":
                        b.li(c, 179)
                        b.mulq(s, vcr, c)
                    elif name == "b":
                        b.li(c, 227)
                        b.mulq(s, vcb, c)
                    else:
                        b.li(c, -44)
                        b.mulq(s, vcb, c)
                        b.li(c, -91)
                        b.mulq(prod, vcr, c)
                        b.addq(s, s, prod)
                    b.addi(s, s, 64)
                    b.sra(s, s, 7)
                    b.addq(s, s, vy)
                    b.cmovlt(s, s, self.z)                 # clamp low
                    b.li(t, 255)
                    b.cmplt(prod, t, s)
                    b.cmovne(s, prod, t)                   # clamp high
                    b.li(pout, dst + i)
                    b.stb(s, pout, 0)
                if i % 4 == 3:
                    b.subi(cnt, cnt, 1)
                    b.bne(cnt, site)

        b.li(cnt, n // 4)
        regs = (vy, vcb, vcr, c, prod, s, t, cnt, pout, py, pcb, pcr, self.z)
        for i0 in range(0, n, 4):
            replay_body(b, ("ycc2rgb", min(4, n - i0)), regs,
                        partial(pixels, i0))
        for reg in (py, pcb, pcr):
            b.free(reg)

    # --- resampling -------------------------------------------------------------------------------

    def downsample2(self, src: int, w: int, h: int, dst: int) -> None:
        """Point-sampled 2:1 decimation in both axes (4:2:0 chroma)."""
        b = self.b
        ps, pd, v, cnt = self.r[:4]
        site = b.site()
        b.li(cnt, h // 2)
        for y in range(0, h, 2):
            b.li(ps, src + y * w)
            b.li(pd, dst + (y // 2) * (w // 2))
            for x in range(0, w, 2):
                b.ldbu(v, ps, x)
                b.stb(v, pd, x // 2)
            b.subi(cnt, cnt, 1)
            b.bne(cnt, site)

    def upsample2(self, src: int, w: int, h: int, dst: int) -> None:
        """2x2 pixel replication (the h2v2 kernel's job)."""
        b = self.b
        pi, po0, po1, v, cnt = self.r[:5]
        ow = 2 * w
        site = b.site()
        b.li(cnt, h)
        for y in range(h):
            b.li(pi, src + y * w)
            b.li(po0, dst + (2 * y) * ow)
            b.li(po1, dst + (2 * y + 1) * ow)
            for x in range(w):
                b.ldbu(v, pi, x)
                b.stb(v, po0, 2 * x)
                b.stb(v, po0, 2 * x + 1)
                b.stb(v, po1, 2 * x)
                b.stb(v, po1, 2 * x + 1)
            b.subi(cnt, cnt, 1)
            b.bne(cnt, site)

    # --- dot products (GSM) -----------------------------------------------------------------------------

    def dot16(self, a: int, c: int, n: int, out) -> None:
        """out = sum of products of two int16 vectors of length ``n``."""
        b = self.b
        pa, pc = self.r[:2]
        b.li(pa, a)
        b.li(pc, c)
        emit_alpha_dot(b, n, out, self.r[:6], b.site())
