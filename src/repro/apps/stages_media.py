"""MMX and MOM implementations of the application stages.

See :mod:`repro.apps.stages` for the stage contracts.  Every override emits
the hand-vectorized instruction sequence for its ISA while computing the
identical fixed-point result; anything not overridden (and every emitted
scalar bookkeeping instruction) falls back to the scalar baseline, exactly
like a partially-vectorized real program.

MMX ``transform8``, ``sad16``, ``addblock8`` and ``rgb2ycc`` and MOM's
``transform8`` transpose call their kernel's ``emit_*`` function, so they
run the rows Figure 5 measures (DESIGN.md section 11).
"""

from __future__ import annotations

import numpy as np

from ..emulib.alpha_builder import emit_track_min
from ..emulib.base_builder import replay_body
from ..isa.model import ElemType
from ..kernels.addblock import emit_packed_addblock
from ..kernels.idct import (N, PASS1_SHIFT, PASS2_SHIFT, emit_mmx_row_pass,
                            emit_mmx_transpose, emit_mom_transpose,
                            mmx_transform_words, mom_broadcast_words,
                            mom_clamp_words)
from ..kernels.motion import emit_mmx_distance
from ..kernels.rgb2ycc import COMPONENTS as RGB2YCC
from ..kernels.rgb2ycc import broadcast_h, emit_mmx_rgb2ycc
from .stages import BLOCK16, QUANT_SHIFT, ScalarStages

_E = ElemType


class MmxStages(ScalarStages):
    """MMX-vectorized application stages."""

    isa = "mmx"

    def __init__(self, b) -> None:
        super().__init__(b)
        self.m = [b.mreg() for _ in range(11)]
        self.k = [b.mreg() for _ in range(16)]
        self.c4 = [b.mreg() for _ in range(4)]   # rnd1 rnd2 cmin cmax / misc
        self.mzero = b.mreg()
        b.pxor(self.mzero, self.mzero, self.mzero)
        self._t_addr = b.mem.alloc(N * N * 2)
        self._r_addr = b.mem.alloc(N * N * 2)
        self._const_addrs: dict[str, int] = {}

    # -- constant tables ----------------------------------------------------------

    def _transform_consts(self, key: str, mat: np.ndarray) -> int:
        if key not in self._const_addrs:
            self._const_addrs[key] = self.b.mem.alloc_array(
                mmx_transform_words(mat))
        return self._const_addrs[key]

    def _word_const(self, key: str, word: int) -> int:
        if key not in self._const_addrs:
            self._const_addrs[key] = self.b.mem.alloc_array(
                np.asarray([word], dtype=np.uint64)
            )
        return self._const_addrs[key]

    def _load_const(self, reg, key: str, word: int):
        addr_reg = self.r[9]
        self.b.li(addr_reg, self._word_const(key, word))
        self.b.m_ldq(reg, addr_reg, 0)
        return reg

    # -- motion estimation -----------------------------------------------------------

    def sad16(self, ref_addr: int, ref_stride: int, blk_addr: int,
              blk_stride: int, out):
        b = self.b
        emit_mmx_distance(b, ref_addr, ref_stride, blk_addr, blk_stride,
                          (*self.r[:3], *self.m[:7]), b.site())
        b.movd_from(out, self.m[4])
        return out

    # -- block movement -----------------------------------------------------------------

    def copy_block(self, src, sstride, dst, dstride, h, w) -> None:
        b = self.b
        ps, pd, rows = self.r[:3]
        v = self.m[0]
        b.li(ps, src)
        b.li(pd, dst)
        b.li(rows, h)
        site = b.site()
        for _ in range(h):
            for x in range(0, w, 8):
                b.m_ldq(v, ps, x)
                b.m_stq(v, pd, x)
            b.addi(ps, ps, sstride)
            b.addi(pd, pd, dstride)
            b.subi(rows, rows, 1)
            b.bne(rows, site)

    def avg_block(self, a, astride, c, cstride, dst, dstride, h, w) -> None:
        b = self.b
        pa, pc, pd, rows = self.r[:4]
        va, vc = self.m[:2]
        b.li(pa, a)
        b.li(pc, c)
        b.li(pd, dst)
        b.li(rows, h)
        site = b.site()
        for _ in range(h):
            for x in range(0, w, 8):
                b.m_ldq(va, pa, x)
                b.m_ldq(vc, pc, x)
                b.pavgb(va, va, vc)
                b.m_stq(va, pd, x)
            b.addi(pa, pa, astride)
            b.addi(pc, pc, cstride)
            b.addi(pd, pd, dstride)
            b.subi(rows, rows, 1)
            b.bne(rows, site)

    # -- residual / reconstruction ----------------------------------------------------------

    def residual8(self, cur, cstride, pred, pstride, dst) -> None:
        """Replayed by re-running (DESIGN.md section 5); a load's
        alignment picks its opcode, so the key holds the addresses' and
        strides' alignments."""
        b = self.b
        pc, pp, pd, rows = self.r[:4]
        vc, vp, c_lo, c_hi, p_lo, p_hi = self.m[:6]

        def body():
            b.li(pc, cur)
            b.li(pp, pred)
            b.li(pd, dst)
            b.li(rows, N // 4)
            site = b.site()
            for row in range(N):
                b.m_ldq(vc, pc, 0)
                b.m_ldq(vp, pp, 0)
                b.punpcklb(c_lo, vc, self.mzero)
                b.punpckhb(c_hi, vc, self.mzero)
                b.punpcklb(p_lo, vp, self.mzero)
                b.punpckhb(p_hi, vp, self.mzero)
                b.psubh(c_lo, c_lo, p_lo)
                b.psubh(c_hi, c_hi, p_hi)
                b.m_stq(c_lo, pd, 0)
                b.m_stq(c_hi, pd, 8)
                b.addi(pc, pc, cstride)
                b.addi(pp, pp, pstride)
                b.addi(pd, pd, 2 * N)
                if row % 4 == 3:
                    b.subi(rows, rows, 1)
                    b.bne(rows, site)

        replay_body(b, ("mmx_residual8", cur & 7, cstride & 7, pred & 7,
                        pstride & 7),
                    (*self.r[:4], *self.m[:6], self.mzero), body)

    def addblock8(self, pred, pstride, resid, dst, dstride) -> None:
        """Replayed by re-running, keyed like :meth:`residual8`."""
        b = self.b
        regs = (*self.r[:4], *self.m[:5])
        site = b.site()
        replay_body(b, ("mmx_addblock8", pred & 7, pstride & 7, resid & 7),
                    (*regs, self.mzero),
                    lambda: emit_packed_addblock(b, pred, pstride, resid,
                                                 dst, dstride, self.mzero,
                                                 regs, site))

    # -- transforms ----------------------------------------------------------------------------

    def transform8(self, src: int, dst: int, mat: np.ndarray,
                   clamp: bool) -> None:
        b = self.b
        key = f"k_{int(mat[0][0])}_{int(mat[0][1])}_{int(mat[1][0])}"
        caddr = self._transform_consts(key, mat)
        addr, ctr = self.r[:2]
        if getattr(self, "_k_tag", None) != key:
            # Constants stay resident in k/c4 across calls; other stages
            # that borrow those registers invalidate the tag.
            for i, reg in enumerate(self.k + self.c4):
                b.li(addr, caddr + 8 * i)
                b.m_ldq(reg, addr, 0)
            self._k_tag = key
        rnd1, rnd2, cmin, cmax = self.c4
        kregs = [self.k[4 * g : 4 * g + 4] for g in range(4)]
        site = b.site()

        def row_pass(sbase, dbase, rnd_reg, shift, do_clamp):
            emit_mmx_row_pass(b, sbase, dbase, rnd_reg, shift, do_clamp, addr,
                              ctr, kregs, (cmin, cmax), self.m[:11], site)

        def body():
            emit_mmx_transpose(b, src, self._t_addr, addr, self.m[:8])
            row_pass(self._t_addr, self._r_addr, rnd1, PASS1_SHIFT, False)
            emit_mmx_transpose(b, self._r_addr, self._t_addr, addr,
                               self.m[:8])
            row_pass(self._t_addr, dst, rnd2, PASS2_SHIFT, clamp)

        # Replayed by re-running after the resident constants: both
        # transposes and row passes are one call (DESIGN.md section 5).
        replay_body(b, ("mmx_transform8", clamp, src & 7),
                    (addr, ctr, *self.k, *self.c4, *self.m), body)

    # -- quantization -------------------------------------------------------------------------------

    def quant8(self, addr: int) -> None:
        """Replayed by re-running, keyed by the block's alignment."""
        b = self.b
        p, rows = self.r[:2]
        x, neg, q, mask = self.m[:4]

        def body():
            b.li(p, addr)
            b.li(rows, N // 4)
            site = b.site()
            for row in range(N):
                for half in (0, 8):
                    b.m_ldq(x, p, half)
                    b.psubh(neg, self.mzero, x)
                    b.pmaxsh(q, x, neg)                 # |x|
                    b.psrlh(q, q, QUANT_SHIFT)
                    b.pcmpgth(mask, self.mzero, x)      # lanes where x < 0
                    b.pxor(q, q, mask)
                    b.psubh(q, q, mask)         # two's complement negate
                    b.m_stq(q, p, half)
                b.addi(p, p, 2 * N)
                if row % 4 == 3:
                    b.subi(rows, rows, 1)
                    b.bne(rows, site)

        replay_body(b, ("mmx_quant8", addr & 7),
                    (p, rows, x, neg, q, mask, self.mzero), body)

    def dequant8(self, addr: int) -> None:
        """Replayed by re-running, keyed like :meth:`quant8`."""
        b = self.b
        p, rows = self.r[:2]
        x = self.m[0]

        def body():
            b.li(p, addr)
            b.li(rows, N // 4)
            site = b.site()
            for row in range(N):
                for half in (0, 8):
                    b.m_ldq(x, p, half)
                    b.psllh(x, x, QUANT_SHIFT)
                    b.m_stq(x, p, half)
                b.addi(p, p, 2 * N)
                if row % 4 == 3:
                    b.subi(rows, rows, 1)
                    b.bne(rows, site)

        replay_body(b, ("mmx_dequant8", addr & 7), (p, rows, x), body)

    # -- colour conversion ------------------------------------------------------------------------------

    def rgb2ycc(self, r, g, bb, y, cb, cr, n) -> None:
        b = self.b
        p = {k: b.ireg(v) for k, v in (("r", r), ("g", g), ("b", bb))}
        po = {k: b.ireg(v) for k, v in (("y", y), ("cb", cb), ("cr", cr))}
        cnt = self.r[0]
        halves = {k: (self.m[3 + i], self.k[i]) for i, k in enumerate("rgb")}
        rnd = self.k[3]
        bias_reg = self.k[4]
        self._load_const(rnd, "h128", broadcast_h(128))
        self._load_const(bias_reg, "h128b", broadcast_h(128))
        consts = {"round": rnd, "bias": bias_reg}
        coef_regs = {}
        next_k = 5
        for name, kr, kg, kb, _bias in RGB2YCC:
            for tag, coef in zip("rgb", (kr, kg, kb)):
                if coef not in coef_regs:
                    coef_regs[coef] = self.k[next_k]
                    next_k += 1
                    self._load_const(coef_regs[coef], f"c{coef}",
                                     broadcast_h(coef))
                consts[f"{name}_{tag}"] = coef_regs[coef]
        self._k_tag = None
        b.li(cnt, n // 8)
        emit_mmx_rgb2ycc(b, n, p, po, halves, consts,
                         (*self.m[:3], *self.m[6:10], self.mzero), cnt,
                         b.site())
        for reg in list(p.values()) + list(po.values()):
            b.free(reg)

    def ycc2rgb(self, y, cb, cr, r, g, bb, n) -> None:
        b = self.b
        p = {k: b.ireg(v) for k, v in (("y", y), ("cb", cb), ("cr", cr))}
        po = {k: b.ireg(v) for k, v in (("r", r), ("g", g), ("b", bb))}
        cnt = self.r[0]
        raw = {k: self.m[i] for i, k in enumerate(("y", "cb", "cr"))}
        h_lo = {k: self.m[3 + i] for i, k in enumerate(("y", "cb", "cr"))}
        h_hi = {k: self.k[i] for i, k in enumerate(("y", "cb", "cr"))}
        acc, prod, lo_out, packed = (self.m[6], self.m[7], self.m[8],
                                     self.m[9])
        c128, rnd64 = self.k[3], self.k[4]
        c179, c227, cm44, cm91 = self.k[5], self.k[6], self.k[7], self.k[8]
        self._load_const(c128, "h128", broadcast_h(128))
        self._load_const(rnd64, "h64", broadcast_h(64))
        self._load_const(c179, "c179", broadcast_h(179))
        self._load_const(c227, "c227", broadcast_h(227))
        self._load_const(cm44, "cm44", broadcast_h(-44))
        self._load_const(cm91, "cm91", broadcast_h(-91))
        self._k_tag = None
        b.li(cnt, n // 8)
        site = b.site()
        for i in range(0, n, 8):
            for k in raw:
                b.m_ldq(raw[k], p[k], i)
                b.punpcklb(h_lo[k], raw[k], self.mzero)
                b.punpckhb(h_hi[k], raw[k], self.mzero)
            for k in ("cb", "cr"):
                b.psubh(h_lo[k], h_lo[k], c128)
                b.psubh(h_hi[k], h_hi[k], c128)
            for name in ("r", "g", "b"):
                for h, halves in ((0, h_lo), (1, h_hi)):
                    if name == "r":
                        b.pmullh(acc, halves["cr"], c179)
                    elif name == "b":
                        b.pmullh(acc, halves["cb"], c227)
                    else:
                        b.pmullh(acc, halves["cb"], cm44)
                        b.pmullh(prod, halves["cr"], cm91)
                        b.paddh(acc, acc, prod)
                    b.paddh(acc, acc, rnd64)
                    b.psrah(acc, acc, 7)
                    b.paddh(acc, acc, halves["y"])
                    if h == 0:
                        b.movq(lo_out, acc)
                b.packushb(packed, lo_out, acc)    # clamps to [0, 255]
                b.m_stq(packed, po[name], i)
            b.subi(cnt, cnt, 1)
            b.bne(cnt, site)
        for reg in list(p.values()) + list(po.values()):
            b.free(reg)

    # -- resampling ----------------------------------------------------------------------------------------

    def downsample2(self, src, w, h, dst) -> None:
        b = self.b
        ps, pd, cnt = self.r[:3]
        x_lo, x_hi, evens, mask = self.m[:4]
        self._load_const(mask, "evenmask", 0x00FF00FF00FF00FF)
        site = b.site()
        b.li(cnt, h // 2)
        for y in range(0, h, 2):
            b.li(ps, src + y * w)
            b.li(pd, dst + (y // 2) * (w // 2))
            for x in range(0, w, 16):
                b.m_ldq(x_lo, ps, x)
                b.m_ldq(x_hi, ps, x + 8)
                b.pand(x_lo, x_lo, mask)
                b.pand(x_hi, x_hi, mask)
                b.packushb(evens, x_lo, x_hi)
                b.m_stq(evens, pd, x // 2)
            b.subi(cnt, cnt, 1)
            b.bne(cnt, site)

    def upsample2(self, src, w, h, dst) -> None:
        b = self.b
        pi, po0, po1, cnt = self.r[:4]
        x_reg, lo, hi = self.m[:3]
        ow = 2 * w
        site = b.site()
        b.li(cnt, h)
        for y in range(h):
            b.li(pi, src + y * w)
            b.li(po0, dst + (2 * y) * ow)
            b.li(po1, dst + (2 * y + 1) * ow)
            for x in range(0, w, 8):
                b.m_ldq(x_reg, pi, x)
                b.punpcklb(lo, x_reg, x_reg)
                b.punpckhb(hi, x_reg, x_reg)
                b.m_stq(lo, po0, 2 * x)
                b.m_stq(hi, po0, 2 * x + 8)
                b.m_stq(lo, po1, 2 * x)
                b.m_stq(hi, po1, 2 * x + 8)
            b.subi(cnt, cnt, 1)
            b.bne(cnt, site)

    # -- dot products --------------------------------------------------------------------------------------------

    def dot16(self, a, c, n, out) -> None:
        b = self.b
        pa, pc = self.r[:2]
        mw, md, prod, acc = self.m[:4]
        b.li(pa, a)
        b.li(pc, c)
        b.pxor(acc, acc, acc)
        for w in range(0, n, 4):
            b.m_ldq(mw, pa, 2 * w)
            b.m_ldq(md, pc, 2 * w)
            b.pmaddh(prod, mw, md)
            b.paddw(acc, acc, prod)
        b.psrlq(prod, acc, 32)
        b.paddw(acc, acc, prod)
        b.movd_from(out, acc)
        b.sll(out, out, 32)
        b.sra(out, out, 32)


class MomStages(ScalarStages):
    """MOM-vectorized application stages (matrix registers + VL)."""

    isa = "mom"

    def __init__(self, b) -> None:
        super().__init__(b)
        self.m = [b.mreg() for _ in range(7)]
        self.k = [b.mreg() for _ in range(8)]
        self.mzero = b.mreg()
        b.momzero(self.mzero)
        self.acc = b.areg()
        self.acc2 = b.areg()
        self.stride_reg = b.ireg()
        self._scratch_t1 = b.mem.alloc(8 * 8 * 2)
        self._scratch_t2 = b.mem.alloc(8 * 8 * 2)
        self._const_addrs: dict[str, int] = {}

    def _stride(self, value: int):
        self.b.li(self.stride_reg, value)
        return self.stride_reg

    def _mom_consts(self, key: str, mat: np.ndarray) -> int:
        if key not in self._const_addrs:
            self._const_addrs[key] = self.b.mem.alloc_array(
                mom_broadcast_words(mat))
        return self._const_addrs[key]

    # -- motion estimation ---------------------------------------------------------

    def sad16(self, ref_addr, ref_stride, blk_addr, blk_stride, out):
        b = self.b
        pa, pb = self.r[:2]
        a_lo, a_hi, c_lo, c_hi = self.m[:4]
        b.setvli(BLOCK16)
        b.li(pa, ref_addr)
        b.li(pb, blk_addr)
        stride_a = self._stride(ref_stride)
        b.momldq(a_lo, pa, stride_a)
        b.addi(pa, pa, 8)
        b.momldq(a_hi, pa, stride_a)
        stride_b = self._stride(blk_stride)
        b.momldq(c_lo, pb, stride_b)
        b.addi(pb, pb, 8)
        b.momldq(c_hi, pb, stride_b)
        b.clracc(self.acc)
        b.mommsadb(self.acc, a_lo, c_lo)
        b.mommsadb(self.acc, a_hi, c_hi)
        b.racl(out, self.acc, _E.Q)
        return out

    def motion_search(self, candidates, ref_stride, blk_addr, blk_stride):
        """Block columns live in two matrix registers across the whole
        candidate walk -- the register-capacity advantage of 2D registers."""
        b = self.b
        pa, pb = self.r[:2]
        s, tmp, cand = self.r[7], self.r[8], self.r[9]
        a_lo, a_hi, c_lo, c_hi = self.m[:4]
        best, besti = b.ireg(1 << 30), b.ireg(0)
        b.setvli(BLOCK16)
        b.li(pb, blk_addr)
        stride_b = self._stride(blk_stride)
        b.momldq(c_lo, pb, stride_b)
        b.addi(pb, pb, 8)
        b.momldq(c_hi, pb, stride_b)
        stride_a = self._stride(ref_stride)
        for index, addr in enumerate(candidates):
            b.li(pa, addr)
            b.momldq(a_lo, pa, stride_a)
            b.addi(pa, pa, 8)
            b.momldq(a_hi, pa, stride_a)
            b.clracc(self.acc)
            b.mommsadb(self.acc, a_lo, c_lo)
            b.mommsadb(self.acc, a_hi, c_hi)
            b.racl(s, self.acc, _E.Q)
            emit_track_min(b, s, best, besti, tmp, cand, index)
        winner = int(besti.value)
        b.free(best)
        b.free(besti)
        return winner

    # -- block movement ---------------------------------------------------------------

    def copy_block(self, src, sstride, dst, dstride, h, w) -> None:
        b = self.b
        ps, pd = self.r[:2]
        v = self.m[0]
        b.setvli(h)
        for x in range(0, w, 8):
            b.li(ps, src + x)
            b.momldq(v, ps, self._stride(sstride))
            b.li(pd, dst + x)
            b.momstq(v, pd, self._stride(dstride))

    def avg_block(self, a, astride, c, cstride, dst, dstride, h, w) -> None:
        b = self.b
        pa, pc, pd = self.r[:3]
        va, vc = self.m[:2]
        b.setvli(h)
        for x in range(0, w, 8):
            b.li(pa, a + x)
            b.momldq(va, pa, self._stride(astride))
            b.li(pc, c + x)
            b.momldq(vc, pc, self._stride(cstride))
            b.pavgb(va, va, vc)
            b.li(pd, dst + x)
            b.momstq(va, pd, self._stride(dstride))

    # -- residual / reconstruction ------------------------------------------------------

    def residual8(self, cur, cstride, pred, pstride, dst) -> None:
        b = self.b
        pc, pp, pd = self.r[:3]
        vc, vp, c_lo, c_hi, p_lo, p_hi = self.m[:6]
        b.setvli(N)
        b.li(pc, cur)
        b.momldq(vc, pc, self._stride(cstride))
        b.li(pp, pred)
        b.momldq(vp, pp, self._stride(pstride))
        b.punpcklb(c_lo, vc, self.mzero)
        b.punpckhb(c_hi, vc, self.mzero)
        b.punpcklb(p_lo, vp, self.mzero)
        b.punpckhb(p_hi, vp, self.mzero)
        b.psubh(c_lo, c_lo, p_lo)
        b.psubh(c_hi, c_hi, p_hi)
        b.li(pd, dst)
        b.momstq(c_lo, pd, self._stride(2 * N))
        b.li(pd, dst + 8)
        b.momstq(c_hi, pd, self._stride(2 * N))

    def addblock8(self, pred, pstride, resid, dst, dstride) -> None:
        b = self.b
        pp, pr, pd = self.r[:3]
        vp, p_lo, p_hi, r_lo, r_hi = self.m[:5]
        b.setvli(N)
        b.li(pp, pred)
        b.momldq(vp, pp, self._stride(pstride))
        b.punpcklb(p_lo, vp, self.mzero)
        b.punpckhb(p_hi, vp, self.mzero)
        b.li(pr, resid)
        b.momldq(r_lo, pr, self._stride(2 * N))
        b.li(pr, resid + 8)
        b.momldq(r_hi, pr, self._stride(2 * N))
        b.paddh(p_lo, p_lo, r_lo)
        b.paddh(p_hi, p_hi, r_hi)
        b.packushb(vp, p_lo, p_hi)
        b.li(pd, dst)
        b.momstq(vp, pd, self._stride(dstride))

    # -- transforms ------------------------------------------------------------------------

    def transform8(self, src: int, dst: int, mat: np.ndarray,
                   clamp: bool) -> None:
        b = self.b
        key = f"mom_{int(mat[0][0])}_{int(mat[0][1])}_{int(mat[1][0])}"
        kaddr = self._mom_consts(key, mat)
        base, tmp_int, swap = self.r[:3]
        left, right, rac, cmin, cmax = self.m[:5]
        accs = (self.acc, self.acc2)
        b.setvli(N)
        if getattr(self, "_k_tag", None) != key:
            # Constant matrices stay resident across calls with the same
            # transform; stages that borrow k registers clear the tag.
            for x in range(N):
                b.li(base, kaddr + x * N * 8)
                b.momldq(self.k[x], base, self._stride(8))
            self._k_tag = key

        def column_pass(shift, out_base):
            """One matrix-accumulate per output row, ping-ponging both
            architectural accumulators so two row chains overlap; results
            stream to memory row-by-row through ``momstrow``."""
            for ci, half_in in enumerate((left, right)):
                for x in range(N):
                    acc = accs[x % 2]
                    b.clracc(acc)
                    b.pmaddah(acc, half_in, self.k[x])
                    b.raccsh(rac, acc, shift=shift)
                    b.li(base, out_base + x * 2 * N + ci * 8)
                    b.momstrow(rac, base, 0)

        def load_pair(addr):
            b.li(base, addr)
            b.momldq(left, base, self._stride(2 * N))
            b.li(base, addr + 8)
            b.momldq(right, base, self._stride(2 * N))

        def body():
            load_pair(src)
            column_pass(PASS1_SHIFT, self._scratch_t1)
            load_pair(self._scratch_t1)
            emit_mom_transpose(b, left, right, tmp_int, swap)
            column_pass(PASS2_SHIFT, self._scratch_t2)
            load_pair(self._scratch_t2)
            emit_mom_transpose(b, left, right, tmp_int, swap)
            if clamp:
                if "clamp" not in self._const_addrs:
                    self._const_addrs["clamp"] = b.mem.alloc_array(
                        mom_clamp_words())
                b.li(base, self._const_addrs["clamp"])
                b.momldq(cmin, base, self._stride(8))
                b.li(base, self._const_addrs["clamp"] + N * 8)
                b.momldq(cmax, base, self._stride(8))
                for reg in (left, right):
                    b.pmaxsh(reg, reg, cmin)
                    b.pminsh(reg, reg, cmax)
            b.li(base, dst)
            b.momstq(left, base, self._stride(2 * N))
            b.li(base, dst + 8)
            b.momstq(right, base, self._stride(2 * N))

        # Replayed by re-running after the resident constants (DESIGN.md
        # section 5); the alignments of src and dst pick the load and
        # store opcodes.
        replay_body(b, ("mom_transform8", clamp, src & 7, dst & 7),
                    (base, tmp_int, swap, self.stride_reg, *self.m[:5],
                     *accs, *self.k), body)

    # -- quantization ---------------------------------------------------------------------------

    def quant8(self, addr: int) -> None:
        b = self.b
        p = self.r[0]
        x, neg, q, mask = self.m[:4]
        b.setvli(N)
        for half in (0, 8):
            b.li(p, addr + half)
            b.momldq(x, p, self._stride(2 * N))
            b.psubh(neg, self.mzero, x)
            b.pmaxsh(q, x, neg)
            b.psrlh(q, q, QUANT_SHIFT)
            b.pcmpgth(mask, self.mzero, x)
            b.pxor(q, q, mask)
            b.psubh(q, q, mask)
            b.momstq(q, p, self._stride(2 * N))

    def dequant8(self, addr: int) -> None:
        b = self.b
        p = self.r[0]
        x = self.m[0]
        b.setvli(N)
        for half in (0, 8):
            b.li(p, addr + half)
            b.momldq(x, p, self._stride(2 * N))
            b.psllh(x, x, QUANT_SHIFT)
            b.momstq(x, p, self._stride(2 * N))

    # -- colour conversion ------------------------------------------------------------------------

    def rgb2ycc(self, r, g, bb, y, cb, cr, n) -> None:
        """VL=3 colour-dimension vectorization, as the paper describes."""
        b = self.b
        if g - r != n or bb - g != n:
            raise ValueError("MOM rgb2ycc expects contiguous equal planes")
        if "rgbycc" not in self._const_addrs:
            words = []
            for _name, kr, kg, kb, _bias in RGB2YCC:
                for coef in (kr, kg, kb):
                    words.append(broadcast_h(coef))
            words.append(broadcast_h(128))
            self._const_addrs["rgbycc"] = b.mem.alloc_array(
                np.asarray(words, dtype=np.uint64)
            )
        caddr = self._const_addrs["rgbycc"]
        addr = self.r[0]
        cmat = {}
        self._k_tag = None
        b.setvli(3)
        for ci, (name, *_rest) in enumerate(RGB2YCC):
            b.li(addr, caddr + ci * 3 * 8)
            b.momldq(self.k[ci], addr, self._stride(8))
            cmat[name] = self.k[ci]
        bias_reg = self.k[3]
        b.setvli(1)
        b.li(addr, caddr + 9 * 8)
        b.momldq(bias_reg, addr, self._stride(8))

        rgb, lo, hi, lo_out, hi_out, packed = self.m[:6]
        po = {name: b.ireg(a) for name, a in (("y", y), ("cb", cb), ("cr", cr))}
        cnt = self.r[1]
        b.li(cnt, n // 8)
        site = b.site()
        for i in range(0, n, 8):
            b.setvli(3)
            b.li(addr, r + i)
            b.momldq(rgb, addr, self._stride(n))
            b.punpcklb(lo, rgb, self.mzero)
            b.punpckhb(hi, rgb, self.mzero)
            for name, kr, kg, kb, bias in RGB2YCC:
                for half, out_reg in ((lo, lo_out), (hi, hi_out)):
                    b.setvli(3)
                    b.clracc(self.acc)
                    b.pmaddah(self.acc, half, cmat[name])
                    if bias:
                        b.raccsh(out_reg, self.acc, shift=8)
                        b.setvli(1)
                        b.paddh(out_reg, out_reg, bias_reg)
                    else:
                        b.raccuh(out_reg, self.acc, shift=8)
                b.setvli(1)
                b.packushb(packed, lo_out, hi_out)
                b.momstrow(packed, po[name], 0, offset=i)
            b.subi(cnt, cnt, 1)
            b.bne(cnt, site)
        for reg in po.values():
            b.free(reg)

    def ycc2rgb(self, y, cb, cr, r, g, bb, n) -> None:
        """Pixel-row vectorization: VL=8 rows of 8 pixels per iteration."""
        b = self.b
        keys = ("c128", "c64", "c179", "c227", "cm44", "cm91")
        values = (128, 64, 179, 227, -44, -91)
        for key, val in zip(keys, values):
            name = "ycc_" + key
            if name not in self._const_addrs:
                self._const_addrs[name] = b.mem.alloc_array(
                    np.asarray([broadcast_h(val)] * 16, dtype=np.uint64)
                )
        addr = self.r[0]
        consts = {}
        self._k_tag = None
        b.setvli(8)
        for idx, key in enumerate(keys):
            reg = self.k[idx]
            b.li(addr, self._const_addrs["ycc_" + key])
            b.momldq(reg, addr, self._stride(8))
            consts[key] = reg
        wk = self.k[6]
        vy, vcb, vcr, hy, hc, acc_m, keep = self.m[:7]
        outp = {k: b.ireg(v) for k, v in (("r", r), ("g", g), ("b", bb))}

        for i in range(0, n, 64):
            b.setvli(8)
            b.li(addr, y + i)
            b.momldq(vy, addr, self._stride(8))
            b.li(addr, cb + i)
            b.momldq(vcb, addr, self._stride(8))
            b.li(addr, cr + i)
            b.momldq(vcr, addr, self._stride(8))
            for name in ("r", "g", "b"):
                for part in (0, 1):
                    unpack = b.punpcklb if part == 0 else b.punpckhb
                    unpack(hy, vy, self.mzero)
                    if name == "r":
                        unpack(hc, vcr, self.mzero)
                        b.psubh(hc, hc, consts["c128"])
                        b.pmullh(acc_m, hc, consts["c179"])
                    elif name == "b":
                        unpack(hc, vcb, self.mzero)
                        b.psubh(hc, hc, consts["c128"])
                        b.pmullh(acc_m, hc, consts["c227"])
                    else:
                        unpack(hc, vcb, self.mzero)
                        b.psubh(hc, hc, consts["c128"])
                        b.pmullh(acc_m, hc, consts["cm44"])
                        unpack(wk, vcr, self.mzero)
                        b.psubh(wk, wk, consts["c128"])
                        b.pmullh(wk, wk, consts["cm91"])
                        b.paddh(acc_m, acc_m, wk)
                    b.paddh(acc_m, acc_m, consts["c64"])
                    b.psrah(acc_m, acc_m, 7)
                    b.paddh(acc_m, acc_m, hy)
                    if part == 0:
                        b.mommov(keep, acc_m)
                b.packushb(acc_m, keep, acc_m)     # clamps to [0, 255]
                b.momstq(acc_m, outp[name], self._stride(8))
            for reg in outp.values():
                b.addi(reg, reg, 64)
        for reg in outp.values():
            b.free(reg)

    # -- resampling -----------------------------------------------------------------------------------

    def downsample2(self, src, w, h, dst) -> None:
        b = self.b
        ps, pd = self.r[:2]
        x_lo, x_hi, evens, mask = self.m[:4]
        if "evenmask16" not in self._const_addrs:
            self._const_addrs["evenmask16"] = b.mem.alloc_array(
                np.asarray([0x00FF00FF00FF00FF] * 16, dtype=np.uint64)
            )
        rows = min(8, h // 2)
        b.setvli(rows)
        b.li(ps, self._const_addrs["evenmask16"])
        b.momldq(mask, ps, self._stride(8))
        for y0 in range(0, h, 2 * rows):
            for x in range(0, w, 16):
                b.li(ps, src + y0 * w + x)
                b.momldq(x_lo, ps, self._stride(2 * w))
                b.li(ps, src + y0 * w + x + 8)
                b.momldq(x_hi, ps, self._stride(2 * w))
                b.pand(x_lo, x_lo, mask)
                b.pand(x_hi, x_hi, mask)
                b.packushb(evens, x_lo, x_hi)
                b.li(pd, dst + (y0 // 2) * (w // 2) + x // 2)
                b.momstq(evens, pd, self._stride(w // 2))

    def upsample2(self, src, w, h, dst) -> None:
        b = self.b
        pi, po = self.r[:2]
        x_reg, lo, hi = self.m[:3]
        ow = 2 * w
        rows = min(8, h)
        b.setvli(rows)
        for y0 in range(0, h, rows):
            for x in range(0, w, 8):
                b.li(pi, src + y0 * w + x)
                b.momldq(x_reg, pi, self._stride(w))
                b.punpcklb(lo, x_reg, x_reg)
                b.punpckhb(hi, x_reg, x_reg)
                for parity in (0, 1):
                    obase = dst + (2 * y0 + parity) * ow + 2 * x
                    b.li(po, obase)
                    b.momstq(lo, po, self._stride(2 * ow))
                    b.li(po, obase + 8)
                    b.momstq(hi, po, self._stride(2 * ow))

    # -- dot products ------------------------------------------------------------------------------------

    def dot16(self, a, c, n, out) -> None:
        b = self.b
        pa, pc = self.r[:2]
        mw, md = self.m[:2]
        b.clracc(self.acc)
        for base in range(0, n, 64):
            words = min(16, (n - base) // 4)
            b.setvli(words)
            b.li(pa, a + 2 * base)
            b.momldq(mw, pa, self._stride(8))
            b.li(pc, c + 2 * base)
            b.momldq(md, pc, self._stride(8))
            b.mommvmh(self.acc, mw, md)
        b.racl(out, self.acc, _E.Q)
