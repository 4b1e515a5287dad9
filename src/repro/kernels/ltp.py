"""ltpparameters: GSM 06.10 long-term-predictor parameter search.

For every candidate lag in the GSM window, cross-correlate the weighted
short-term residual ``wt[0..39]`` against the reconstructed history
``dp[k - lag]`` and select the lag with the maximum correlation -- the
hottest loop of the GSM encoder.

ISA notes: MMX uses ``pmaddh`` (no data promotion needed for 16-bit audio);
MDMX accumulates with ``pmaddah`` and pays the rac/punpck read-out per lag;
MOM loads both 40-sample windows as VL=10 matrices and reduces the whole
cross-correlation with **one** ``mommvmh`` matrix-dot instruction per lag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..emulib.alpha_builder import AlphaBuilder, emit_track_max
from ..emulib.base_builder import replay_body
from ..emulib.mdmx_builder import MdmxBuilder
from ..emulib.mmx_builder import MmxBuilder
from ..emulib.mom_builder import MomBuilder
from ..isa.model import ElemType
from .common import BuiltKernel, KernelSpec, register, rng_for

SUBFRAME = 40          # samples cross-correlated per lag
WORDS = SUBFRAME // 4  # 10 packed halfword words
MIN_LAG = 40


@dataclass
class LtpWorkload:
    """Weighted residual window and reconstructed-history buffer."""

    wt: np.ndarray        # (40,) int16
    dp: np.ndarray        # history, indexed dp[len - lag + k]
    lags: list[int]


def make_workload(scale: int = 1) -> LtpWorkload:
    rng = rng_for("ltp", scale)
    n_lags = 8 * max(1, scale)
    lags = [MIN_LAG + i for i in range(n_lags)]
    # 13-bit speech-like samples keep pmaddh pair sums inside 32 bits.
    wt = (rng.normal(0, 600, SUBFRAME)).clip(-2048, 2047).astype(np.int16)
    history_len = max(lags) + SUBFRAME + 8
    dp = (rng.normal(0, 600, history_len)).clip(-2048, 2047).astype(np.int16)
    return LtpWorkload(wt=wt, dp=dp, lags=lags)


def golden(workload: LtpWorkload) -> dict[str, np.ndarray]:
    wt = workload.wt.astype(np.int64)
    dp = workload.dp.astype(np.int64)
    base = len(workload.dp)
    corrs = []
    for lag in workload.lags:
        window = dp[base - lag : base - lag + SUBFRAME]
        corrs.append(int((wt * window).sum()))
    corrs = np.asarray(corrs, dtype=np.int64)
    return {"correlations": corrs, "best": np.asarray([int(np.argmax(corrs))])}


def _outputs(corrs: list[int], best: int) -> dict[str, np.ndarray]:
    return {
        "correlations": np.asarray(corrs, dtype=np.int64),
        "best": np.asarray([best]),
    }


def _window_addr(dp_addr: int, dp_len: int, lag: int) -> int:
    return dp_addr + 2 * (dp_len - lag)


def emit_alpha_dot(b, n: int, out, regs, site: int) -> None:
    """``out`` = dot product of the ``n`` int16 samples at ``pa`` and
    ``pc``, unrolled by four with one loop branch per four samples.

    ``regs`` is ``(pa, pc, va, vc, prod, cnt)``; the caller points ``pa``
    and ``pc`` at the two vectors.  Replayed by re-running, keyed by
    ``n`` (DESIGN.md section 5).
    """
    pa, pc, va, vc, prod, cnt = regs

    def body():
        b.li(out, 0)
        b.li(cnt, n // 4)
        for k in range(n):
            b.ldwu(va, pa, 2 * k)
            b.sextw(va, va)
            b.ldwu(vc, pc, 2 * k)
            b.sextw(vc, vc)
            b.mulq(prod, va, vc)
            b.addq(out, out, prod)
            if k % 4 == 3:
                b.subi(cnt, cnt, 1)
                b.bne(cnt, site)

    replay_body(b, ("alpha_dot", n), (*regs, out), body)


def _build_alpha(workload: LtpWorkload) -> BuiltKernel:
    b = AlphaBuilder()
    wt_addr = b.mem.alloc_array(workload.wt)
    dp_addr = b.mem.alloc_array(workload.dp)

    pw, pd = b.ireg(wt_addr), b.ireg()
    vw, vd, prod, s = b.ireg(), b.ireg(), b.ireg(), b.ireg()
    best, besti, tmp, cand = b.ireg(-(1 << 62)), b.ireg(0), b.ireg(), b.ireg()
    cnt = b.ireg()
    site = b.site()

    corrs = []
    for index, lag in enumerate(workload.lags):
        b.li(pd, _window_addr(dp_addr, len(workload.dp), lag))
        emit_alpha_dot(b, SUBFRAME, s, (pw, pd, vw, vd, prod, cnt), site)
        corrs.append(s.value)
        emit_track_max(b, s, best, besti, tmp, cand, index)
    return BuiltKernel(builder=b, outputs=_outputs(corrs, besti.value))


def _build_mmx(workload: LtpWorkload) -> BuiltKernel:
    b = MmxBuilder()
    wt_addr = b.mem.alloc_array(workload.wt)
    dp_addr = b.mem.alloc_array(workload.dp)

    pw, pd, s = b.ireg(wt_addr), b.ireg(), b.ireg()
    best, besti, tmp, cand = b.ireg(-(1 << 62)), b.ireg(0), b.ireg(), b.ireg()
    mw, md, prod, acc = b.mreg(), b.mreg(), b.mreg(), b.mreg()
    cnt = b.ireg()
    site = b.site()

    corrs = []
    for index, lag in enumerate(workload.lags):
        b.li(pd, _window_addr(dp_addr, len(workload.dp), lag))
        b.pxor(acc, acc, acc)
        b.li(cnt, WORDS // 5)
        for w in range(WORDS):
            b.m_ldq(mw, pw, 8 * w)
            b.m_ldq(md, pd, 8 * w)
            b.pmaddh(prod, mw, md)
            b.paddw(acc, acc, prod)
            if w % 5 == 4:
                b.subi(cnt, cnt, 1)
                b.bne(cnt, site)
        b.psrlq(prod, acc, 32)
        b.paddw(acc, acc, prod)
        b.movd_from(s, acc)
        b.sll(s, s, 32)
        b.sra(s, s, 32)          # sign-extend the 32-bit correlation
        corrs.append(s.value)
        emit_track_max(b, s, best, besti, tmp, cand, index)
    return BuiltKernel(builder=b, outputs=_outputs(corrs, besti.value))


def _build_mdmx(workload: LtpWorkload) -> BuiltKernel:
    b = MdmxBuilder()
    wt_addr = b.mem.alloc_array(workload.wt)
    dp_addr = b.mem.alloc_array(workload.dp)

    pw, pd, s = b.ireg(wt_addr), b.ireg(), b.ireg()
    best, besti, tmp, cand = b.ireg(-(1 << 62)), b.ireg(0), b.ireg(), b.ireg()
    mw, md = b.mreg(), b.mreg()
    lo, mid, w01, w23 = b.mreg(), b.mreg(), b.mreg(), b.mreg()
    accs = [b.areg() for _ in range(2)]
    cnt = b.ireg()
    site = b.site()

    corrs = []
    for index, lag in enumerate(workload.lags):
        b.li(pd, _window_addr(dp_addr, len(workload.dp), lag))
        for acc in accs:
            b.clracc(acc)
        b.li(cnt, WORDS // 5)
        for w in range(WORDS):
            b.m_ldq(mw, pw, 8 * w)
            b.m_ldq(md, pd, 8 * w)
            b.pmaddah(accs[w % 2], mw, md)
            if w % 5 == 4:
                b.subi(cnt, cnt, 1)
                b.bne(cnt, site)
        b.li(s, 0)
        for acc in accs:
            # Reassemble the signed 48-bit lanes' low 32 bits and tree-sum.
            b.racl(lo, acc, ElemType.H)
            b.racm(mid, acc, ElemType.H)
            b.punpcklh(w01, lo, mid)
            b.punpckhh(w23, lo, mid)
            b.paddw(w01, w01, w23)
            b.psrlq(w23, w01, 32)
            b.paddw(w01, w01, w23)
            b.movd_from(tmp, w01)
            b.sll(tmp, tmp, 32)
            b.sra(tmp, tmp, 32)
            b.addq(s, s, tmp)
        corrs.append(s.value)
        emit_track_max(b, s, best, besti, tmp, cand, index)
    return BuiltKernel(builder=b, outputs=_outputs(corrs, besti.value))


def _build_mom(workload: LtpWorkload) -> BuiltKernel:
    b = MomBuilder()
    wt_addr = b.mem.alloc_array(workload.wt)
    dp_addr = b.mem.alloc_array(workload.dp)

    pw, pd, s = b.ireg(wt_addr), b.ireg(), b.ireg()
    stride8 = b.ireg(8)
    best, besti, tmp, cand = b.ireg(-(1 << 62)), b.ireg(0), b.ireg(), b.ireg()
    mw, md = b.mreg(), b.mreg()
    acc = b.areg()

    b.setvli(WORDS)
    b.momldq(mw, pw, stride8)      # wt never changes: loaded once

    corrs = []
    for index, lag in enumerate(workload.lags):
        b.li(pd, _window_addr(dp_addr, len(workload.dp), lag))
        b.momldq(md, pd, stride8)
        b.clracc(acc)
        b.mommvmh(acc, mw, md)     # one matrix dot = the whole correlation
        b.racl(s, acc, ElemType.Q)
        corrs.append(s.value)
        emit_track_max(b, s, best, besti, tmp, cand, index)
    return BuiltKernel(builder=b, outputs=_outputs(corrs, besti.value))


register(KernelSpec(
    name="ltpparameters",
    description="GSM long-term predictor lag search (cross-correlation)",
    make_workload=make_workload,
    golden=golden,
    builders={
        "alpha": _build_alpha,
        "mmx": _build_mmx,
        "mdmx": _build_mdmx,
        "mom": _build_mom,
    },
))
