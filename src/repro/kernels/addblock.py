"""addblock: MPEG-2 residual addition with saturation.

Adds an IDCT residual block (int16, in [-256, 255]) onto a prediction block
(uint8) and clamps the result to [0, 255].

The scalar reference -- exactly like the mpeg2play code the paper studied --
performs the clamp **through a memory lookup table**, which costs an extra
dependent load per pixel and makes the kernel memory-bound: that is why the
paper observes the plain Alpha version gaining relative performance on wider
machines (Section 4.1's noted exception).  Every media ISA replaces the
table with saturating pack instructions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..emulib.alpha_builder import AlphaBuilder
from ..emulib.mdmx_builder import MdmxBuilder
from ..emulib.mmx_builder import MmxBuilder
from ..emulib.mom_builder import MomBuilder
from .common import BuiltKernel, KernelSpec, register, rng_for

N = 8
#: Clamp table domain: pred + resid is within [-256, 510].
TABLE_BIAS = 256
TABLE_SIZE = 256 + 511


@dataclass
class AddblockWorkload:
    """Prediction blocks inside a frame plus residual blocks."""

    frame: np.ndarray               # (height, width) uint8 predictions
    residuals: np.ndarray           # (count, 8, 8) int16 in [-256, 255]
    positions: list[tuple[int, int]]
    width: int


def make_workload(scale: int = 1) -> AddblockWorkload:
    rng = rng_for("addblock", scale)
    width = 64
    count = 6 * max(1, scale)
    height = N + count + 2
    frame = rng.integers(0, 256, (height, width), dtype=np.uint8)
    residuals = rng.integers(-256, 256, (count, N, N)).astype(np.int16)
    positions = [
        (int(rng.integers(0, height - N)), int(rng.integers(0, (width - N) // 8)) * 8)
        for _ in range(count)
    ]
    return AddblockWorkload(frame=frame, residuals=residuals,
                            positions=positions, width=width)


def golden(workload: AddblockWorkload) -> dict[str, np.ndarray]:
    frame = workload.frame.astype(np.int64)
    outs = []
    for (y, x), resid in zip(workload.positions, workload.residuals):
        pred = frame[y : y + N, x : x + N]
        outs.append(np.clip(pred + resid.astype(np.int64), 0, 255).astype(np.uint8))
    return {"blocks": np.stack(outs)}


def _read_blocks(b, out_addr: int, count: int) -> dict[str, np.ndarray]:
    flat = b.mem.load_array(out_addr, np.uint8, count * N * N)
    return {"blocks": flat.reshape(count, N, N)}


def clamp_table() -> np.ndarray:
    """The saturation memory table, exactly as in mpeg2play's Add_Block:
    entry ``v + TABLE_BIAS`` holds ``clip(v, 0, 255)``."""
    return np.clip(np.arange(TABLE_SIZE) - TABLE_BIAS, 0, 255).astype(np.uint8)


def emit_alpha_addblock(b, pred: int, pstride: int, resid: int, dst: int,
                        dstride: int, tab, regs, site: int) -> None:
    """``dst = clamp(pred + resid)`` over one 8x8 block, the clamp a
    dependent load from the table ``tab`` points into (at its bias).

    ``regs`` is ``(pp, pr, pd, vp, vr, idx, rows)``.
    """
    pp, pr, pd, vp, vr, idx, rows = regs
    b.li(pp, pred)
    b.li(pr, resid)
    b.li(pd, dst)
    b.li(rows, N)
    for _row in range(N):
        for i in range(N):
            b.ldbu(vp, pp, i)
            b.ldwu(vr, pr, 2 * i)
            b.sextw(vr, vr)
            b.addq(vp, vp, vr)
            b.addq(idx, tab, vp)
            b.ldbu(vp, idx, 0)      # dependent table load = the clamp
            b.stb(vp, pd, i)
        b.addi(pp, pp, pstride)
        b.addi(pr, pr, 2 * N)
        b.addi(pd, pd, dstride)
        b.subi(rows, rows, 1)
        b.bne(rows, site)


def _build_alpha(workload: AddblockWorkload) -> BuiltKernel:
    b = AlphaBuilder()
    frame_addr = b.mem.alloc_array(workload.frame)
    resid_addr = b.mem.alloc_array(workload.residuals)
    out_addr = b.mem.alloc(len(workload.positions) * N * N)
    table_addr = b.mem.alloc_array(clamp_table())
    width = workload.width

    pp, pr, po = b.ireg(), b.ireg(), b.ireg()
    tab = b.ireg(table_addr + TABLE_BIAS)
    vp, vr, idx = b.ireg(), b.ireg(), b.ireg()
    rows = b.ireg()
    site = b.site()

    for n, (y, x) in enumerate(workload.positions):
        emit_alpha_addblock(b, frame_addr + y * width + x, width,
                            resid_addr + n * N * N * 2, out_addr + n * N * N,
                            N, tab, (pp, pr, po, vp, vr, idx, rows), site)
    return BuiltKernel(
        builder=b, outputs=_read_blocks(b, out_addr, len(workload.positions))
    )


def emit_packed_addblock(b, pred: int, pstride: int, resid: int, dst: int,
                         dstride: int, zero, regs, site: int) -> None:
    """MMX/MDMX ``dst = clamp(pred + resid)`` over one 8x8 block: unpack,
    ``paddh``, ``packushb``; rows unrolled by four.

    ``regs`` is ``(pp, pr, pd, rows, vp, p_lo, p_hi, r_lo, r_hi)``.
    """
    pp, pr, pd, rows, vp, p_lo, p_hi, r_lo, r_hi = regs
    b.li(pp, pred)
    b.li(pr, resid)
    b.li(pd, dst)
    b.li(rows, N // 4)
    for row in range(N):
        b.m_ldq(vp, pp, 0)
        b.punpcklb(p_lo, vp, zero)
        b.punpckhb(p_hi, vp, zero)
        b.m_ldq(r_lo, pr, 0)
        b.m_ldq(r_hi, pr, 8)
        b.paddh(p_lo, p_lo, r_lo)
        b.paddh(p_hi, p_hi, r_hi)
        b.packushb(vp, p_lo, p_hi)
        b.m_stq(vp, pd, 0)
        b.addi(pp, pp, pstride)
        b.addi(pr, pr, 2 * N)
        b.addi(pd, pd, dstride)
        if row % 4 == 3:
            b.subi(rows, rows, 1)
            b.bne(rows, site)


def _build_packed(workload: AddblockWorkload, builder_cls) -> BuiltKernel:
    """Shared MMX / MDMX implementation: unpack, paddh, packushb."""
    b = builder_cls()
    frame_addr = b.mem.alloc_array(workload.frame)
    resid_addr = b.mem.alloc_array(workload.residuals)
    out_addr = b.mem.alloc(len(workload.positions) * N * N)
    width = workload.width

    pp, pr, po = b.ireg(), b.ireg(), b.ireg()
    rows = b.ireg()
    pred, p_lo, p_hi, r_lo, r_hi, zero = (b.mreg() for _ in range(6))
    b.pxor(zero, zero, zero)
    site = b.site()

    for n, (y, x) in enumerate(workload.positions):
        emit_packed_addblock(b, frame_addr + y * width + x, width,
                             resid_addr + n * N * N * 2, out_addr + n * N * N,
                             N, zero, (pp, pr, po, rows, pred, p_lo, p_hi,
                                       r_lo, r_hi), site)
    return BuiltKernel(
        builder=b, outputs=_read_blocks(b, out_addr, len(workload.positions))
    )


def _build_mom(workload: AddblockWorkload) -> BuiltKernel:
    b = MomBuilder()
    frame_addr = b.mem.alloc_array(workload.frame)
    resid_addr = b.mem.alloc_array(workload.residuals)
    out_addr = b.mem.alloc(len(workload.positions) * N * N)
    width = workload.width

    pp, pr, po = b.ireg(), b.ireg(), b.ireg()
    frame_stride, resid_stride, out_stride = b.ireg(width), b.ireg(2 * N), b.ireg(N)
    pred, p_lo, p_hi, r_lo, r_hi, zero = (b.mreg() for _ in range(6))
    b.setvli(N)
    b.momzero(zero)

    for n, (y, x) in enumerate(workload.positions):
        b.li(pp, frame_addr + y * width + x)
        b.li(pr, resid_addr + n * N * N * 2)
        b.li(po, out_addr + n * N * N)
        b.momldq(pred, pp, frame_stride)
        b.punpcklb(p_lo, pred, zero)
        b.punpckhb(p_hi, pred, zero)
        b.momldq(r_lo, pr, resid_stride)
        b.addi(pr, pr, 8)
        b.momldq(r_hi, pr, resid_stride)
        b.paddh(p_lo, p_lo, r_lo)
        b.paddh(p_hi, p_hi, r_hi)
        b.packushb(pred, p_lo, p_hi)
        b.momstq(pred, po, out_stride)
    return BuiltKernel(
        builder=b, outputs=_read_blocks(b, out_addr, len(workload.positions))
    )


register(KernelSpec(
    name="addblock",
    description="MPEG-2 residual addition with saturation (table vs packed)",
    make_workload=make_workload,
    golden=golden,
    builders={
        "alpha": _build_alpha,
        "mmx": lambda w: _build_packed(w, MmxBuilder),
        "mdmx": lambda w: _build_packed(w, MdmxBuilder),
        "mom": _build_mom,
    },
))
