"""compensation: MPEG-2 bidirectional motion compensation.

Averages a forward and a backward 16x16 reference block with rounding:
``pred[i] = (fwd[i] + bwd[i] + 1) >> 1``.  The reference blocks sit at
arbitrary (usually unaligned) positions inside the frame, so the media
versions exercise the unaligned-load path; the scalar version does the add,
round and shift per pixel.

This is the ideal vector-average workload: MMX/MDMX retire 8 pixels per
``pavgb``, MOM retires 128 pixels per ``pavgb`` at VL=16.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..emulib.alpha_builder import AlphaBuilder
from ..emulib.mdmx_builder import MdmxBuilder
from ..emulib.mmx_builder import MmxBuilder
from ..emulib.mom_builder import MomBuilder
from .common import BuiltKernel, KernelSpec, register, rng_for

BLOCK = 16


@dataclass
class CompensationWorkload:
    """Frame plus (fwd, bwd, dst) block positions to compensate."""

    frame: np.ndarray                       # (height, width) uint8
    width: int
    blocks: list[tuple[tuple[int, int], tuple[int, int]]]   # (fwd_yx, bwd_yx)


def make_workload(scale: int = 1) -> CompensationWorkload:
    rng = rng_for("compensation", scale)
    width = 64
    count = 4 * max(1, scale)
    height = BLOCK + count + 4
    frame = rng.integers(0, 256, (height, width), dtype=np.uint8)
    blocks = []
    for i in range(count):
        fwd = (int(rng.integers(0, height - BLOCK)),
               int(rng.integers(0, width - BLOCK)))
        bwd = (int(rng.integers(0, height - BLOCK)),
               int(rng.integers(0, width - BLOCK)))
        blocks.append((fwd, bwd))
    return CompensationWorkload(frame=frame, width=width, blocks=blocks)


def golden(workload: CompensationWorkload) -> dict[str, np.ndarray]:
    frame = workload.frame.astype(np.int64)
    preds = []
    for (fy, fx), (by, bx) in workload.blocks:
        f = frame[fy : fy + BLOCK, fx : fx + BLOCK]
        w = frame[by : by + BLOCK, bx : bx + BLOCK]
        preds.append(((f + w + 1) >> 1).astype(np.uint8))
    return {"pred": np.stack(preds)}


def _read_preds(b, out_addr: int, count: int) -> dict[str, np.ndarray]:
    flat = b.mem.load_array(out_addr, np.uint8, count * BLOCK * BLOCK)
    return {"pred": flat.reshape(count, BLOCK, BLOCK)}


def emit_alpha_average(b, a: int, astride: int, c: int, cstride: int,
                       dst: int, dstride: int, h: int, w: int, regs,
                       site: int) -> None:
    """``dst = (a + c + 1) >> 1`` per pixel of an ``h x w`` block, each row
    unrolled, one loop branch per row.

    ``regs`` is ``(pa, pc, pd, va, vc, rows)``.
    """
    pa, pc, pd, va, vc, rows = regs
    b.li(pa, a)
    b.li(pc, c)
    b.li(pd, dst)
    b.li(rows, h)
    for _row in range(h):
        for i in range(w):
            b.ldbu(va, pa, i)
            b.ldbu(vc, pc, i)
            b.addq(va, va, vc)
            b.addi(va, va, 1)
            b.srl(va, va, 1)
            b.stb(va, pd, i)
        b.addi(pa, pa, astride)
        b.addi(pc, pc, cstride)
        b.addi(pd, pd, dstride)
        b.subi(rows, rows, 1)
        b.bne(rows, site)


def _build_alpha(workload: CompensationWorkload) -> BuiltKernel:
    b = AlphaBuilder()
    frame_addr = b.mem.alloc_array(workload.frame)
    out_addr = b.mem.alloc(len(workload.blocks) * BLOCK * BLOCK)
    width = workload.width

    pf, pw, po = b.ireg(), b.ireg(), b.ireg()
    vf, vw = b.ireg(), b.ireg()
    rows = b.ireg()
    site = b.site()

    for n, ((fy, fx), (by, bx)) in enumerate(workload.blocks):
        emit_alpha_average(b, frame_addr + fy * width + fx, width,
                           frame_addr + by * width + bx, width,
                           out_addr + n * BLOCK * BLOCK, BLOCK, BLOCK, BLOCK,
                           (pf, pw, po, vf, vw, rows), site)
    return BuiltKernel(
        builder=b, outputs=_read_preds(b, out_addr, len(workload.blocks))
    )


def _build_packed(workload: CompensationWorkload, builder_cls) -> BuiltKernel:
    """Shared MMX / MDMX implementation (pavgb is in the common subset)."""
    b = builder_cls()
    frame_addr = b.mem.alloc_array(workload.frame)
    out_addr = b.mem.alloc(len(workload.blocks) * BLOCK * BLOCK)
    width = workload.width

    pf, pw, po = b.ireg(), b.ireg(), b.ireg()
    rows = b.ireg()
    f_lo, f_hi, w_lo, w_hi = b.mreg(), b.mreg(), b.mreg(), b.mreg()
    site = b.site()

    for n, ((fy, fx), (by, bx)) in enumerate(workload.blocks):
        b.li(pf, frame_addr + fy * width + fx)
        b.li(pw, frame_addr + by * width + bx)
        b.li(po, out_addr + n * BLOCK * BLOCK)
        b.li(rows, BLOCK // 4)
        for row in range(BLOCK):
            b.m_ldq(f_lo, pf, 0)
            b.m_ldq(f_hi, pf, 8)
            b.m_ldq(w_lo, pw, 0)
            b.m_ldq(w_hi, pw, 8)
            b.pavgb(f_lo, f_lo, w_lo)
            b.pavgb(f_hi, f_hi, w_hi)
            b.m_stq(f_lo, po, 0)
            b.m_stq(f_hi, po, 8)
            b.addi(pf, pf, width)
            b.addi(pw, pw, width)
            b.addi(po, po, BLOCK)
            if row % 4 == 3:
                b.subi(rows, rows, 1)
                b.bne(rows, site)
    return BuiltKernel(
        builder=b, outputs=_read_preds(b, out_addr, len(workload.blocks))
    )


def _build_mom(workload: CompensationWorkload) -> BuiltKernel:
    b = MomBuilder()
    frame_addr = b.mem.alloc_array(workload.frame)
    out_addr = b.mem.alloc(len(workload.blocks) * BLOCK * BLOCK)
    width = workload.width

    pf, pw, po = b.ireg(), b.ireg(), b.ireg()
    frame_stride, out_stride = b.ireg(width), b.ireg(BLOCK)
    f, w = b.mreg(), b.mreg()
    b.setvli(BLOCK)

    for n, ((fy, fx), (by, bx)) in enumerate(workload.blocks):
        for half in (0, 8):
            b.li(pf, frame_addr + fy * width + fx + half)
            b.li(pw, frame_addr + by * width + bx + half)
            b.li(po, out_addr + n * BLOCK * BLOCK + half)
            b.momldq(f, pf, frame_stride)
            b.momldq(w, pw, frame_stride)
            b.pavgb(f, f, w)
            b.momstq(f, po, out_stride)
    return BuiltKernel(
        builder=b, outputs=_read_preds(b, out_addr, len(workload.blocks))
    )


register(KernelSpec(
    name="compensation",
    description="MPEG-2 bidirectional motion compensation (rounded average)",
    make_workload=make_workload,
    golden=golden,
    builders={
        "alpha": _build_alpha,
        "mmx": lambda w: _build_packed(w, MmxBuilder),
        "mdmx": lambda w: _build_packed(w, MdmxBuilder),
        "mom": _build_mom,
    },
))
