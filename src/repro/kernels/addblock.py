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

import struct
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ..emulib.alpha_builder import AlphaBuilder, reads_written
from ..emulib.base_builder import replay, wrap64
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


def _addblock_body(b, pred: int, pstride: int, resid: int, dst: int,
                   dstride: int, tab, regs, site: int) -> None:
    """:func:`emit_alpha_addblock` one instruction at a time: what its
    first call with given registers records, and the oracle its replay
    is tested against."""
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


#: The row loop's branch is taken after every row but the last.
_ROW_TAKEN = (True,) * (N - 1) + (False,)
_U64 = (1 << 64) - 1


def emit_alpha_addblock(b, pred: int, pstride: int, resid: int, dst: int,
                        dstride: int, tab, regs, site: int) -> None:
    """``dst = clamp(pred + resid)`` over one 8x8 block, the clamp a
    dependent load from the table ``tab`` points into (at its bias).

    ``regs`` is ``(pp, pr, pd, vp, vr, idx, rows)``.

    Replayed: the rows do not depend on data -- the clamp's table address
    is a per-call field, and the row loop's branch outcomes are fixed --
    so the first call with given registers runs :func:`_addblock_body`
    and records its rows, and every later call reads the prediction rows,
    the residuals and the table bytes it indexes, stores the clamped
    rows and appends the recorded rows (DESIGN.md section 5).  A call in
    which a load would read a byte an earlier store of the call wrote
    runs the body; one storing in place (``dst`` at ``pred``, same
    stride) still replays: each pixel reads its own byte before it
    stores it.
    """
    def body():
        _addblock_body(b, pred, pstride, resid, dst, dstride, tab, regs,
                       site)

    read = b.mem.read_block
    pred_rows = [(pred + r * pstride) & _U64 for r in range(N)]
    dst_rows = [(dst + r * dstride) & _U64 for r in range(N)]
    res = resid & _U64
    # The prediction and residual loads are read up front: the table
    # addresses, and so the check for loads of stored bytes, need them.
    pixels = [read(a, N) for a in pred_rows]
    terms = struct.unpack(f"<{N * N}h", read(res, 2 * N * N))
    base = wrap64(tab.value)
    sums = [p + r for p, r in zip(chain.from_iterable(pixels), terms)]
    table = [(base + v) & _U64 for v in sums]
    # Per pixel: its prediction byte, residual and table byte loads, then
    # its store.
    loads = [(a, res + 2 * k, res + 2 * k + 1, t) for k, (a, t) in enumerate(
        zip([p + i for p in pred_rows for i in range(N)], table))]
    stores = [(d + i,) for d in dst_rows for i in range(N)]
    if reads_written(loads, stores):
        body()
        return
    skeleton = replay(b, ("alpha_addblock",), (*regs, tab), body)
    if skeleton is None:
        return
    lo, hi = min(table), max(table)
    span = read(lo, hi - lo + 1)
    out = [span[t - lo] for t in table]
    for r, d in enumerate(dst_rows):
        b.mem.write_block(d, bytes(out[N * r:N * r + N]))
    addrs = []
    for (p, r, _r1, t), (d,) in zip(loads, stores):
        addrs += (p, r, t, d)
    b.trace.emit_skeleton(skeleton, addrs, _ROW_TAKEN, site)
    pp, pr, pd, vp, vr, idx, rows = regs
    pp.value = wrap64(pred + N * pstride)
    pr.value = wrap64(resid + 2 * N * N)
    pd.value = wrap64(dst + N * dstride)
    vp.value, vr.value = out[-1], terms[-1]
    idx.value = wrap64(base + sums[-1])
    rows.value = 0


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
