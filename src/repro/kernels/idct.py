"""idct: 8x8 inverse discrete cosine transform (MPEG-2 / JPEG style).

Fixed-point separable IDCT, bit-exact across all four ISA versions:

* constants ``M[x][u] = round(2^14 * c_u/2 * cos((2x+1)u*pi/16))``,
* column pass: ``t = clip_i16((M . X + 1024) >> 11)``,
* row pass:    ``y = clip(-256, 255, clip_i16((t . M^T + 65536) >> 17))``.

ISA notes:

* **alpha** -- straight triple loop with constants materialized by ``lda``;
  this is what late-90s compilers produced for the reference C code.
* **mmx / mdmx** -- the AP-922 style approach: both passes become *row*
  transforms with ``pmaddh`` on pair-interleaved constants, connected by
  8x8 halfword transposes built from ``punpck`` -- the pack/unpack overhead
  Section 2 blames on 1D SIMD ISAs.  MDMX shares the MMX code path (its
  accumulators do not help a transform whose reductions are pair-wise).
* **mom** -- the column pass falls out of the matrix register naturally:
  one ``pmaddah`` (VL=8) per output row against a broadcast-constant
  matrix, read out by ``raccsh`` with built-in round/shift/saturate; the
  transpose between passes uses ``momtransh`` plus quadrant swaps.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import partial
from operator import mul

import numpy as np

from ..emulib.alpha_builder import AlphaBuilder, emit_clamp
from ..emulib.base_builder import replay, replay_body, wrap64
from ..emulib.mdmx_builder import MdmxBuilder
from ..emulib.mmx_builder import MmxBuilder
from ..emulib.mom_builder import MomBuilder
from .common import BuiltKernel, KernelSpec, register, rng_for

N = 8
PASS1_ROUND, PASS1_SHIFT = 1 << 10, 11
PASS2_ROUND, PASS2_SHIFT = 1 << 16, 17
OUT_MIN, OUT_MAX = -256, 255


def idct_matrix() -> np.ndarray:
    """The 14-bit fixed-point IDCT constant matrix ``M[x][u]``."""
    x = np.arange(N).reshape(-1, 1)
    u = np.arange(N).reshape(1, -1)
    cu = np.where(u == 0, 1.0 / np.sqrt(2.0), 1.0)
    basis = 0.5 * cu * np.cos((2 * x + 1) * u * np.pi / (2 * N))
    return np.round(basis * (1 << 14)).astype(np.int64)


_M = idct_matrix()


def _clip_i16(v: np.ndarray) -> np.ndarray:
    return np.clip(v, -32768, 32767)


def golden_block(coef: np.ndarray) -> np.ndarray:
    """Bit-exact reference for one 8x8 block of int16 coefficients."""
    x = coef.astype(np.int64)
    tmp = _clip_i16((_M @ x + PASS1_ROUND) >> PASS1_SHIFT)
    out = _clip_i16((tmp @ _M.T + PASS2_ROUND) >> PASS2_SHIFT)
    return np.clip(out, OUT_MIN, OUT_MAX).astype(np.int16)


@dataclass
class IdctWorkload:
    """A batch of 8x8 coefficient blocks (int16, realistic DCT range)."""

    blocks: np.ndarray    # (n, 8, 8) int16


def make_workload(scale: int = 1) -> IdctWorkload:
    """Coefficient blocks produced by a real forward DCT of random pixels.

    Running a genuine FDCT keeps intermediate magnitudes in the ranges a
    video codec produces, which the fixed-point pipeline (and the paper's
    "no visually perceptible losses" criterion) assumes.
    """
    rng = rng_for("idct", scale)
    count = max(1, 2 * scale)
    pixels = rng.integers(-128, 128, (count, N, N)).astype(np.float64)
    x = np.arange(N).reshape(-1, 1)
    u = np.arange(N).reshape(1, -1)
    cu = np.where(x.T == 0, 1.0 / np.sqrt(2.0), 1.0).reshape(-1, 1)
    fwd = 0.5 * cu * np.cos((2 * u.T + 1) * x.T * np.pi / (2 * N))
    blocks = []
    for p in pixels:
        coef = fwd.T @ p @ fwd
        blocks.append(np.round(coef).clip(-2048, 2047))
    return IdctWorkload(blocks=np.asarray(blocks, dtype=np.int16))


def golden(workload: IdctWorkload) -> dict[str, np.ndarray]:
    return {"pixels": np.stack([golden_block(blk) for blk in workload.blocks])}


# --- Alpha ---------------------------------------------------------------------------

def _pass_body(b, mat: np.ndarray, src_base: int, dst_base: int, rnd: int,
               shift: int, column: bool, clamp: bool, regs,
               site: int) -> None:
    """:func:`emit_alpha_pass` one instruction at a time: what its first
    call with a shape records, and the oracle its replay is tested
    against."""
    v, c, prod, s, src, dst, lo, hi, t = regs
    cnt = 0
    for xo in range(N):
        for yo in range(N):
            b.li(s, rnd)
            for u in range(N):
                off = (u * N + yo) if column else (yo * N + u)
                b.li(src, src_base + 2 * off)
                b.ldwu(v, src, 0)
                b.sextw(v, v)
                b.li(c, int(mat[xo][u]))
                b.mulq(prod, v, c)
                b.addq(s, s, prod)
            b.sra(s, s, shift)
            if clamp:
                emit_clamp(b, s, lo, hi, t)
            off = (xo * N + yo) if column else (yo * N + xo)
            b.li(dst, dst_base + 2 * off)
            b.stw(s, dst, 0)
            cnt += 1
            if cnt % 8 == 0:
                b.li(t, 1 if cnt == 64 else 0)
                b.beq(t, site)


def _pass_offsets(column: bool) -> tuple[int, ...]:
    """The byte offset of each of the pass's memory rows, in row order:
    per output the eight source loads, then the destination store."""
    out = []
    for xo in range(N):
        for yo in range(N):
            out += [2 * ((u * N + yo) if column else (yo * N + u))
                    for u in range(N)]
            out.append(2 * ((xo * N + yo) if column else (yo * N + xo)))
    return tuple(out)


_PASS_OFFSETS = {column: _pass_offsets(column) for column in (False, True)}
#: The pass's loop branch is taken after every 8 outputs but the last 8.
_PASS_TAKEN = (True,) * (N - 1) + (False,)
_BLOCK_BYTES = 2 * N * N
_U64 = (1 << 64) - 1


def emit_alpha_pass(b, mat: np.ndarray, src_base: int, dst_base: int,
                    rnd: int, shift: int, column: bool, clamp: bool,
                    regs, site: int) -> None:
    """One pass of the 8x8 transform: 64 dot products of 8 terms, one
    ``mat`` constant per ``lda``, with a loop branch every 8 outputs.

    ``regs`` is ``(v, c, prod, s, src, dst, lo, hi, t)``; ``lo``/``hi``
    must hold ``OUT_MIN``/``OUT_MAX`` when ``clamp`` is set.  The 64-entry
    int16 source and destination regions must not overlap
    (``ValueError``).

    Replayed: no row depends on a data value -- the clamp is compare and
    cmov, and the loop branch outcomes are fixed -- so the first call with
    given registers, ``column`` and ``clamp`` runs :func:`_pass_body` and
    records its rows, and every later call computes the stores and final
    register values on Python ints with the body's wrap64 / sextw / mulq
    / sra / cmov arithmetic, writes the stores with one ``write_block``
    and appends the recorded rows (DESIGN.md section 5).
    """
    src_lo, dst_lo = src_base & _U64, dst_base & _U64
    if src_lo < dst_lo + _BLOCK_BYTES and dst_lo < src_lo + _BLOCK_BYTES:
        raise ValueError("transform pass source and destination overlap")
    skeleton = replay(b, ("alpha_pass", column, clamp), regs,
                      lambda: _pass_body(b, mat, src_base, dst_base, rnd,
                                         shift, column, clamp, regs, site))
    if skeleton is None:
        return
    v, c, prod, s, src, dst, lo, hi, t = regs
    x = struct.unpack(f"<{N * N}h", b.mem.read_block(src_lo, _BLOCK_BYTES))
    # The terms of output (xo, yo): source column yo, or source row yo.
    terms = [x[yo::N] if column else x[N * yo:N * yo + N] for yo in range(N)]
    consts = [[wrap64(int(k)) for k in row] for row in mat]
    low, high = wrap64(lo.value), wrap64(hi.value)
    rnd, shift = wrap64(rnd), shift & 63
    out = [0] * (N * N)
    for xo in range(N):
        row = consts[xo]
        for yo in range(N):
            value = wrap64(rnd + sum(map(mul, row, terms[yo]))) >> shift
            if clamp:
                value = min(max(value, low), high)
            out[(xo * N + yo) if column else (yo * N + xo)] = value
    b.mem.write_block(dst_lo, struct.pack(
        f"<{N * N}H", *[value & 0xFFFF for value in out]))
    offsets = _PASS_OFFSETS[column]
    addrs = [src_lo + off for off in offsets]
    addrs[N::N + 1] = [dst_lo + off for off in offsets[N::N + 1]]  # stores
    b.trace.emit_skeleton(skeleton, addrs, _PASS_TAKEN, site)
    # The last output (7, 7) reads and writes element 63 in either pass.
    last = N * N - 1
    v.value, c.value = x[last], consts[N - 1][N - 1]
    prod.value = wrap64(v.value * c.value)
    s.value = out[last]
    src.value = wrap64(src_base + 2 * last)
    dst.value = wrap64(dst_base + 2 * last)
    t.value = 1


def _build_alpha(workload: IdctWorkload) -> BuiltKernel:
    b = AlphaBuilder()
    blocks = workload.blocks
    in_addr = b.mem.alloc_array(blocks)
    tmp_addr = b.mem.alloc(N * N * 2)
    out_addr = b.mem.alloc(blocks.shape[0] * N * N * 2)

    v, c, prod, s = b.ireg(), b.ireg(), b.ireg(), b.ireg()
    src, dst = b.ireg(), b.ireg()
    lo, hi = b.ireg(OUT_MIN), b.ireg(OUT_MAX)
    t = b.ireg()
    regs = (v, c, prod, s, src, dst, lo, hi, t)
    loop_site = b.site()

    for n in range(blocks.shape[0]):
        base = in_addr + n * N * N * 2
        obase = out_addr + n * N * N * 2
        emit_alpha_pass(b, _M, base, tmp_addr, PASS1_ROUND, PASS1_SHIFT,
                        True, False, regs, loop_site)
        emit_alpha_pass(b, _M, tmp_addr, obase, PASS2_ROUND, PASS2_SHIFT,
                        False, True, regs, loop_site)

    pixels = b.mem.load_array(out_addr, np.int16, blocks.shape[0] * N * N)
    return BuiltKernel(
        builder=b,
        outputs={"pixels": pixels.reshape(blocks.shape[0], N, N)},
    )


# --- MMX / MDMX ---------------------------------------------------------------------

def _interleaved_constants(mat: np.ndarray) -> np.ndarray:
    """Pair-interleaved pmaddh constant words ``K[group][pair]``.

    ``K[g][p]`` packs ``[M[2g][2p], M[2g][2p+1], M[2g+1][2p], M[2g+1][2p+1]]``
    so ``pmaddh(x_pair, K)`` yields 32-bit partials of outputs 2g and 2g+1.
    """
    k = np.zeros((4, 4, 4), dtype=np.int16)
    for g in range(4):
        for p in range(4):
            k[g][p] = [mat[2 * g][2 * p], mat[2 * g][2 * p + 1],
                       mat[2 * g + 1][2 * p], mat[2 * g + 1][2 * p + 1]]
    return k


def mmx_transform_words(mat: np.ndarray) -> np.ndarray:
    """The packed constant table: 16 ``K`` words, both pass roundings as
    32-bit pairs, then the output clamp bounds as halfword quads."""
    return np.concatenate([
        _interleaved_constants(mat).reshape(-1, 4).view(np.uint64).reshape(-1),
        np.asarray([PASS1_ROUND, PASS1_ROUND], dtype=np.int32).view(np.uint64),
        np.asarray([PASS2_ROUND, PASS2_ROUND], dtype=np.int32).view(np.uint64),
        np.asarray([OUT_MIN] * 4, dtype=np.int16).view(np.uint64),
        np.asarray([OUT_MAX] * 4, dtype=np.int16).view(np.uint64),
    ])


def emit_mmx_transpose(b, src_base: int, dst_base: int, addr, regs) -> None:
    """8x8 halfword transpose through memory, one 4x4 quadrant at a time."""
    a0, a1, a2, a3, t0, t1, t2, t3 = regs
    for qr in range(2):
        for qc in range(2):
            for i, reg in enumerate((a0, a1, a2, a3)):
                b.li(addr, src_base + ((4 * qr + i) * N + 4 * qc) * 2)
                b.m_ldq(reg, addr, 0)
            b.punpcklh(t0, a0, a1)
            b.punpckhh(t1, a0, a1)
            b.punpcklh(t2, a2, a3)
            b.punpckhh(t3, a2, a3)
            b.punpcklw(a0, t0, t2)
            b.punpckhw(a1, t0, t2)
            b.punpcklw(a2, t1, t3)
            b.punpckhw(a3, t1, t3)
            for i, reg in enumerate((a0, a1, a2, a3)):
                b.li(addr, dst_base + ((4 * qc + i) * N + 4 * qr) * 2)
                b.m_stq(reg, addr, 0)


def emit_mmx_row_pass(b, src_base: int, dst_base: int, rnd_reg, shift: int,
                      clamp: bool, addr, ctr, kregs, clamp_regs, regs,
                      site: int) -> None:
    """One row transform of all 8 rows: ``pmaddh`` against the resident
    ``kregs[group][pair]``, rounding, ``packsswh``, optional clamp to
    ``clamp_regs = (cmin, cmax)``; a loop branch every four rows.

    ``regs`` is ``(x_lo, x_hi, p01, p23, p45, p67, acc0..acc3, t)``.
    """
    x_lo, x_hi, p01, p23, p45, p67, *accs, t = regs
    cmin, cmax = clamp_regs
    for r in range(N):
        b.li(addr, src_base + r * N * 2)
        b.m_ldq(x_lo, addr, 0)
        b.m_ldq(x_hi, addr, 8)
        b.pshufh(p01, x_lo, (0, 1, 0, 1))
        b.pshufh(p23, x_lo, (2, 3, 2, 3))
        b.pshufh(p45, x_hi, (0, 1, 0, 1))
        b.pshufh(p67, x_hi, (2, 3, 2, 3))
        for g in range(4):
            b.pmaddh(accs[g], p01, kregs[g][0])
            b.pmaddh(t, p23, kregs[g][1])
            b.paddw(accs[g], accs[g], t)
            b.pmaddh(t, p45, kregs[g][2])
            b.paddw(accs[g], accs[g], t)
            b.pmaddh(t, p67, kregs[g][3])
            b.paddw(accs[g], accs[g], t)
            b.paddw(accs[g], accs[g], rnd_reg)
            b.psraw(accs[g], accs[g], shift)
        b.packsswh(p01, accs[0], accs[1])
        b.packsswh(p23, accs[2], accs[3])
        if clamp:
            for y in (p01, p23):
                b.pmaxsh(y, y, cmin)
                b.pminsh(y, y, cmax)
        b.li(addr, dst_base + r * N * 2)
        b.m_stq(p01, addr, 0)
        b.m_stq(p23, addr, 8)
        if r % 4 == 3:
            b.li(ctr, 1 if r == N - 1 else 0)
            b.beq(ctr, site)


def _build_packed(workload: IdctWorkload, builder_cls) -> BuiltKernel:
    b = builder_cls()
    blocks = workload.blocks
    in_addr = b.mem.alloc_array(blocks)
    t_addr = b.mem.alloc(N * N * 2)     # transposed input / intermediate
    r_addr = b.mem.alloc(N * N * 2)     # row-pass result
    out_addr = b.mem.alloc(blocks.shape[0] * N * N * 2)
    const_addr = b.mem.alloc_array(mmx_transform_words(_M))

    addr = b.ireg()
    kregs = [[b.mreg() for _ in range(4)] for _ in range(4)]
    rnd1, rnd2, cmin, cmax = b.mreg(), b.mreg(), b.mreg(), b.mreg()
    flat = [r for group in kregs for r in group] + [rnd1, rnd2, cmin, cmax]
    for i, reg in enumerate(flat):
        b.li(addr, const_addr + 8 * i)
        b.m_ldq(reg, addr, 0)

    regs = [b.mreg() for _ in range(11)]   # x_lo x_hi p01..p67 acc0..3 t
    site = b.site()
    ctr = b.ireg()
    trans_addr = b.ireg()

    def row_pass(src_base: int, dst_base: int, rnd_reg, shift: int,
                 clamp: bool) -> None:
        emit_mmx_row_pass(b, src_base, dst_base, rnd_reg, shift, clamp, addr,
                          ctr, kregs, (cmin, cmax), regs, site)

    def block(base: int, obase: int) -> None:
        emit_mmx_transpose(b, base, t_addr, trans_addr, regs[:8])
        row_pass(t_addr, r_addr, rnd1, PASS1_SHIFT, clamp=False)
        emit_mmx_transpose(b, r_addr, t_addr, trans_addr, regs[:8])
        row_pass(t_addr, obase, rnd2, PASS2_SHIFT, clamp=True)

    # Replayed by re-running (DESIGN.md section 5): every block writes
    # the same rows but for its addresses.
    call_regs = (addr, ctr, trans_addr, *flat, *regs)
    for n in range(blocks.shape[0]):
        base = in_addr + n * N * N * 2
        obase = out_addr + n * N * N * 2
        replay_body(b, ("idct_packed",), call_regs,
                    partial(block, base, obase))

    pixels = b.mem.load_array(out_addr, np.int16, blocks.shape[0] * N * N)
    return BuiltKernel(
        builder=b,
        outputs={"pixels": pixels.reshape(blocks.shape[0], N, N)},
    )


# --- MOM -----------------------------------------------------------------------------

def mom_broadcast_words(mat: np.ndarray) -> np.ndarray:
    """Broadcast-constant matrices: ``K[x]`` row ``u`` holds ``mat[x][u]``
    in all four halfword lanes (8 matrices of 8 words)."""
    kmats = np.zeros((N, N, 4), dtype=np.int16)
    for x in range(N):
        for u in range(N):
            kmats[x][u] = mat[x][u]
    return kmats.reshape(-1, 4).view(np.uint64).reshape(-1)


def mom_clamp_words() -> np.ndarray:
    """Eight rows of ``OUT_MIN`` quads, then eight of ``OUT_MAX``."""
    words = np.asarray([[OUT_MIN] * 4] * N + [[OUT_MAX] * 4] * N,
                       dtype=np.int16)
    return words.view(np.uint64).reshape(-1)


def emit_mom_transpose(b: MomBuilder, left, right, tmp_int, swap) -> None:
    """Full 8x8 halfword transpose of a (left, right) matrix-register pair.

    ``momtransh`` transposes the 4x4 lane blocks in place; the off-diagonal
    quadrants then swap between the two registers through the integer pool.
    """
    b.momtransh(left, left)
    b.momtransh(right, right)
    # Swap left[4..7] with right[0..3] row by row through the integer pool.
    for row in range(4):
        b.momextrow(tmp_int, left, 4 + row)
        b.momextrow(swap, right, row)
        b.mominsrow(left, swap, 4 + row)
        b.mominsrow(right, tmp_int, row)


def _build_mom(workload: IdctWorkload) -> BuiltKernel:
    b = MomBuilder()
    blocks = workload.blocks
    in_addr = b.mem.alloc_array(blocks)
    out_addr = b.mem.alloc(blocks.shape[0] * N * N * 2)
    kaddr = b.mem.alloc_array(mom_broadcast_words(_M))
    clamp_addr = b.mem.alloc_array(mom_clamp_words())

    base, stride8, stride16 = b.ireg(), b.ireg(8), b.ireg(16)
    tmp_int, swap = b.ireg(), b.ireg()
    kregs = [b.mreg() for _ in range(N)]
    cmin, cmax = b.mreg(), b.mreg()
    left, right, rac, outl, outr = (b.mreg() for _ in range(5))
    accs = [b.areg(), b.areg()]   # ping-pong to overlap row chains

    b.setvli(N)
    for x in range(N):
        b.li(base, kaddr + x * N * 8)
        b.momldq(kregs[x], base, stride8)
    b.li(base, clamp_addr)
    b.momldq(cmin, base, stride8)
    b.li(base, clamp_addr + N * 8)
    b.momldq(cmax, base, stride8)

    def column_pass(shift: int) -> None:
        """Transform (left, right) in place: out rows x of each half."""
        for half_in, half_out in ((left, outl), (right, outr)):
            for x in range(N):
                acc = accs[x % 2]
                b.clracc(acc)
                b.pmaddah(acc, half_in, kregs[x])
                b.raccsh(rac, acc, shift=shift)
                b.momextrow(tmp_int, rac, 0)
                b.mominsrow(half_out, tmp_int, x)
        b.mommov(left, outl)
        b.mommov(right, outr)

    def block(blk_base: int, obase: int) -> None:
        b.setvli(N)
        b.li(base, blk_base)
        b.momldq(left, base, stride16)
        b.li(base, blk_base + 8)
        b.momldq(right, base, stride16)

        column_pass(PASS1_SHIFT)
        emit_mom_transpose(b, left, right, tmp_int, swap)
        column_pass(PASS2_SHIFT)
        emit_mom_transpose(b, left, right, tmp_int, swap)

        b.pmaxsh(left, left, cmin)
        b.pminsh(left, left, cmax)
        b.pmaxsh(right, right, cmin)
        b.pminsh(right, right, cmax)

        b.li(base, obase)
        b.momstq(left, base, stride16)
        b.li(base, obase + 8)
        b.momstq(right, base, stride16)

    # Replayed by re-running, as in _build_packed.
    call_regs = (base, stride8, stride16, tmp_int, swap, *kregs, cmin, cmax,
                 left, right, rac, outl, outr, *accs)
    for n in range(blocks.shape[0]):
        blk_base = in_addr + n * N * N * 2
        obase = out_addr + n * N * N * 2
        replay_body(b, ("idct_mom",), call_regs,
                    partial(block, blk_base, obase))

    pixels = b.mem.load_array(out_addr, np.int16, blocks.shape[0] * N * N)
    return BuiltKernel(
        builder=b,
        outputs={"pixels": pixels.reshape(blocks.shape[0], N, N)},
    )


register(KernelSpec(
    name="idct",
    description="8x8 fixed-point inverse DCT (JPEG / MPEG-2 decode)",
    make_workload=make_workload,
    golden=golden,
    builders={
        "alpha": _build_alpha,
        "mmx": lambda w: _build_packed(w, MmxBuilder),
        "mdmx": lambda w: _build_packed(w, MdmxBuilder),
        "mom": _build_mom,
    },
))
