"""Cross-lane reduction idioms of the MDMX kernels.

A packed accumulator holds *per-lane* partial sums; kernels that need one
scalar (a SAD, a dot product) must still sum across lanes.  Neither MDMX nor
MOM has a horizontal-sum opcode -- by design: the lane slices read out with
``rac{l,m,h}`` reassemble into wide values with ordinary ``punpck``
instructions, and a log2-depth shift/add tree finishes the job.  These
helpers emit exactly those sequences, so every kernel pays the realistic
instruction cost for its reductions.
"""

from __future__ import annotations

from ..emulib.base_builder import RegHandle
from ..emulib.mdmx_builder import MdmxBuilder
from ..isa.model import ElemType

_E = ElemType


def mdmx_sad_total(b: MdmxBuilder, acc: RegHandle, scratch: list[RegHandle],
                   out: RegHandle) -> RegHandle:
    """Sum the 8 byte-format accumulator lanes into an integer register.

    Valid while every lane is < 2^16 and the lane total < 2^16 (true for a
    16x16 SAD: <= 256 * 255).  Ten instructions:
    ``racl racm punpcklb punpckhb paddh psrlq paddh psrlq paddh pextrh``.
    """
    lo, mid, t0, t1 = scratch[:4]
    b.racl(lo, acc, _E.B)
    b.racm(mid, acc, _E.B)
    b.punpcklb(t0, lo, mid)    # halves: lanes 0..3 (lo | mid << 8)
    b.punpckhb(t1, lo, mid)    # halves: lanes 4..7
    b.paddh(t0, t0, t1)
    b.psrlq(t1, t0, 32)
    b.paddh(t0, t0, t1)
    b.psrlq(t1, t0, 16)
    b.paddh(t0, t0, t1)
    b.pextrh(out, t0, 0)
    return out


def mdmx_sqd_total(b: MdmxBuilder, acc: RegHandle, scratch: list[RegHandle],
                   zero: RegHandle, out: RegHandle) -> RegHandle:
    """Sum the 8 byte-format lanes of a squared-difference accumulator.

    Lanes hold up to 24 bits, so all three slices participate and the tree
    runs at 32-bit width.  The grand total must fit 32 bits (true for a
    16x16 SQD: <= 256 * 255^2 < 2^25).
    """
    lo, mid, hi, t0, t1, h0, h1 = scratch[:7]
    b.racl(lo, acc, _E.B)
    b.racm(mid, acc, _E.B)
    b.rach(hi, acc, _E.B)
    b.punpcklb(t0, lo, mid)    # halves: lanes 0..3 low 16 bits
    b.punpckhb(t1, lo, mid)    # halves: lanes 4..7 low 16 bits
    b.punpcklb(h0, hi, zero)   # halves: lanes 0..3 high 8 bits
    b.punpckhb(h1, hi, zero)   # halves: lanes 4..7 high 8 bits
    b.punpcklh(lo, t0, h0)     # words: lanes 0..1
    b.punpckhh(mid, t0, h0)    # words: lanes 2..3
    b.punpcklh(t0, t1, h1)     # words: lanes 4..5
    b.punpckhh(t1, t1, h1)     # words: lanes 6..7
    b.paddw(lo, lo, mid)
    b.paddw(t0, t0, t1)
    b.paddw(lo, lo, t0)
    b.psrlq(t0, lo, 32)
    b.paddw(lo, lo, t0)
    b.movd_from(out, lo)
    b.andi(out, out, 0xFFFF_FFFF)
    return out

