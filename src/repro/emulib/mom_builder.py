"""MOM emulation library: matrix-register semantics + trace capture.

Implements the 121-opcode MOM table from :mod:`repro.core.mom_isa`.  A MOM
computation instruction applies its packed operation to the first VL rows of
its matrix operands; a MOM memory instruction walks memory with an arbitrary
byte stride between rows.  The builder tracks the architectural VL register
(renamed through the integer pool by the timing model, per Section 3.2) and
stamps every emitted instruction with the VL under which it executed -- the
timing model charges functional-unit occupancy and memory-port traffic per
row from that field.
"""

from __future__ import annotations

import numpy as np

from ..core.accumulator import PackedAccumulator
from ..core.matrix import MomRegister
from ..core.mom_isa import MATRIX_ROWS, MOM
from ..isa.model import ElemType, RegPool
from ..core import packed
from .base_builder import BaseBuilder, RegHandle, RegisterAllocator


class _Combine:
    """Reduction rule of a fully-reducing matrix instruction."""

    def __init__(self, fn, signed: bool) -> None:
        self._fn = fn
        self.signed = signed

    def __call__(self, la, lb):
        return self._fn(la, lb)


_SAD = _Combine(lambda a, b: np.abs(a - b).sum(), signed=False)
_SQD = _Combine(lambda a, b: ((a - b) * (a - b)).sum(), signed=False)
_DOT = _Combine(lambda a, b: (a * b).sum(), signed=True)

_U64 = (1 << 64) - 1
_E = ElemType


class MomBuilder(BaseBuilder):
    """Builder for the MOM ISA (16 matrix registers, 2 accumulators, VL)."""

    isa_name = "mom"
    media_table = MOM
    media_registers = 16
    accumulator_registers = 2

    def __init__(self, mem=None, int_registers: int = 30) -> None:
        super().__init__(mem, int_registers)
        self.med_alloc = RegisterAllocator(RegPool.MED, self.media_registers)
        self.acc_alloc = RegisterAllocator(RegPool.ACC, self.accumulator_registers)
        #: architectural vector length; every instruction captures it.
        self.vl = MATRIX_ROWS

    # --- registers ------------------------------------------------------------

    def mreg(self) -> RegHandle:
        """Allocate a matrix register (zeroed)."""
        return RegHandle(RegPool.MED, self.med_alloc.take(), MomRegister(), self)

    def areg(self) -> RegHandle:
        """Allocate a packed accumulator (cleared)."""
        return RegHandle(RegPool.ACC, self.acc_alloc.take(), PackedAccumulator(), self)

    def free(self, handle: RegHandle) -> None:
        if handle.pool == RegPool.MED:
            self.med_alloc.release(handle.index)
        elif handle.pool == RegPool.ACC:
            self.acc_alloc.release(handle.index)
        else:
            super().free(handle)

    # --- vector length ----------------------------------------------------------

    def setvl(self, src: RegHandle) -> None:
        """VL <- min(rs, 16) from an integer register."""
        self.vl = max(0, min(int(src.value), MATRIX_ROWS))
        self._emit(self.media_table["setvl"], srcs=(src,), dsts=())

    def setvli(self, length: int) -> None:
        """VL <- immediate."""
        if not 0 <= length <= MATRIX_ROWS:
            raise ValueError(f"VL must be in [0, {MATRIX_ROWS}], got {length}")
        self.vl = length
        self._emit(self.media_table["setvli"], srcs=(), dsts=())

    def readvl(self, dst: RegHandle) -> RegHandle:
        dst.value = self.vl
        self._emit(self.media_table["readvl"], srcs=(), dsts=(dst,))
        return dst

    # --- memory ----------------------------------------------------------------------

    def momldq(self, dst, base, stride, unaligned: bool = False) -> RegHandle:
        """Strided matrix load: row i <- mem[base + i*stride], VL rows."""
        addr = base.value & _U64
        step = int(stride.value)
        rows = dst.value.rows.copy()
        for i in range(self.vl):
            rows[i] = self.mem.read(addr + i * step, 8)
        dst.value = MomRegister(rows)
        name = "momldq_u" if unaligned or addr % 8 else "momldq"
        self._emit(self.media_table[name], srcs=(base, stride), dsts=(dst,),
                   addr=addr, nbytes=8, stride=step, vl=self.vl)
        return dst

    def momstq(self, src, base, stride, unaligned: bool = False) -> None:
        """Strided matrix store: mem[base + i*stride] <- row i, VL rows."""
        addr = base.value & _U64
        step = int(stride.value)
        for i in range(self.vl):
            self.mem.write(addr + i * step, src.value.get_row(i), 8)
        name = "momstq_u" if unaligned or addr % 8 else "momstq"
        self._emit(self.media_table[name], srcs=(src, base, stride), dsts=(),
                   addr=addr, nbytes=8, stride=step, vl=self.vl)

    def momldrow(self, dst, base, row: int, offset: int = 0) -> RegHandle:
        """Load one 64-bit word into matrix row ``row``."""
        addr = (base.value + offset) & _U64
        updated = dst.value.copy()
        updated.set_row(row, self.mem.read(addr, 8))
        dst.value = updated
        self._emit(self.media_table["momldrow"], srcs=(base, dst), dsts=(dst,),
                   addr=addr, nbytes=8, vl=1)
        return dst

    def momstrow(self, src, base, row: int, offset: int = 0) -> None:
        """Store matrix row ``row`` to memory."""
        addr = (base.value + offset) & _U64
        self.mem.write(addr, src.value.get_row(row), 8)
        self._emit(self.media_table["momstrow"], srcs=(src, base), dsts=(),
                   addr=addr, nbytes=8, vl=1)

    def momldbcast(self, dst, base, offset: int = 0) -> RegHandle:
        """Load one word and broadcast it into all VL rows."""
        addr = (base.value + offset) & _U64
        word = self.mem.read(addr, 8)
        rows = dst.value.rows.copy()
        rows[: self.vl] = np.uint64(word)
        dst.value = MomRegister(rows)
        self._emit(self.media_table["momldbcast"], srcs=(base,), dsts=(dst,),
                   addr=addr, nbytes=8, vl=1)
        return dst

    def momprefetch(self, base, stride) -> None:
        """Software prefetch of a strided row sequence (no register write)."""
        self._emit(self.media_table["momprefetch"], srcs=(base, stride), dsts=(),
                   addr=base.value & _U64, nbytes=8,
                   stride=int(stride.value), vl=self.vl)

    # --- data movement -------------------------------------------------------------------

    def mommov(self, dst, src) -> RegHandle:
        dst.value = src.value.copy()
        self._emit(self.media_table["mommov"], srcs=(src,), dsts=(dst,), vl=self.vl)
        return dst

    def momextrow(self, int_dst, src, row: int) -> RegHandle:
        int_dst.value = src.value.get_row(row)
        if int_dst.value >= 1 << 63:
            int_dst.value -= 1 << 64
        self._emit(self.media_table["momextrow"], srcs=(src,), dsts=(int_dst,), vl=1)
        return int_dst

    def mominsrow(self, dst, int_src, row: int) -> RegHandle:
        updated = dst.value.copy()
        updated.set_row(row, int_src.value & _U64)
        dst.value = updated
        self._emit(self.media_table["mominsrow"], srcs=(int_src, dst), dsts=(dst,), vl=1)
        return dst

    def mombcastrow(self, dst, src) -> RegHandle:
        """Broadcast row 0 of ``src`` into all VL rows of ``dst``."""
        rows = dst.value.rows.copy()
        rows[: self.vl] = np.uint64(src.value.get_row(0))
        dst.value = MomRegister(rows)
        self._emit(self.media_table["mombcastrow"], srcs=(src,), dsts=(dst,), vl=self.vl)
        return dst

    # --- packed (matrix) arithmetic: generic emit helpers -----------------------------------

    def _vec2(self, name: str, dst, a, b, fn, *args) -> RegHandle:
        """Two-source packed op applied to the first VL rows."""
        rows = dst.value.rows.copy()
        rows[: self.vl] = fn(a.value.rows[: self.vl], b.value.rows[: self.vl], *args)
        dst.value = MomRegister(rows)
        self._emit(self.media_table[name], srcs=(a, b), dsts=(dst,), vl=self.vl)
        return dst

    def _vec1(self, name: str, dst, a, fn, *args) -> RegHandle:
        """One-source packed op applied to the first VL rows."""
        rows = dst.value.rows.copy()
        rows[: self.vl] = fn(a.value.rows[: self.vl], *args)
        dst.value = MomRegister(rows)
        self._emit(self.media_table[name], srcs=(a,), dsts=(dst,), vl=self.vl)
        return dst

    # --- add / sub ------------------------------------------------------------------------

    def paddb(self, dst, a, b):
        return self._vec2("paddb", dst, a, b, packed.add_wrap, _E.B)

    def paddh(self, dst, a, b):
        return self._vec2("paddh", dst, a, b, packed.add_wrap, _E.H)

    def paddw(self, dst, a, b):
        return self._vec2("paddw", dst, a, b, packed.add_wrap, _E.W)

    def paddsb(self, dst, a, b):
        return self._vec2("paddsb", dst, a, b, packed.add_sat, _E.B, True)

    def paddsh(self, dst, a, b):
        return self._vec2("paddsh", dst, a, b, packed.add_sat, _E.H, True)

    def paddusb(self, dst, a, b):
        return self._vec2("paddusb", dst, a, b, packed.add_sat, _E.B, False)

    def paddush(self, dst, a, b):
        return self._vec2("paddush", dst, a, b, packed.add_sat, _E.H, False)

    def psubb(self, dst, a, b):
        return self._vec2("psubb", dst, a, b, packed.sub_wrap, _E.B)

    def psubh(self, dst, a, b):
        return self._vec2("psubh", dst, a, b, packed.sub_wrap, _E.H)

    def psubw(self, dst, a, b):
        return self._vec2("psubw", dst, a, b, packed.sub_wrap, _E.W)

    def psubsb(self, dst, a, b):
        return self._vec2("psubsb", dst, a, b, packed.sub_sat, _E.B, True)

    def psubsh(self, dst, a, b):
        return self._vec2("psubsh", dst, a, b, packed.sub_sat, _E.H, True)

    def psubusb(self, dst, a, b):
        return self._vec2("psubusb", dst, a, b, packed.sub_sat, _E.B, False)

    def psubush(self, dst, a, b):
        return self._vec2("psubush", dst, a, b, packed.sub_sat, _E.H, False)

    # --- multiplies ---------------------------------------------------------------------------

    def pmullh(self, dst, a, b):
        return self._vec2("pmullh", dst, a, b, packed.mul_low, _E.H)

    def pmulhh(self, dst, a, b):
        return self._vec2("pmulhh", dst, a, b, packed.mul_high, _E.H, True)

    def pmulhuh(self, dst, a, b):
        return self._vec2("pmulhuh", dst, a, b, packed.mul_high, _E.H, False)

    def pmaddh(self, dst, a, b):
        return self._vec2("pmaddh", dst, a, b, packed.mul_add_pairs)

    # --- average / abs-diff ----------------------------------------------------------------------

    def pavgb(self, dst, a, b):
        return self._vec2("pavgb", dst, a, b, packed.avg_round, _E.B)

    def pavgh(self, dst, a, b):
        return self._vec2("pavgh", dst, a, b, packed.avg_round, _E.H)

    def pabsdiffb(self, dst, a, b):
        return self._vec2("pabsdiffb", dst, a, b, packed.absdiff, _E.B)

    def pabsdiffh(self, dst, a, b):
        return self._vec2("pabsdiffh", dst, a, b, packed.absdiff, _E.H)

    def momabsb(self, dst, a):
        return self._vec1("momabsb", dst, a, packed.abs_packed, _E.B)

    def momabsh(self, dst, a):
        return self._vec1("momabsh", dst, a, packed.abs_packed, _E.H)

    # --- min / max ------------------------------------------------------------------------------------

    def pminub(self, dst, a, b):
        return self._vec2("pminub", dst, a, b, packed.minmax, _E.B, False, False)

    def pmaxub(self, dst, a, b):
        return self._vec2("pmaxub", dst, a, b, packed.minmax, _E.B, False, True)

    def pminsh(self, dst, a, b):
        return self._vec2("pminsh", dst, a, b, packed.minmax, _E.H, True, False)

    def pmaxsh(self, dst, a, b):
        return self._vec2("pmaxsh", dst, a, b, packed.minmax, _E.H, True, True)

    # --- logicals --------------------------------------------------------------------------------------

    def pand(self, dst, a, b):
        return self._vec2("pand", dst, a, b, lambda x, y: x & y)

    def pandn(self, dst, a, b):
        return self._vec2("pandn", dst, a, b, lambda x, y: ~x & y)

    def por(self, dst, a, b):
        return self._vec2("por", dst, a, b, lambda x, y: x | y)

    def pxor(self, dst, a, b):
        return self._vec2("pxor", dst, a, b, lambda x, y: x ^ y)

    # --- shifts ------------------------------------------------------------------------------------------

    def _vshift(self, name, dst, a, count, elem, kind):
        return self._vec1(name, dst, a, packed.shift, count, elem, kind)

    def psllh(self, dst, a, count: int):
        return self._vshift("psllh", dst, a, count, _E.H, "sll")

    def psllw(self, dst, a, count: int):
        return self._vshift("psllw", dst, a, count, _E.W, "sll")

    def psllq(self, dst, a, count: int):
        return self._vshift("psllq", dst, a, count, _E.Q, "sll")

    def psrlh(self, dst, a, count: int):
        return self._vshift("psrlh", dst, a, count, _E.H, "srl")

    def psrlw(self, dst, a, count: int):
        return self._vshift("psrlw", dst, a, count, _E.W, "srl")

    def psrlq(self, dst, a, count: int):
        return self._vshift("psrlq", dst, a, count, _E.Q, "srl")

    def psrah(self, dst, a, count: int):
        return self._vshift("psrah", dst, a, count, _E.H, "sra")

    def psraw(self, dst, a, count: int):
        return self._vshift("psraw", dst, a, count, _E.W, "sra")

    # --- compares / select -------------------------------------------------------------------------------------

    def pcmpeqb(self, dst, a, b):
        return self._vec2("pcmpeqb", dst, a, b, packed.cmp_mask, _E.B, "eq")

    def pcmpeqh(self, dst, a, b):
        return self._vec2("pcmpeqh", dst, a, b, packed.cmp_mask, _E.H, "eq")

    def pcmpeqw(self, dst, a, b):
        return self._vec2("pcmpeqw", dst, a, b, packed.cmp_mask, _E.W, "eq")

    def pcmpgtb(self, dst, a, b):
        return self._vec2("pcmpgtb", dst, a, b, packed.cmp_mask, _E.B, "gt")

    def pcmpgth(self, dst, a, b):
        return self._vec2("pcmpgth", dst, a, b, packed.cmp_mask, _E.H, "gt")

    def pcmpgtw(self, dst, a, b):
        return self._vec2("pcmpgtw", dst, a, b, packed.cmp_mask, _E.W, "gt")

    def pcmov(self, dst, mask, a, b):
        rows = dst.value.rows.copy()
        vl = self.vl
        rows[:vl] = packed.select(
            mask.value.rows[:vl], a.value.rows[:vl], b.value.rows[:vl]
        )
        dst.value = MomRegister(rows)
        self._emit(self.media_table["pcmov"], srcs=(mask, a, b), dsts=(dst,), vl=vl)
        return dst

    # --- pack / unpack --------------------------------------------------------------------------------------------

    def packsshb(self, dst, a, b):
        return self._vec2("packsshb", dst, a, b, packed.pack_sat, _E.H, True)

    def packushb(self, dst, a, b):
        return self._vec2("packushb", dst, a, b, packed.pack_sat, _E.H, False)

    def packsswh(self, dst, a, b):
        return self._vec2("packsswh", dst, a, b, packed.pack_sat, _E.W, True)

    def punpcklb(self, dst, a, b):
        return self._vec2("punpcklb", dst, a, b, packed.unpack_interleave, _E.B, False)

    def punpckhb(self, dst, a, b):
        return self._vec2("punpckhb", dst, a, b, packed.unpack_interleave, _E.B, True)

    def punpcklh(self, dst, a, b):
        return self._vec2("punpcklh", dst, a, b, packed.unpack_interleave, _E.H, False)

    def punpckhh(self, dst, a, b):
        return self._vec2("punpckhh", dst, a, b, packed.unpack_interleave, _E.H, True)

    def punpcklw(self, dst, a, b):
        return self._vec2("punpcklw", dst, a, b, packed.unpack_interleave, _E.W, False)

    def punpckhw(self, dst, a, b):
        return self._vec2("punpckhw", dst, a, b, packed.unpack_interleave, _E.W, True)

    # --- accumulator (matrix) operations ----------------------------------------------------------------------------

    def _acc_rows(self, name: str, acc, a, b, fold) -> RegHandle:
        """Accumulate pairwise over the first VL rows of two matrices.

        ``fold`` gets all VL rows at once and adds their per-lane sum in
        one step: accumulator lanes wrap modulo their width, so that
        equals folding the rows one at a time.
        """
        vl = self.vl
        fold(acc.value, a.value.rows[:vl], b.value.rows[:vl])
        self._emit(self.media_table[name], srcs=(a, b, acc), dsts=(acc,), vl=vl)
        return acc

    def pmaddab(self, acc, a, b):
        return self._acc_rows(
            "pmaddab", acc, a, b, lambda v, x, y: v.madd(x, y, _E.B, signed=True)
        )

    def pmaddah(self, acc, a, b):
        return self._acc_rows(
            "pmaddah", acc, a, b, lambda v, x, y: v.madd(x, y, _E.H, signed=True)
        )

    def pmaddauh(self, acc, a, b):
        return self._acc_rows(
            "pmaddauh", acc, a, b, lambda v, x, y: v.madd(x, y, _E.H, signed=False)
        )

    def pmsubab(self, acc, a, b):
        return self._acc_rows(
            "pmsubab", acc, a, b,
            lambda v, x, y: v.madd(x, y, _E.B, signed=True, subtract=True),
        )

    def pmsubah(self, acc, a, b):
        return self._acc_rows(
            "pmsubah", acc, a, b,
            lambda v, x, y: v.madd(x, y, _E.H, signed=True, subtract=True),
        )

    def paccaddb(self, acc, a, b):
        return self._acc_rows(
            "paccaddb", acc, a, b, lambda v, x, y: v.acc_add(x, y, _E.B)
        )

    def paccaddh(self, acc, a, b):
        return self._acc_rows(
            "paccaddh", acc, a, b, lambda v, x, y: v.acc_add(x, y, _E.H)
        )

    def paccaddw(self, acc, a, b):
        return self._acc_rows(
            "paccaddw", acc, a, b, lambda v, x, y: v.acc_add(x, y, _E.W)
        )

    def paccsubb(self, acc, a, b):
        return self._acc_rows(
            "paccsubb", acc, a, b,
            lambda v, x, y: v.acc_add(x, y, _E.B, subtract=True),
        )

    def paccsubh(self, acc, a, b):
        return self._acc_rows(
            "paccsubh", acc, a, b,
            lambda v, x, y: v.acc_add(x, y, _E.H, subtract=True),
        )

    def paccsubw(self, acc, a, b):
        return self._acc_rows(
            "paccsubw", acc, a, b,
            lambda v, x, y: v.acc_add(x, y, _E.W, subtract=True),
        )

    def paccsadb(self, acc, a, b):
        return self._acc_rows(
            "paccsadb", acc, a, b, lambda v, x, y: v.acc_sad(x, y, _E.B)
        )

    def paccsadh(self, acc, a, b):
        return self._acc_rows(
            "paccsadh", acc, a, b, lambda v, x, y: v.acc_sad(x, y, _E.H)
        )

    def paccsqdb(self, acc, a, b):
        return self._acc_rows(
            "paccsqdb", acc, a, b, lambda v, x, y: v.acc_sqd(x, y, _E.B)
        )

    def paccsqdh(self, acc, a, b):
        return self._acc_rows(
            "paccsqdh", acc, a, b, lambda v, x, y: v.acc_sqd(x, y, _E.H)
        )

    # --- special matrix operations ----------------------------------------------------------------------------------

    def _matrix_scalar_op(self, name: str, acc, a, b, combine, elem: ElemType):
        """Fully-reducing matrix operation: acc += sum over rows and lanes.

        These are Section 2.2's "very powerful matrix instructions": the
        hardware reduces both dimensions through an adder tree, so software
        reads one scalar back with a single ``racl``.
        """
        la = packed.to_lanes(a.value.rows[: self.vl], elem,
                             signed=combine.signed).astype(np.int64)
        lb = packed.to_lanes(b.value.rows[: self.vl], elem,
                             signed=combine.signed).astype(np.int64)
        acc.value.scalar_add(int(combine(la, lb)))
        self._emit(self.media_table[name], srcs=(a, b, acc), dsts=(acc,),
                   vl=self.vl)
        return acc

    def mommsadb(self, acc, a, b):
        """Matrix SAD: acc += sum over rows and byte lanes of |a - b|."""
        return self._matrix_scalar_op("mommsadb", acc, a, b, _SAD, _E.B)

    def mommsadh(self, acc, a, b):
        return self._matrix_scalar_op("mommsadh", acc, a, b, _SAD, _E.H)

    def mommsqdb(self, acc, a, b):
        """MPEG-2 matrix sum of quadratic differences (scalar total)."""
        return self._matrix_scalar_op("mommsqdb", acc, a, b, _SQD, _E.B)

    def mommsqdh(self, acc, a, b):
        return self._matrix_scalar_op("mommsqdh", acc, a, b, _SQD, _E.H)

    def mommvmb(self, acc, a, b):
        """Matrix dot product: acc += sum over rows and lanes of a * b."""
        return self._matrix_scalar_op("mommvmb", acc, a, b, _DOT, _E.B)

    def mommvmh(self, acc, a, b):
        return self._matrix_scalar_op("mommvmh", acc, a, b, _DOT, _E.H)

    def mommpvb(self, acc, a, v):
        """Matrix-per-vector: acc += sum over rows of a_row . v_row0, bytes."""
        row0 = np.full(self.vl, v.value.get_row(0), dtype=np.uint64)
        la = packed.to_lanes(a.value.rows[: self.vl], _E.B, signed=True).astype(np.int64)
        lv = packed.to_lanes(row0, _E.B, signed=True).astype(np.int64)
        acc.value.scalar_add(int((la * lv).sum()))
        self._emit(self.media_table["mommpvb"], srcs=(a, v, acc), dsts=(acc,),
                   vl=self.vl)
        return acc

    def mommpvh(self, acc, a, v):
        """Matrix-per-vector: acc += sum over rows of a_row . v_row0, halves."""
        row0 = np.full(self.vl, v.value.get_row(0), dtype=np.uint64)
        la = packed.to_lanes(a.value.rows[: self.vl], _E.H, signed=True).astype(np.int64)
        lv = packed.to_lanes(row0, _E.H, signed=True).astype(np.int64)
        acc.value.scalar_add(int((la * lv).sum()))
        self._emit(self.media_table["mommpvh"], srcs=(a, v, acc), dsts=(acc,),
                   vl=self.vl)
        return acc

    def momtransb(self, dst, a):
        dst.value = a.value.transpose_blocks(_E.B)
        self._emit(self.media_table["momtransb"], srcs=(a,), dsts=(dst,), vl=self.vl)
        return dst

    def momtransh(self, dst, a):
        dst.value = a.value.transpose_blocks(_E.H)
        self._emit(self.media_table["momtransh"], srcs=(a,), dsts=(dst,), vl=self.vl)
        return dst

    def momtransw(self, dst, a):
        dst.value = a.value.transpose_blocks(_E.W)
        self._emit(self.media_table["momtransw"], srcs=(a,), dsts=(dst,), vl=self.vl)
        return dst

    # --- accumulator read-out / restore (as MDMX, on the MOM table) -------------------------------------------------------

    def _rac(self, name: str, dst, acc, value: int) -> RegHandle:
        """Accumulator read-out into row 0 of a matrix register or an
        integer register (by destination pool)."""
        if dst.pool == RegPool.MED:
            updated = dst.value.copy()
            updated.set_row(0, value & _U64)
            dst.value = updated
        else:
            dst.value = value & _U64
            if dst.value >= 1 << 63:
                dst.value -= 1 << 64
        self._emit(self.media_table[name], srcs=(acc,), dsts=(dst,))
        return dst

    def racl(self, dst, acc, elem: ElemType = ElemType.B):
        """Read the low slice of every accumulator lane into row 0."""
        return self._rac("racl", dst, acc, acc.value.read_slice("low", elem))

    def racm(self, dst, acc, elem: ElemType = ElemType.B):
        """Read the middle slice of every accumulator lane into row 0."""
        return self._rac("racm", dst, acc, acc.value.read_slice("mid", elem))

    def rach(self, dst, acc, elem: ElemType = ElemType.B):
        """Read the high slice of every accumulator lane into row 0."""
        return self._rac("rach", dst, acc, acc.value.read_slice("high", elem))

    def raccsb(self, dst, acc, shift: int = 0):
        return self._rac("raccsb", dst, acc, acc.value.read_saturated(_E.B, True, shift))

    def raccub(self, dst, acc, shift: int = 0):
        return self._rac("raccub", dst, acc, acc.value.read_saturated(_E.B, False, shift))

    def raccsh(self, dst, acc, shift: int = 0):
        return self._rac("raccsh", dst, acc, acc.value.read_saturated(_E.H, True, shift))

    def raccuh(self, dst, acc, shift: int = 0):
        return self._rac("raccuh", dst, acc, acc.value.read_saturated(_E.H, False, shift))

    def wacl(self, acc, lo_int, mid_int):
        acc.value.write_third("low", lo_int.value & _U64)
        acc.value.write_third("mid", mid_int.value & _U64)
        self._emit(self.media_table["wacl"], srcs=(lo_int, mid_int, acc), dsts=(acc,))
        return acc

    def wach(self, acc, hi_int):
        acc.value.write_third("high", hi_int.value & _U64)
        self._emit(self.media_table["wach"], srcs=(hi_int, acc), dsts=(acc,))
        return acc

    def clracc(self, acc):
        acc.value.clear()
        self._emit(self.media_table["clracc"], srcs=(), dsts=(acc,))
        return acc

    # --- row reductions / shifts ----------------------------------------------------------------------------------------

    def _vsum(self, name: str, dst, a, elem: ElemType, saturating: bool) -> RegHandle:
        lanes = a.value.to_lane_matrix(elem, signed=False).astype(np.int64)
        total = lanes[: self.vl].sum(axis=0)
        if saturating:
            total = packed.saturate(total, elem, signed=False)
        rows = dst.value.rows.copy()
        rows[0] = packed.from_lanes(total)
        dst.value = MomRegister(rows)
        self._emit(self.media_table[name], srcs=(a,), dsts=(dst,), vl=self.vl)
        return dst

    def momvsumb(self, dst, a):
        return self._vsum("momvsumb", dst, a, _E.B, True)

    def momvsumh(self, dst, a):
        return self._vsum("momvsumh", dst, a, _E.H, True)

    def momvsumw(self, dst, a):
        return self._vsum("momvsumw", dst, a, _E.W, False)

    def momrowshl(self, dst, a):
        dst.value = a.value.row_shift(towards_zero=True)
        self._emit(self.media_table["momrowshl"], srcs=(a,), dsts=(dst,), vl=self.vl)
        return dst

    def momrowshr(self, dst, a):
        dst.value = a.value.row_shift(towards_zero=False)
        self._emit(self.media_table["momrowshr"], srcs=(a,), dsts=(dst,), vl=self.vl)
        return dst

    # --- vector-scalar broadcast forms --------------------------------------------------------------------------------------

    def _vs(self, name: str, dst, a, b, fn, *args) -> RegHandle:
        row0 = np.full(self.vl, b.value.get_row(0), dtype=np.uint64)
        rows = dst.value.rows.copy()
        rows[: self.vl] = fn(a.value.rows[: self.vl], row0, *args)
        dst.value = MomRegister(rows)
        self._emit(self.media_table[name], srcs=(a, b), dsts=(dst,), vl=self.vl)
        return dst

    def vsaddb(self, dst, a, b):
        return self._vs("vsaddb", dst, a, b, packed.add_sat, _E.B, False)

    def vsaddh(self, dst, a, b):
        return self._vs("vsaddh", dst, a, b, packed.add_sat, _E.H, True)

    def vssubb(self, dst, a, b):
        return self._vs("vssubb", dst, a, b, packed.sub_sat, _E.B, False)

    def vssubh(self, dst, a, b):
        return self._vs("vssubh", dst, a, b, packed.sub_sat, _E.H, True)

    def vsmullh(self, dst, a, b):
        return self._vs("vsmullh", dst, a, b, packed.mul_low, _E.H)

    def vsmulhh(self, dst, a, b):
        return self._vs("vsmulhh", dst, a, b, packed.mul_high, _E.H, True)

    def vsandq(self, dst, a, b):
        return self._vs("vsandq", dst, a, b, lambda x, y: x & y)

    def vsorq(self, dst, a, b):
        return self._vs("vsorq", dst, a, b, lambda x, y: x | y)

    # --- misc -------------------------------------------------------------------------------------------------------------------

    def momzero(self, dst) -> RegHandle:
        dst.value = MomRegister()
        self._emit(self.media_table["momzero"], srcs=(), dsts=(dst,), vl=self.vl)
        return dst
