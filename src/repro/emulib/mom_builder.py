"""MOM emulation library: matrix-register semantics + trace capture.

Implements the 121-opcode MOM table from :mod:`repro.core.mom_isa`.  A MOM
computation instruction applies its packed operation to the first VL rows of
its matrix operands; a MOM memory instruction walks memory with an arbitrary
byte stride between rows.  The builder tracks the architectural VL register
(renamed through the integer pool by the timing model, per Section 3.2) and
stamps every emitted instruction with the VL under which it executed -- the
timing model charges functional-unit occupancy and memory-port traffic per
row from that field.

The paper defines every MOM computation instruction as a vector version of
an MDMX instruction, and :class:`MomBuilder` is derived the same way: it
subclasses :class:`~repro.emulib.mdmx_builder.MdmxBuilder` and inherits
the methods of the 79 opcodes the MOM table copies from MDMX's (54 packed
operations from the MMX builder, 25 accumulator operations from the MDMX
one).  It overrides only the three adapters those methods meet their
registers through: ``_packed`` applies the MMX/MDMX word operation to each
of the first VL rows and stamps ``vl``, ``_acc`` folds an accumulate over
the VL rows, and ``_rac`` reads out into row 0 of a matrix register or
sign-wrapped into an integer register.  The inherited methods whose
opcodes MOM lacks (``m_ldq``, ``movq``, ``psadb``, ...) raise ``KeyError``
before any write.  The MOM-only instructions below keep their own bodies,
on the same int rows: the vector-scalar forms and ``momabs*`` apply a
:mod:`~repro.core.packed` operation to each row, and the column sums and
matrix reductions split all VL rows into lanes at once and reduce them
with the accumulator's combine functions.
"""

from __future__ import annotations

from operator import and_, mul, or_

from ..core.accumulator import abs_difference, square_difference
from ..core.matrix import MomRegister
from ..core.mom_isa import MATRIX_ROWS, MOM
from ..isa.model import ElemType, RegPool
from ..core import packed
from .base_builder import RegHandle, wrap64
from .mdmx_builder import MdmxBuilder

_U64 = (1 << 64) - 1
_E = ElemType


class MomBuilder(MdmxBuilder):
    """Builder for the MOM ISA (16 matrix registers, 2 accumulators, VL)."""

    isa_name = "mom"
    media_table = MOM
    media_registers = 16
    accumulator_registers = 2

    def __init__(self, mem=None, int_registers: int = 30) -> None:
        super().__init__(mem, int_registers)
        #: architectural vector length; every instruction captures it.
        self.vl = MATRIX_ROWS

    # --- registers ------------------------------------------------------------

    def mreg(self) -> RegHandle:
        """Allocate a matrix register (zeroed)."""
        return RegHandle(RegPool.MED, self.med_alloc.take(), MomRegister(), self)

    # --- the adapters the inherited MMX/MDMX instructions go through --------

    def _packed(self, name: str, dst, srcs, fn, *args) -> RegHandle:
        """Row ``r`` of ``dst`` <- the word operation ``fn`` on row ``r``
        of every source, for each row below VL; rows from VL up keep
        their value."""
        op = self.media_table[name]
        vl = self.vl
        dst.value = dst.value.with_rows(
            [fn(*words, *args) for words in zip(*[s.value.rows[:vl] for s in srcs])])
        self._emit(op, srcs=srcs, dsts=(dst,), vl=vl)
        return dst

    def _acc(self, name: str, acc, a, b, fold, *args) -> RegHandle:
        """Accumulate pairwise over the first VL rows of two matrices.

        ``fold`` gets all VL rows at once and adds their per-lane sum in
        one step: accumulator lanes wrap modulo their width, so that
        equals folding the rows one at a time.
        """
        op = self.media_table[name]
        vl = self.vl
        fold(acc.value, a.value.rows[:vl], b.value.rows[:vl], *args)
        self._emit(op, srcs=(a, b, acc), dsts=(acc,), vl=vl)
        return acc

    def _rac(self, name: str, dst, acc, value: int) -> RegHandle:
        """Accumulator read-out into row 0 of a matrix register or an
        integer register (by destination pool)."""
        op = self.media_table[name]
        if dst.pool == RegPool.MED:
            dst.value = dst.value.with_rows([value & _U64])
        else:
            dst.value = wrap64(value)
        self._emit(op, srcs=(acc,), dsts=(dst,))
        return dst

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
        dst.value = dst.value.with_rows(
            [self.mem.read(addr + i * step, 8) for i in range(self.vl)])
        name = "momldq_u" if unaligned or addr % 8 else "momldq"
        self._emit(self.media_table[name], srcs=(base, stride), dsts=(dst,),
                   addr=addr, nbytes=8, stride=step, vl=self.vl)
        return dst

    def momstq(self, src, base, stride, unaligned: bool = False) -> None:
        """Strided matrix store: mem[base + i*stride] <- row i, VL rows."""
        addr = base.value & _U64
        step = int(stride.value)
        for i, row in enumerate(src.value.rows[:self.vl]):
            self.mem.write(addr + i * step, row, 8)
        name = "momstq_u" if unaligned or addr % 8 else "momstq"
        self._emit(self.media_table[name], srcs=(src, base, stride), dsts=(),
                   addr=addr, nbytes=8, stride=step, vl=self.vl)

    def momldrow(self, dst, base, row: int, offset: int = 0) -> RegHandle:
        """Load one 64-bit word into matrix row ``row``."""
        addr = (base.value + offset) & _U64
        dst.value = dst.value.with_rows([self.mem.read(addr, 8)], row)
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
        dst.value = dst.value.with_rows([self.mem.read(addr, 8)] * self.vl)
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
        int_dst.value = wrap64(src.value.get_row(row))
        self._emit(self.media_table["momextrow"], srcs=(src,), dsts=(int_dst,), vl=1)
        return int_dst

    def mominsrow(self, dst, int_src, row: int) -> RegHandle:
        dst.value = dst.value.with_rows([int_src.value & _U64], row)
        self._emit(self.media_table["mominsrow"], srcs=(int_src, dst), dsts=(dst,), vl=1)
        return dst

    def mombcastrow(self, dst, src) -> RegHandle:
        """Broadcast row 0 of ``src`` into all VL rows of ``dst``."""
        dst.value = dst.value.with_rows([src.value.get_row(0)] * self.vl)
        self._emit(self.media_table["mombcastrow"], srcs=(src,), dsts=(dst,), vl=self.vl)
        return dst

    # --- special matrix operations ----------------------------------------------------------------------------------

    def _matrix_scalar_op(self, name: str, acc, a, b, combine, elem: ElemType,
                          signed: bool, by_row0: bool = False):
        """Fully-reducing matrix operation: acc += the sum over the rows
        below VL and over lanes of ``combine`` of the two operands' lanes
        (each row of ``a`` against row 0 of ``b`` if ``by_row0``).

        These are Section 2.2's "very powerful matrix instructions": the
        hardware reduces both dimensions through an adder tree, so software
        reads one scalar back with a single ``racl``.
        """
        vl = self.vl
        b_rows = [b.value.rows[0]] * vl if by_row0 else b.value.rows[:vl]
        acc.value.scalar_add(sum(map(
            combine, packed.rows_to_lanes(a.value.rows[:vl], elem, signed),
            packed.rows_to_lanes(b_rows, elem, signed))))
        self._emit(self.media_table[name], srcs=(a, b, acc), dsts=(acc,),
                   vl=vl)
        return acc

    def mommsadb(self, acc, a, b):
        """Matrix SAD: acc += sum over rows and byte lanes of |a - b|."""
        return self._matrix_scalar_op("mommsadb", acc, a, b, abs_difference,
                                      _E.B, False)

    def mommsadh(self, acc, a, b):
        return self._matrix_scalar_op("mommsadh", acc, a, b, abs_difference,
                                      _E.H, False)

    def mommsqdb(self, acc, a, b):
        """MPEG-2 matrix sum of quadratic differences (scalar total)."""
        return self._matrix_scalar_op("mommsqdb", acc, a, b, square_difference,
                                      _E.B, False)

    def mommsqdh(self, acc, a, b):
        return self._matrix_scalar_op("mommsqdh", acc, a, b, square_difference,
                                      _E.H, False)

    def mommvmb(self, acc, a, b):
        """Matrix dot product: acc += sum over rows and lanes of a * b."""
        return self._matrix_scalar_op("mommvmb", acc, a, b, mul, _E.B, True)

    def mommvmh(self, acc, a, b):
        return self._matrix_scalar_op("mommvmh", acc, a, b, mul, _E.H, True)

    def mommpvb(self, acc, a, v):
        """Matrix-per-vector: acc += sum over rows of a_row . v_row0, bytes."""
        return self._matrix_scalar_op("mommpvb", acc, a, v, mul, _E.B, True,
                                      by_row0=True)

    def mommpvh(self, acc, a, v):
        """Matrix-per-vector: acc += sum over rows of a_row . v_row0, halves."""
        return self._matrix_scalar_op("mommpvh", acc, a, v, mul, _E.H, True,
                                      by_row0=True)

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

    # --- row reductions / shifts ----------------------------------------------------------------------------------------

    def _vsum(self, name: str, dst, a, elem: ElemType, saturating: bool) -> RegHandle:
        """Row 0 <- each unsigned lane summed over the rows below VL,
        saturated or (``momvsumw``) wrapped to the lane; rows 1.. keep."""
        n = elem.lanes
        lanes = packed.rows_to_lanes(a.value.rows[: self.vl], elem)
        sums = [sum(lanes[i::n]) for i in range(n)]
        if saturating:
            top = (1 << elem.bits) - 1
            sums = [min(s, top) for s in sums]
        dst.value = dst.value.with_rows(packed.lanes_to_rows(sums, elem))
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
        """Row ``r`` of ``dst`` <- ``fn`` of row ``r`` of ``a`` and row 0
        of ``b``, for each row below VL; rows from VL up keep."""
        row0 = b.value.get_row(0)
        dst.value = dst.value.with_rows(
            [fn(row, row0, *args) for row in a.value.rows[: self.vl]])
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
        return self._vs("vsandq", dst, a, b, and_)

    def vsorq(self, dst, a, b):
        return self._vs("vsorq", dst, a, b, or_)

    # --- misc -------------------------------------------------------------------------------------------------------------------

    def momabsb(self, dst, a):
        return self._packed("momabsb", dst, (a,), packed.abs_packed, _E.B)

    def momabsh(self, dst, a):
        return self._packed("momabsh", dst, (a,), packed.abs_packed, _E.H)

    def momzero(self, dst) -> RegHandle:
        dst.value = MomRegister()
        self._emit(self.media_table["momzero"], srcs=(), dsts=(dst,), vl=self.vl)
        return dst
