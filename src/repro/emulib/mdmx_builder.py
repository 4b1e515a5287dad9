"""MDMX-like emulation library: packed ops plus 192-bit accumulators.

Extends the MMX builder with the 25 accumulator opcodes of
:mod:`repro.isa.mdmx`.  The scalar-reduction opcodes MMX needed (``psadb``,
``psum*``) are absent from the MDMX table, so calling them raises
``KeyError`` before any write -- MDMX performs reductions through
accumulators, which is the whole architectural argument of Section 2.1.

Every accumulate goes through :meth:`MdmxBuilder._acc`, which applies an
unbound :class:`PackedAccumulator` method to the two source words (each
a one-row sequence, where MOM passes its VL rows), and every read-out
through :meth:`MdmxBuilder._rac`.  The MOM builder inherits all 25
methods and overrides those two adapters (and
:meth:`~repro.emulib.mmx_builder.MmxBuilder._packed`) to meet its matrix
registers: MMX -> MDMX -> MOM, as the opcode tables are derived.
"""

from __future__ import annotations

from ..core.accumulator import PackedAccumulator
from ..isa.mdmx import MDMX
from ..isa.model import ElemType, RegPool
from .base_builder import RegHandle, RegisterAllocator
from .mmx_builder import MmxBuilder

_E = ElemType
_PA = PackedAccumulator


class MdmxBuilder(MmxBuilder):
    """Builder for the MDMX-like ISA (32 media registers, 4 accumulators)."""

    isa_name = "mdmx"
    media_table = MDMX
    accumulator_registers = 4
    ld_op = "mdmx_ldq"
    ldu_op = "mdmx_ldq_u"
    st_op = "mdmx_stq"

    def __init__(self, mem=None, int_registers: int = 30) -> None:
        super().__init__(mem, int_registers)
        self.acc_alloc = RegisterAllocator(RegPool.ACC, self.accumulator_registers)

    # --- registers --------------------------------------------------------------

    def areg(self) -> RegHandle:
        """Allocate a packed accumulator (cleared)."""
        return RegHandle(RegPool.ACC, self.acc_alloc.take(), PackedAccumulator(), self)

    def free(self, handle: RegHandle) -> None:
        if handle.pool == RegPool.ACC:
            self.acc_alloc.release(handle.index)
        else:
            super().free(handle)

    # --- accumulate emit helper -----------------------------------------------------

    def _acc(self, name: str, acc: RegHandle, a, b, fold, *args) -> RegHandle:
        """Accumulate ``fold`` (an unbound :class:`PackedAccumulator`
        method, then ``args``) of two words, each passed as a one-row
        sequence: acc is both source and destination."""
        op = self.media_table[name]
        fold(acc.value, (a.value,), (b.value,), *args)
        self._emit(op, srcs=(a, b, acc), dsts=(acc,))
        return acc

    # --- multiply-accumulate (madd: elem, signed, subtract) ----------------------------

    def pmaddab(self, acc, a, b):
        return self._acc("pmaddab", acc, a, b, _PA.madd, _E.B, True)

    def pmaddah(self, acc, a, b):
        return self._acc("pmaddah", acc, a, b, _PA.madd, _E.H, True)

    def pmaddauh(self, acc, a, b):
        return self._acc("pmaddauh", acc, a, b, _PA.madd, _E.H, False)

    def pmsubab(self, acc, a, b):
        return self._acc("pmsubab", acc, a, b, _PA.madd, _E.B, True, True)

    def pmsubah(self, acc, a, b):
        return self._acc("pmsubah", acc, a, b, _PA.madd, _E.H, True, True)

    # --- add / subtract accumulate (acc_add: elem, subtract) ---------------------------

    def paccaddb(self, acc, a, b):
        return self._acc("paccaddb", acc, a, b, _PA.acc_add, _E.B)

    def paccaddh(self, acc, a, b):
        return self._acc("paccaddh", acc, a, b, _PA.acc_add, _E.H)

    def paccaddw(self, acc, a, b):
        return self._acc("paccaddw", acc, a, b, _PA.acc_add, _E.W)

    def paccsubb(self, acc, a, b):
        return self._acc("paccsubb", acc, a, b, _PA.acc_add, _E.B, True)

    def paccsubh(self, acc, a, b):
        return self._acc("paccsubh", acc, a, b, _PA.acc_add, _E.H, True)

    def paccsubw(self, acc, a, b):
        return self._acc("paccsubw", acc, a, b, _PA.acc_add, _E.W, True)

    # --- difference accumulate ----------------------------------------------------------------

    def paccsadb(self, acc, a, b):
        return self._acc("paccsadb", acc, a, b, _PA.acc_sad, _E.B)

    def paccsadh(self, acc, a, b):
        return self._acc("paccsadh", acc, a, b, _PA.acc_sad, _E.H)

    def paccsqdb(self, acc, a, b):
        return self._acc("paccsqdb", acc, a, b, _PA.acc_sqd, _E.B)

    def paccsqdh(self, acc, a, b):
        return self._acc("paccsqdh", acc, a, b, _PA.acc_sqd, _E.H)

    # --- accumulator read-out ----------------------------------------------------------------------

    def _rac(self, name: str, dst, acc, value: int) -> RegHandle:
        op = self.media_table[name]
        dst.value = value & (1 << 64) - 1
        self._emit(op, srcs=(acc,), dsts=(dst,))
        return dst

    def racl(self, dst, acc, elem: ElemType = ElemType.B):
        """Read the low slice of every accumulator lane (``racl.fmt``)."""
        return self._rac("racl", dst, acc, acc.value.read_slice("low", elem))

    def racm(self, dst, acc, elem: ElemType = ElemType.B):
        """Read the middle slice of every accumulator lane (``racm.fmt``)."""
        return self._rac("racm", dst, acc, acc.value.read_slice("mid", elem))

    def rach(self, dst, acc, elem: ElemType = ElemType.B):
        """Read the high slice of every accumulator lane (``rach.fmt``)."""
        return self._rac("rach", dst, acc, acc.value.read_slice("high", elem))

    def raccsb(self, dst, acc, shift: int = 0):
        return self._rac("raccsb", dst, acc, acc.value.read_saturated(_E.B, True, shift))

    def raccub(self, dst, acc, shift: int = 0):
        return self._rac("raccub", dst, acc, acc.value.read_saturated(_E.B, False, shift))

    def raccsh(self, dst, acc, shift: int = 0):
        return self._rac("raccsh", dst, acc, acc.value.read_saturated(_E.H, True, shift))

    def raccuh(self, dst, acc, shift: int = 0):
        return self._rac("raccuh", dst, acc, acc.value.read_saturated(_E.H, False, shift))

    # --- accumulator restore / clear ---------------------------------------------------------------------

    def wacl(self, acc, lo, mid):
        """Restore the low and middle thirds from two registers (each
        value taken modulo 2^64: MOM restores from integer registers)."""
        op = self.media_table["wacl"]
        acc.value.write_third("low", lo.value)
        acc.value.write_third("mid", mid.value)
        self._emit(op, srcs=(lo, mid, acc), dsts=(acc,))
        return acc

    def wach(self, acc, hi):
        """Restore the high third from a register (modulo 2^64)."""
        op = self.media_table["wach"]
        acc.value.write_third("high", hi.value)
        self._emit(op, srcs=(hi, acc), dsts=(acc,))
        return acc

    def clracc(self, acc):
        """Clear an accumulator; breaks the dependence on its old value."""
        op = self.media_table["clracc"]
        acc.value.clear()
        self._emit(op, srcs=(), dsts=(acc,))
        return acc
