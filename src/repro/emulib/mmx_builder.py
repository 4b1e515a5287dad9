"""MMX-like emulation library: functional semantics + trace capture.

Implements the 67-opcode table of :mod:`repro.isa.mmx` on top of
:class:`~repro.emulib.base_builder.BaseBuilder`.  Media registers hold one
64-bit packed word; the paper's extension to **three logical operands** means
every computation names a distinct destination.

Every packed operation is a :mod:`repro.core.packed` function applied to its
sources' words through one adapter, :meth:`MmxBuilder._packed`; the MDMX
builder inherits these methods unchanged and the MOM builder overrides the
adapter alone.  Every method looks its opcode up before it writes a register,
memory or the trace, so calling one whose opcode a subclass's table lacks
raises ``KeyError`` and changes nothing.
"""

from __future__ import annotations

from operator import and_, or_, xor

from ..isa.mmx import MMX
from ..isa.model import ElemType, IsaTable, RegPool
from ..core import packed
from .base_builder import BaseBuilder, RegHandle, RegisterAllocator, wrap64

_U64 = (1 << 64) - 1
_E = ElemType


def _and_not(a: int, b: int) -> int:
    """``~a & b`` on 64-bit int words."""
    return (a ^ _U64) & b


def _insert_half(half: int, word: int, lane: int) -> int:
    """``word`` with halfword ``lane`` replaced by the low 16 bits of ``half``."""
    shift = 16 * lane
    return word & ~(0xFFFF << shift) | (half & 0xFFFF) << shift


class MmxBuilder(BaseBuilder):
    """Builder for the MMX-like ISA (32 logical media registers)."""

    isa_name = "mmx"
    media_table: IsaTable = MMX
    media_registers = 32
    ld_op = "mmx_ldq"
    ldu_op = "mmx_ldq_u"
    st_op = "mmx_stq"

    def __init__(self, mem=None, int_registers: int = 30) -> None:
        super().__init__(mem, int_registers)
        self.med_alloc = RegisterAllocator(RegPool.MED, self.media_registers)

    # --- registers -------------------------------------------------------------

    def mreg(self, value: int | None = None) -> RegHandle:
        """Allocate a media register holding a packed 64-bit word.

        An explicit value marks the register pre-initialized (live-in) for
        dataflow analysis, mirroring :meth:`BaseBuilder.ireg`.
        """
        handle = RegHandle(
            RegPool.MED, self.med_alloc.take(), (value or 0) & _U64, self
        )
        if value is not None:
            self.preinit.add(handle.encoded)
        return handle

    def free(self, handle: RegHandle) -> None:
        if handle.pool == RegPool.MED:
            self.med_alloc.release(handle.index)
        else:
            super().free(handle)

    # --- emit helpers ------------------------------------------------------------

    def _packed(self, name: str, dst, srcs, fn, *args) -> RegHandle:
        """Set ``dst`` to ``fn(*source words, *args)`` and write the row.

        ``fn`` gets the registers' int words; the MOM builder applies the
        same ``fn`` to each row below VL.
        """
        op = self.media_table[name]
        dst.value = fn(*[s.value for s in srcs], *args) & _U64
        self._emit(op, srcs=srcs, dsts=(dst,))
        return dst

    # --- memory --------------------------------------------------------------------

    def m_ldq(self, dst, base, offset: int = 0, unaligned: bool = False) -> RegHandle:
        """Load a 64-bit packed word into a media register."""
        addr = (base.value + offset) & _U64
        op = self.media_table[self.ldu_op if unaligned or addr % 8 else self.ld_op]
        dst.value = self.mem.read(addr, 8)
        self._emit(op, srcs=(base,), dsts=(dst,), addr=addr, nbytes=8)
        return dst

    def m_stq(self, src, base, offset: int = 0) -> None:
        """Store a media register as a 64-bit word."""
        addr = (base.value + offset) & _U64
        op = self.media_table[self.st_op]
        self.mem.write(addr, src.value, 8)
        self._emit(op, srcs=(src, base), dsts=(), addr=addr, nbytes=8)

    # --- moves ----------------------------------------------------------------------

    def movq(self, dst, src) -> RegHandle:
        """Media register copy (``int`` passes the word through)."""
        return self._packed("movq", dst, (src,), int)

    def movd_to(self, dst, int_src) -> RegHandle:
        """Integer register -> media register (the value modulo 2^64)."""
        return self._packed("movd_to", dst, (int_src,), int)

    def movd_from(self, int_dst, med_src) -> RegHandle:
        """Media register -> integer register."""
        op = self.media_table["movd_from"]
        int_dst.value = wrap64(med_src.value)
        self._emit(op, srcs=(med_src,), dsts=(int_dst,))
        return int_dst

    def pshufh(self, dst, src, order: tuple[int, int, int, int]) -> RegHandle:
        return self._packed("pshufh", dst, (src,), packed.shuffle_halves, order)

    def pextrh(self, int_dst, med_src, lane: int) -> RegHandle:
        op = self.media_table["pextrh"]
        int_dst.value = (med_src.value >> (16 * lane)) & 0xFFFF
        self._emit(op, srcs=(med_src,), dsts=(int_dst,))
        return int_dst

    def pinsrh(self, dst, int_src, lane: int) -> RegHandle:
        return self._packed("pinsrh", dst, (int_src, dst), _insert_half, lane)

    # --- packed add / sub -------------------------------------------------------------

    def paddb(self, dst, a, b):
        return self._packed("paddb", dst, (a, b), packed.add_wrap, _E.B)

    def paddh(self, dst, a, b):
        return self._packed("paddh", dst, (a, b), packed.add_wrap, _E.H)

    def paddw(self, dst, a, b):
        return self._packed("paddw", dst, (a, b), packed.add_wrap, _E.W)

    def paddsb(self, dst, a, b):
        return self._packed("paddsb", dst, (a, b), packed.add_sat, _E.B, True)

    def paddsh(self, dst, a, b):
        return self._packed("paddsh", dst, (a, b), packed.add_sat, _E.H, True)

    def paddusb(self, dst, a, b):
        return self._packed("paddusb", dst, (a, b), packed.add_sat, _E.B, False)

    def paddush(self, dst, a, b):
        return self._packed("paddush", dst, (a, b), packed.add_sat, _E.H, False)

    def psubb(self, dst, a, b):
        return self._packed("psubb", dst, (a, b), packed.sub_wrap, _E.B)

    def psubh(self, dst, a, b):
        return self._packed("psubh", dst, (a, b), packed.sub_wrap, _E.H)

    def psubw(self, dst, a, b):
        return self._packed("psubw", dst, (a, b), packed.sub_wrap, _E.W)

    def psubsb(self, dst, a, b):
        return self._packed("psubsb", dst, (a, b), packed.sub_sat, _E.B, True)

    def psubsh(self, dst, a, b):
        return self._packed("psubsh", dst, (a, b), packed.sub_sat, _E.H, True)

    def psubusb(self, dst, a, b):
        return self._packed("psubusb", dst, (a, b), packed.sub_sat, _E.B, False)

    def psubush(self, dst, a, b):
        return self._packed("psubush", dst, (a, b), packed.sub_sat, _E.H, False)

    # --- multiplies -----------------------------------------------------------------------

    def pmullh(self, dst, a, b):
        return self._packed("pmullh", dst, (a, b), packed.mul_low, _E.H)

    def pmulhh(self, dst, a, b):
        return self._packed("pmulhh", dst, (a, b), packed.mul_high, _E.H, True)

    def pmulhuh(self, dst, a, b):
        return self._packed("pmulhuh", dst, (a, b), packed.mul_high, _E.H, False)

    def pmaddh(self, dst, a, b):
        return self._packed("pmaddh", dst, (a, b), packed.mul_add_pairs)

    # --- average / absolute difference / SAD ------------------------------------------------

    def pavgb(self, dst, a, b):
        return self._packed("pavgb", dst, (a, b), packed.avg_round, _E.B)

    def pavgh(self, dst, a, b):
        return self._packed("pavgh", dst, (a, b), packed.avg_round, _E.H)

    def pabsdiffb(self, dst, a, b):
        return self._packed("pabsdiffb", dst, (a, b), packed.absdiff, _E.B)

    def pabsdiffh(self, dst, a, b):
        return self._packed("pabsdiffh", dst, (a, b), packed.absdiff, _E.H)

    def psadb(self, dst, a, b):
        return self._packed("psadb", dst, (a, b), packed.sad)

    # --- min / max -----------------------------------------------------------------------------

    def pminub(self, dst, a, b):
        return self._packed("pminub", dst, (a, b), packed.minmax, _E.B, False, False)

    def pmaxub(self, dst, a, b):
        return self._packed("pmaxub", dst, (a, b), packed.minmax, _E.B, False, True)

    def pminsh(self, dst, a, b):
        return self._packed("pminsh", dst, (a, b), packed.minmax, _E.H, True, False)

    def pmaxsh(self, dst, a, b):
        return self._packed("pmaxsh", dst, (a, b), packed.minmax, _E.H, True, True)

    # --- logicals ----------------------------------------------------------------------------------

    def pand(self, dst, a, b):
        return self._packed("pand", dst, (a, b), and_)

    def pandn(self, dst, a, b):
        return self._packed("pandn", dst, (a, b), _and_not)

    def por(self, dst, a, b):
        return self._packed("por", dst, (a, b), or_)

    def pxor(self, dst, a, b):
        return self._packed("pxor", dst, (a, b), xor)

    # --- shifts (immediate counts) --------------------------------------------------------------------

    def psllh(self, dst, a, count: int):
        return self._packed("psllh", dst, (a,), packed.shift, count, _E.H, "sll")

    def psllw(self, dst, a, count: int):
        return self._packed("psllw", dst, (a,), packed.shift, count, _E.W, "sll")

    def psllq(self, dst, a, count: int):
        return self._packed("psllq", dst, (a,), packed.shift, count, _E.Q, "sll")

    def psrlh(self, dst, a, count: int):
        return self._packed("psrlh", dst, (a,), packed.shift, count, _E.H, "srl")

    def psrlw(self, dst, a, count: int):
        return self._packed("psrlw", dst, (a,), packed.shift, count, _E.W, "srl")

    def psrlq(self, dst, a, count: int):
        return self._packed("psrlq", dst, (a,), packed.shift, count, _E.Q, "srl")

    def psrah(self, dst, a, count: int):
        return self._packed("psrah", dst, (a,), packed.shift, count, _E.H, "sra")

    def psraw(self, dst, a, count: int):
        return self._packed("psraw", dst, (a,), packed.shift, count, _E.W, "sra")

    # --- compares / select ---------------------------------------------------------------------------------

    def pcmpeqb(self, dst, a, b):
        return self._packed("pcmpeqb", dst, (a, b), packed.cmp_mask, _E.B, "eq")

    def pcmpeqh(self, dst, a, b):
        return self._packed("pcmpeqh", dst, (a, b), packed.cmp_mask, _E.H, "eq")

    def pcmpeqw(self, dst, a, b):
        return self._packed("pcmpeqw", dst, (a, b), packed.cmp_mask, _E.W, "eq")

    def pcmpgtb(self, dst, a, b):
        return self._packed("pcmpgtb", dst, (a, b), packed.cmp_mask, _E.B, "gt")

    def pcmpgth(self, dst, a, b):
        return self._packed("pcmpgth", dst, (a, b), packed.cmp_mask, _E.H, "gt")

    def pcmpgtw(self, dst, a, b):
        return self._packed("pcmpgtw", dst, (a, b), packed.cmp_mask, _E.W, "gt")

    def pcmov(self, dst, mask, a, b):
        return self._packed("pcmov", dst, (mask, a, b), packed.select)

    # --- pack / unpack ----------------------------------------------------------------------------------------

    def packsshb(self, dst, a, b):
        return self._packed("packsshb", dst, (a, b), packed.pack_sat, _E.H, True)

    def packushb(self, dst, a, b):
        return self._packed("packushb", dst, (a, b), packed.pack_sat, _E.H, False)

    def packsswh(self, dst, a, b):
        return self._packed("packsswh", dst, (a, b), packed.pack_sat, _E.W, True)

    def punpcklb(self, dst, a, b):
        return self._packed("punpcklb", dst, (a, b), packed.unpack_interleave, _E.B, False)

    def punpckhb(self, dst, a, b):
        return self._packed("punpckhb", dst, (a, b), packed.unpack_interleave, _E.B, True)

    def punpcklh(self, dst, a, b):
        return self._packed("punpcklh", dst, (a, b), packed.unpack_interleave, _E.H, False)

    def punpckhh(self, dst, a, b):
        return self._packed("punpckhh", dst, (a, b), packed.unpack_interleave, _E.H, True)

    def punpcklw(self, dst, a, b):
        return self._packed("punpcklw", dst, (a, b), packed.unpack_interleave, _E.W, False)

    def punpckhw(self, dst, a, b):
        return self._packed("punpckhw", dst, (a, b), packed.unpack_interleave, _E.W, True)

    # --- reductions ----------------------------------------------------------------------------------------------

    def psumb(self, dst, a):
        return self._packed("psumb", dst, (a,), packed.horizontal_sum, _E.B)

    def psumh(self, dst, a):
        return self._packed("psumh", dst, (a,), packed.horizontal_sum, _E.H)

    def psumw(self, dst, a):
        return self._packed("psumw", dst, (a,), packed.horizontal_sum, _E.W)
