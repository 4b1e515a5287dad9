"""MMX-like emulation library: functional semantics + trace capture.

Implements the 67-opcode table of :mod:`repro.isa.mmx` on top of
:class:`~repro.emulib.base_builder.BaseBuilder`.  Media registers hold one
64-bit packed word; the paper's extension to **three logical operands** means
every computation names a distinct destination.
"""

from __future__ import annotations

from ..isa.mmx import MMX
from ..isa.model import ElemType, IsaTable, RegPool
from ..core import packed
from .base_builder import BaseBuilder, RegHandle, RegisterAllocator

_U64 = (1 << 64) - 1
_E = ElemType


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

    def _med_op(self, name: str, dst: RegHandle, srcs, value: int) -> RegHandle:
        dst.value = value & _U64
        self._emit(self.media_table[name], srcs=srcs, dsts=(dst,))
        return dst

    def _packed2(self, name: str, dst, a, b, fn, *fn_args) -> RegHandle:
        """Two-source packed operation computed by a :mod:`packed` function
        on the registers' int words (its int-word form)."""
        return self._med_op(name, dst, (a, b), fn(a.value, b.value, *fn_args))

    # --- memory --------------------------------------------------------------------

    def m_ldq(self, dst, base, offset: int = 0, unaligned: bool = False) -> RegHandle:
        """Load a 64-bit packed word into a media register."""
        addr = (base.value + offset) & _U64
        dst.value = self.mem.read(addr, 8)
        name = self.ldu_op if unaligned or addr % 8 else self.ld_op
        self._emit(self.media_table[name], srcs=(base,), dsts=(dst,),
                   addr=addr, nbytes=8)
        return dst

    def m_stq(self, src, base, offset: int = 0) -> None:
        """Store a media register as a 64-bit word."""
        addr = (base.value + offset) & _U64
        self.mem.write(addr, src.value, 8)
        self._emit(self.media_table[self.st_op], srcs=(src, base), dsts=(),
                   addr=addr, nbytes=8)

    # --- moves ----------------------------------------------------------------------

    def movq(self, dst, src) -> RegHandle:
        return self._med_op("movq", dst, (src,), src.value)

    def movd_to(self, dst, int_src) -> RegHandle:
        """Integer register -> media register."""
        return self._med_op("movd_to", dst, (int_src,), int_src.value & _U64)

    def movd_from(self, int_dst, med_src) -> RegHandle:
        """Media register -> integer register."""
        int_dst.value = med_src.value & _U64
        if int_dst.value >= 1 << 63:
            int_dst.value -= 1 << 64
        self._emit(self.media_table["movd_from"], srcs=(med_src,), dsts=(int_dst,))
        return int_dst

    def pshufh(self, dst, src, order: tuple[int, int, int, int]) -> RegHandle:
        return self._med_op(
            "pshufh", dst, (src,), packed.shuffle_halves(src.value, order)
        )

    def pextrh(self, int_dst, med_src, lane: int) -> RegHandle:
        int_dst.value = (med_src.value >> (16 * lane)) & 0xFFFF
        self._emit(self.media_table["pextrh"], srcs=(med_src,), dsts=(int_dst,))
        return int_dst

    def pinsrh(self, dst, int_src, lane: int) -> RegHandle:
        mask = 0xFFFF << (16 * lane)
        value = (dst.value & ~mask) | ((int_src.value & 0xFFFF) << (16 * lane))
        return self._med_op("pinsrh", dst, (int_src, dst), value)

    # --- packed add / sub -------------------------------------------------------------

    def paddb(self, dst, a, b):
        return self._packed2("paddb", dst, a, b, packed.add_wrap, _E.B)

    def paddh(self, dst, a, b):
        return self._packed2("paddh", dst, a, b, packed.add_wrap, _E.H)

    def paddw(self, dst, a, b):
        return self._packed2("paddw", dst, a, b, packed.add_wrap, _E.W)

    def paddsb(self, dst, a, b):
        return self._packed2("paddsb", dst, a, b, packed.add_sat, _E.B, True)

    def paddsh(self, dst, a, b):
        return self._packed2("paddsh", dst, a, b, packed.add_sat, _E.H, True)

    def paddusb(self, dst, a, b):
        return self._packed2("paddusb", dst, a, b, packed.add_sat, _E.B, False)

    def paddush(self, dst, a, b):
        return self._packed2("paddush", dst, a, b, packed.add_sat, _E.H, False)

    def psubb(self, dst, a, b):
        return self._packed2("psubb", dst, a, b, packed.sub_wrap, _E.B)

    def psubh(self, dst, a, b):
        return self._packed2("psubh", dst, a, b, packed.sub_wrap, _E.H)

    def psubw(self, dst, a, b):
        return self._packed2("psubw", dst, a, b, packed.sub_wrap, _E.W)

    def psubsb(self, dst, a, b):
        return self._packed2("psubsb", dst, a, b, packed.sub_sat, _E.B, True)

    def psubsh(self, dst, a, b):
        return self._packed2("psubsh", dst, a, b, packed.sub_sat, _E.H, True)

    def psubusb(self, dst, a, b):
        return self._packed2("psubusb", dst, a, b, packed.sub_sat, _E.B, False)

    def psubush(self, dst, a, b):
        return self._packed2("psubush", dst, a, b, packed.sub_sat, _E.H, False)

    # --- multiplies -----------------------------------------------------------------------

    def pmullh(self, dst, a, b):
        return self._packed2("pmullh", dst, a, b, packed.mul_low, _E.H)

    def pmulhh(self, dst, a, b):
        return self._packed2("pmulhh", dst, a, b, packed.mul_high, _E.H, True)

    def pmulhuh(self, dst, a, b):
        return self._packed2("pmulhuh", dst, a, b, packed.mul_high, _E.H, False)

    def pmaddh(self, dst, a, b):
        return self._med_op(
            "pmaddh", dst, (a, b), packed.mul_add_pairs(a.value, b.value)
        )

    # --- average / absolute difference / SAD ------------------------------------------------

    def pavgb(self, dst, a, b):
        return self._packed2("pavgb", dst, a, b, packed.avg_round, _E.B)

    def pavgh(self, dst, a, b):
        return self._packed2("pavgh", dst, a, b, packed.avg_round, _E.H)

    def pabsdiffb(self, dst, a, b):
        return self._packed2("pabsdiffb", dst, a, b, packed.absdiff, _E.B)

    def pabsdiffh(self, dst, a, b):
        return self._packed2("pabsdiffh", dst, a, b, packed.absdiff, _E.H)

    def psadb(self, dst, a, b):
        return self._med_op("psadb", dst, (a, b), packed.sad(a.value, b.value))

    # --- min / max -----------------------------------------------------------------------------

    def pminub(self, dst, a, b):
        return self._packed2("pminub", dst, a, b, packed.minmax, _E.B, False, False)

    def pmaxub(self, dst, a, b):
        return self._packed2("pmaxub", dst, a, b, packed.minmax, _E.B, False, True)

    def pminsh(self, dst, a, b):
        return self._packed2("pminsh", dst, a, b, packed.minmax, _E.H, True, False)

    def pmaxsh(self, dst, a, b):
        return self._packed2("pmaxsh", dst, a, b, packed.minmax, _E.H, True, True)

    # --- logicals ----------------------------------------------------------------------------------

    def pand(self, dst, a, b):
        return self._med_op("pand", dst, (a, b), a.value & b.value)

    def pandn(self, dst, a, b):
        return self._med_op("pandn", dst, (a, b), ~a.value & b.value & _U64)

    def por(self, dst, a, b):
        return self._med_op("por", dst, (a, b), a.value | b.value)

    def pxor(self, dst, a, b):
        return self._med_op("pxor", dst, (a, b), a.value ^ b.value)

    # --- shifts (immediate counts) --------------------------------------------------------------------

    def _shift(self, name: str, dst, a, count: int, elem: ElemType, kind: str):
        return self._med_op(
            name, dst, (a,), packed.shift(a.value, count, elem, kind)
        )

    def psllh(self, dst, a, count: int):
        return self._shift("psllh", dst, a, count, _E.H, "sll")

    def psllw(self, dst, a, count: int):
        return self._shift("psllw", dst, a, count, _E.W, "sll")

    def psllq(self, dst, a, count: int):
        return self._shift("psllq", dst, a, count, _E.Q, "sll")

    def psrlh(self, dst, a, count: int):
        return self._shift("psrlh", dst, a, count, _E.H, "srl")

    def psrlw(self, dst, a, count: int):
        return self._shift("psrlw", dst, a, count, _E.W, "srl")

    def psrlq(self, dst, a, count: int):
        return self._shift("psrlq", dst, a, count, _E.Q, "srl")

    def psrah(self, dst, a, count: int):
        return self._shift("psrah", dst, a, count, _E.H, "sra")

    def psraw(self, dst, a, count: int):
        return self._shift("psraw", dst, a, count, _E.W, "sra")

    # --- compares / select ---------------------------------------------------------------------------------

    def pcmpeqb(self, dst, a, b):
        return self._packed2("pcmpeqb", dst, a, b, packed.cmp_mask, _E.B, "eq")

    def pcmpeqh(self, dst, a, b):
        return self._packed2("pcmpeqh", dst, a, b, packed.cmp_mask, _E.H, "eq")

    def pcmpeqw(self, dst, a, b):
        return self._packed2("pcmpeqw", dst, a, b, packed.cmp_mask, _E.W, "eq")

    def pcmpgtb(self, dst, a, b):
        return self._packed2("pcmpgtb", dst, a, b, packed.cmp_mask, _E.B, "gt")

    def pcmpgth(self, dst, a, b):
        return self._packed2("pcmpgth", dst, a, b, packed.cmp_mask, _E.H, "gt")

    def pcmpgtw(self, dst, a, b):
        return self._packed2("pcmpgtw", dst, a, b, packed.cmp_mask, _E.W, "gt")

    def pcmov(self, dst, mask, a, b):
        value = packed.select(mask.value, a.value, b.value)
        return self._med_op("pcmov", dst, (mask, a, b), value)

    # --- pack / unpack ----------------------------------------------------------------------------------------

    def packsshb(self, dst, a, b):
        return self._packed2("packsshb", dst, a, b, packed.pack_sat, _E.H, True)

    def packushb(self, dst, a, b):
        return self._packed2("packushb", dst, a, b, packed.pack_sat, _E.H, False)

    def packsswh(self, dst, a, b):
        return self._packed2("packsswh", dst, a, b, packed.pack_sat, _E.W, True)

    def punpcklb(self, dst, a, b):
        return self._packed2("punpcklb", dst, a, b, packed.unpack_interleave, _E.B, False)

    def punpckhb(self, dst, a, b):
        return self._packed2("punpckhb", dst, a, b, packed.unpack_interleave, _E.B, True)

    def punpcklh(self, dst, a, b):
        return self._packed2("punpcklh", dst, a, b, packed.unpack_interleave, _E.H, False)

    def punpckhh(self, dst, a, b):
        return self._packed2("punpckhh", dst, a, b, packed.unpack_interleave, _E.H, True)

    def punpcklw(self, dst, a, b):
        return self._packed2("punpcklw", dst, a, b, packed.unpack_interleave, _E.W, False)

    def punpckhw(self, dst, a, b):
        return self._packed2("punpckhw", dst, a, b, packed.unpack_interleave, _E.W, True)

    # --- reductions ----------------------------------------------------------------------------------------------

    def psumb(self, dst, a):
        return self._med_op("psumb", dst, (a,), packed.horizontal_sum(a.value, _E.B))

    def psumh(self, dst, a):
        return self._med_op("psumh", dst, (a,), packed.horizontal_sum(a.value, _E.H))

    def psumw(self, dst, a):
        return self._med_op("psumw", dst, (a,), packed.horizontal_sum(a.value, _E.W))
