"""Builder tests: functional semantics and trace capture for all four ISAs."""

import numpy as np
import pytest

from repro import AlphaBuilder, MdmxBuilder, MmxBuilder, MomBuilder
from repro.core import packed
from repro.core.matrix import MomRegister
from repro.emulib.alpha_builder import emit_abs_diff, emit_clamp
from repro.emulib.base_builder import wrap64
from repro.emulib.memory import Memory
from repro.emulib.trace import reg_index, reg_pool
from repro.isa.mmx import MMX
from repro.isa.model import ElemType, InstrClass, RegPool


# --- scalar baseline ---------------------------------------------------------------

def test_wrap64():
    assert wrap64(1 << 63) == -(1 << 63)
    assert wrap64((1 << 64) - 1) == -1
    assert wrap64(42) == 42


def test_scalar_arithmetic_values():
    b = AlphaBuilder()
    x, y, z = b.ireg(10), b.ireg(3), b.ireg()
    b.addq(z, x, y)
    assert z.value == 13
    b.subq(z, x, y)
    assert z.value == 7
    b.mulq(z, x, y)
    assert z.value == 30
    b.sll(z, x, 2)
    assert z.value == 40
    b.sra(z, b.ireg(-8), 1)
    assert z.value == -4


def test_scalar_compare_and_cmov():
    b = AlphaBuilder()
    x, y, t = b.ireg(5), b.ireg(9), b.ireg()
    b.cmplt(t, x, y)
    assert t.value == 1
    dst = b.ireg(100)
    b.cmovne(dst, t, y)       # t != 0 -> dst = y
    assert dst.value == 9
    b.li(t, 0)
    b.cmovne(dst, t, x)       # t == 0 -> unchanged
    assert dst.value == 9


def test_logical_ops():
    b = AlphaBuilder()
    x, y, z = b.ireg(0b1100), b.ireg(0b1010), b.ireg()
    b.and_(z, x, y)
    assert z.value == 0b1000
    b.bis(z, x, y)
    assert z.value == 0b1110
    b.xor(z, x, y)
    assert z.value == 0b0110


def test_sext_helpers():
    b = AlphaBuilder()
    x, z = b.ireg(0xFF), b.ireg()
    b.sextb(z, x)
    assert z.value == -1
    b.li(x, 0x8000)
    b.sextw(z, x)
    assert z.value == -0x8000


def test_memory_roundtrip_all_widths():
    b = AlphaBuilder()
    addr = b.mem.alloc(64)
    base, v, out = b.ireg(addr), b.ireg(-2), b.ireg()
    b.stq(v, base, 0)
    b.ldq(out, base, 0)
    assert out.value == -2
    b.li(v, 0x1234)
    b.stw(v, base, 8)
    b.ldwu(out, base, 8)
    assert out.value == 0x1234
    b.stb(v, base, 16)
    b.ldbu(out, base, 16)
    assert out.value == 0x34


def test_branch_outcome_derived_from_value():
    b = AlphaBuilder()
    cond = b.ireg(5)
    site = b.site()
    assert b.bne(cond, site) is True
    b.li(cond, 0)
    assert b.bne(cond, site) is False
    assert b.beq(cond, site) is True
    b.li(cond, -1)
    assert b.blt(cond, site) is True
    assert b.bge(cond, site) is False


def test_counted_loop_emits_bookkeeping():
    b = AlphaBuilder()
    total = b.ireg(0)
    for _ in b.counted_loop(4):
        b.addi(total, total, 1)
    assert total.value == 4
    branches = [i for i in b.trace if i.iclass == InstrClass.BRANCH]
    assert len(branches) == 4
    assert [i.taken for i in branches] == [True, True, True, False]


def test_register_pool_exhaustion():
    b = AlphaBuilder(int_registers=2)
    b.ireg()
    r = b.ireg()
    with pytest.raises(RuntimeError):
        b.ireg()
    b.free(r)
    b.ireg()    # released slot is reusable


def test_trace_records_operands_and_addresses():
    b = AlphaBuilder()
    addr = b.mem.alloc(8)
    base, v = b.ireg(addr), b.ireg()
    b.ldq(v, base, 0)
    ins = b.trace[-1]
    assert ins.addr == addr and ins.nbytes == 8
    assert reg_pool(ins.dsts[0]) == RegPool.INT
    assert reg_index(ins.srcs[0]) == base.index


def test_abs_diff_idiom():
    b = AlphaBuilder()
    x, y, d, s = b.ireg(3), b.ireg(11), b.ireg(), b.ireg()
    emit_abs_diff(b, d, x, y, s)
    assert d.value == 8
    emit_abs_diff(b, d, y, x, s)
    assert d.value == 8


def test_clamp_idiom():
    b = AlphaBuilder()
    v, lo, hi, s = b.ireg(300), b.ireg(0), b.ireg(255), b.ireg()
    emit_clamp(b, v, lo, hi, s)
    assert v.value == 255
    b.li(v, -5)
    emit_clamp(b, v, lo, hi, s)
    assert v.value == 0


# --- MMX builder ----------------------------------------------------------------------

def test_mmx_load_uses_unaligned_opcode():
    b = MmxBuilder()
    addr = b.mem.alloc(32)
    base = b.ireg(addr + 1)
    r = b.mreg()
    b.m_ldq(r, base)
    assert b.trace[-1].op.name == "mmx_ldq_u"
    b.li(base, addr)
    b.m_ldq(r, base)
    assert b.trace[-1].op.name == "mmx_ldq"


def test_mmx_packed_add_value():
    b = MmxBuilder()
    x = b.mreg(0x00FF00FF00FF00FF)
    y = b.mreg(0x0101010101010101)
    z = b.mreg()
    b.paddusb(z, x, y)
    assert z.value == 0x01FF01FF01FF01FF  # 0xFF saturates, 0x00+1 = 1
    b.paddb(z, x, y)                      # wraparound: 0xFF+0x01 -> 0x00
    lanes = [(z.value >> (8 * i)) & 0xFF for i in range(8)]
    assert lanes == [0x00, 0x01, 0x00, 0x01, 0x00, 0x01, 0x00, 0x01]


def test_mmx_psadb_and_movd():
    b = MmxBuilder()
    x = b.mreg(0x0101010101010101)
    y = b.mreg(0)
    d = b.mreg()
    out = b.ireg()
    b.psadb(d, x, y)
    b.movd_from(out, d)
    assert out.value == 8


def test_mmx_pextr_pinsr():
    b = MmxBuilder()
    r = b.mreg(0x0004000300020001)
    out = b.ireg()
    b.pextrh(out, r, 2)
    assert out.value == 3
    b.li(out, 0xBEEF)
    b.pinsrh(r, out, 0)
    assert r.value & 0xFFFF == 0xBEEF


def test_mmx_media_register_limit():
    b = MmxBuilder()
    for _ in range(32):
        b.mreg()
    with pytest.raises(RuntimeError):
        b.mreg()


def test_mmx_three_operand_distinct_dest():
    """The paper extends MMX to three logical operands."""
    b = MmxBuilder()
    x, y, z = b.mreg(1), b.mreg(2), b.mreg()
    b.paddb(z, x, y)
    assert x.value == 1 and y.value == 2 and z.value == 3


# --- MDMX builder ------------------------------------------------------------------------

def test_mdmx_accumulate_and_readout():
    b = MdmxBuilder()
    x = b.mreg(0x0202020202020202)
    y = b.mreg(0x0101010101010101)
    acc = b.areg()
    b.paccsadb(acc, x, y)
    assert acc.value.lanes(ElemType.B) == [1] * 8
    out = b.mreg()
    b.racl(out, acc, ElemType.B)
    assert out.value == 0x0101010101010101


def _absent_opcode_calls(b):
    """One call of every inherited MMX method whose opcode ``b``'s table
    lacks, on registers and memory that any write would change."""
    base = b.ireg(b.mem.alloc(64))
    b.mem.write(base.value, 0x1122334455667788, 8)
    m, n = b.mreg(), b.mreg()
    if isinstance(b, MomBuilder):
        m.value = MomRegister(np.arange(1, 17, dtype=np.uint64))
        n.value = MomRegister(np.arange(101, 117, dtype=np.uint64))
    else:
        m.value, n.value = 0x0102030405060708, 0x8070605040302010
    i = b.ireg(-5)
    calls = {
        "m_ldq": (b.ld_op, lambda: b.m_ldq(m, base, 8)),
        "m_stq": (b.st_op, lambda: b.m_stq(m, base, 8)),
        "movq": ("movq", lambda: b.movq(m, n)),
        "movd_to": ("movd_to", lambda: b.movd_to(m, i)),
        "movd_from": ("movd_from", lambda: b.movd_from(i, m)),
        "pshufh": ("pshufh", lambda: b.pshufh(m, n, (3, 2, 1, 0))),
        "pextrh": ("pextrh", lambda: b.pextrh(i, n, 1)),
        "pinsrh": ("pinsrh", lambda: b.pinsrh(m, i, 1)),
        "psadb": ("psadb", lambda: b.psadb(m, n, n)),
        "psumb": ("psumb", lambda: b.psumb(m, n)),
        "psumh": ("psumh", lambda: b.psumh(m, n)),
        "psumw": ("psumw", lambda: b.psumw(m, n)),
    }
    absent = {method: call for method, (opcode, call) in calls.items()
              if opcode not in b.media_table}
    return absent, (base, m, n, i)


def _builder_state(b, regs):
    values = [list(r.value.rows) if isinstance(r.value, MomRegister)
              else r.value for r in regs]
    return values, b.mem.data.tobytes(), len(b.trace)


def test_absent_opcodes_raise_before_any_write():
    """MDMX lacks MMX's scalar reductions; MOM also lacks its scalar
    memory and move group.  Calling an inherited method whose opcode the
    table lacks raises ``KeyError`` and leaves every register, memory
    byte and the trace as they were."""
    expected = {
        MdmxBuilder: {"psadb", "psumb", "psumh", "psumw"},
        MomBuilder: {"m_ldq", "m_stq", "movq", "movd_to", "movd_from",
                     "pshufh", "pextrh", "pinsrh", "psadb", "psumb",
                     "psumh", "psumw"},
    }
    for cls, names in expected.items():
        b = cls(Memory(1 << 12))
        absent, regs = _absent_opcode_calls(b)
        assert set(absent) == names
        assert {op.name for op in MMX if hasattr(MmxBuilder, op.name)
                and op.name not in b.media_table} <= names
        for name, call in absent.items():
            before = _builder_state(b, regs)
            with pytest.raises(KeyError):
                call()
            assert _builder_state(b, regs) == before, name


def test_mdmx_accumulator_limit():
    b = MdmxBuilder()
    for _ in range(4):
        b.areg()
    with pytest.raises(RuntimeError):
        b.areg()


def test_mdmx_clracc_breaks_value():
    b = MdmxBuilder()
    acc = b.areg()
    x = b.mreg(5)
    b.paccaddb(acc, x, x)
    b.clracc(acc)
    assert acc.value.bits == 0
    assert b.trace[-1].op.name == "clracc"


def test_mdmx_acc_op_reads_and_writes_acc():
    b = MdmxBuilder()
    acc = b.areg()
    x = b.mreg(1)
    b.pmaddah(acc, x, x)
    ins = b.trace[-1]
    assert ins.dsts and reg_pool(ins.dsts[0]) == RegPool.ACC
    assert any(reg_pool(s) == RegPool.ACC for s in ins.srcs)


# --- MOM builder ---------------------------------------------------------------------------

def _loaded_matrix(b, data):
    addr = b.mem.alloc_array(data)
    base, stride = b.ireg(addr), b.ireg(8)
    reg = b.mreg()
    b.momldq(reg, base, stride)
    return reg


def test_mom_vl_bounds():
    b = MomBuilder()
    with pytest.raises(ValueError):
        b.setvli(17)
    b.setvli(16)
    assert b.vl == 16
    src = b.ireg(40)
    b.setvl(src)
    assert b.vl == 16      # clamped to MATRIX_ROWS


def test_mom_partial_vl_preserves_high_rows():
    b = MomBuilder()
    x, y, z = b.mreg(), b.mreg(), b.mreg()
    z.value = MomRegister(np.full(16, 7, dtype=np.uint64))
    x.value = MomRegister(np.ones(16, dtype=np.uint64))
    y.value = MomRegister(np.ones(16, dtype=np.uint64))
    b.setvli(4)
    b.paddb(z, x, y)
    assert z.value.get_row(0) == 2
    assert z.value.get_row(4) == 7     # untouched beyond VL


def test_mom_strided_load_element_addresses():
    b = MomBuilder()
    data = np.arange(256, dtype=np.uint8)
    addr = b.mem.alloc_array(data)
    base, stride = b.ireg(addr), b.ireg(16)
    reg = b.mreg()
    b.setvli(8)
    b.momldq(reg, base, stride)
    ins = b.trace[-1]
    assert ins.vl == 8 and ins.stride == 16
    assert ins.element_addresses() == [addr + 16 * i for i in range(8)]
    assert reg.value.get_row(1) == int.from_bytes(bytes(range(16, 24)), "little")


def test_mom_store_roundtrip():
    b = MomBuilder()
    src = _loaded_matrix(b, np.arange(128, dtype=np.uint8))
    out_addr = b.mem.alloc(128)
    base, stride = b.ireg(out_addr), b.ireg(8)
    b.setvli(16)
    b.momstq(src, base, stride)
    assert b.mem.load_array(out_addr, np.uint8, 128).tolist() == list(range(128))


def test_mom_row_ops():
    b = MomBuilder()
    reg = b.mreg()
    v = b.ireg(0xDEAD)
    b.mominsrow(reg, v, 5)
    assert reg.value.get_row(5) == 0xDEAD
    out = b.ireg()
    b.momextrow(out, reg, 5)
    assert out.value == 0xDEAD


def test_mom_broadcast_row():
    b = MomBuilder()
    src, dst = b.mreg(), b.mreg()
    v = b.ireg(0x42)
    b.mominsrow(src, v, 0)
    b.setvli(8)
    b.mombcastrow(dst, src)
    assert all(dst.value.get_row(i) == 0x42 for i in range(8))
    assert dst.value.get_row(8) == 0


def test_mom_matrix_sad_scalar_total():
    b = MomBuilder()
    x = _loaded_matrix(b, np.full(128, 9, dtype=np.uint8))
    y = _loaded_matrix(b, np.full(128, 4, dtype=np.uint8))
    acc = b.areg()
    b.setvli(16)
    b.mommsadb(acc, x, y)
    out = b.ireg()
    b.racl(out, acc, ElemType.Q)
    assert out.value == 5 * 128


def test_mom_matrix_dot_signed():
    b = MomBuilder()
    data = np.asarray([-3] * 8, dtype=np.int16)
    x = b.mreg()
    y = b.mreg()
    addr_x = b.mem.alloc_array(data)
    addr_y = b.mem.alloc_array(np.asarray([2] * 8, dtype=np.int16))
    bx, by, stride = b.ireg(addr_x), b.ireg(addr_y), b.ireg(8)
    b.setvli(2)
    b.momldq(x, bx, stride)
    b.momldq(y, by, stride)
    acc = b.areg()
    b.mommvmh(acc, x, y)
    out = b.ireg()
    b.racl(out, acc, ElemType.Q)
    assert out.value == -3 * 2 * 8


def test_mom_vsum_rows():
    b = MomBuilder()
    x = _loaded_matrix(b, np.ones(128, dtype=np.uint8))
    out = b.mreg()
    b.setvli(16)
    b.momvsumb(out, x)
    assert out.value.get_row(0) == 0x1010101010101010


def test_mom_vector_scalar_forms():
    b = MomBuilder()
    x = _loaded_matrix(b, np.full(128, 10, dtype=np.uint8))
    s = b.mreg()
    five = b.ireg(0x0505050505050505)
    b.mominsrow(s, five, 0)
    out = b.mreg()
    b.setvli(16)
    b.vsaddb(out, x, s)
    assert out.value.get_row(3) == 0x0F0F0F0F0F0F0F0F


def test_mom_transpose_instruction():
    b = MomBuilder()
    lanes = np.arange(64).reshape(16, 4) % 251
    src = b.mreg()
    src.value = MomRegister.from_lane_matrix(lanes, ElemType.H)
    dst = b.mreg()
    b.momtransh(dst, src)
    got = np.asarray(packed.rows_to_lanes(dst.value.rows, ElemType.H)).reshape(16, 4)
    assert (got[:4] == lanes[:4].T).all()


def test_mom_register_limits():
    b = MomBuilder()
    for _ in range(16):
        b.mreg()
    with pytest.raises(RuntimeError):
        b.mreg()
    b2 = MomBuilder()
    b2.areg()
    b2.areg()
    with pytest.raises(RuntimeError):
        b2.areg()


def test_mom_compute_records_vl():
    b = MomBuilder()
    x, y, z = b.mreg(), b.mreg(), b.mreg()
    b.setvli(5)
    b.paddb(z, x, y)
    assert b.trace[-1].vl == 5


def test_mom_racl_to_int_vs_matrix():
    b = MomBuilder()
    acc = b.areg()
    acc.value.scalar_add(77)
    out_i = b.ireg()
    b.racl(out_i, acc, ElemType.Q)
    assert out_i.value == 77
    out_m = b.mreg()
    b.racl(out_m, acc, ElemType.Q)
    assert out_m.value.get_row(0) == 77
