"""Tests for the flat memory image and the dynamic trace container."""

import numpy as np
import pytest

from repro.emulib.memory import Memory
from repro.emulib.trace import DynInstr, Trace, reg, reg_index, reg_pool
from repro.isa.alpha import ALPHA
from repro.isa.mmx import MMX
from repro.core.mom_isa import MOM
from repro.isa.model import InstrClass, RegPool


# --- Memory ------------------------------------------------------------------

def test_alloc_respects_alignment():
    mem = Memory()
    a = mem.alloc(3, align=64)
    c = mem.alloc(8, align=64)
    assert a % 64 == 0 and c % 64 == 0 and c > a


def test_alloc_rejects_bad_alignment():
    with pytest.raises(ValueError):
        Memory().alloc(8, align=3)


def test_alloc_exhaustion():
    mem = Memory(size=1024)
    with pytest.raises(MemoryError):
        mem.alloc(1 << 20)


def test_read_write_widths_little_endian():
    mem = Memory()
    addr = mem.alloc(16)
    mem.write(addr, 0x0123456789ABCDEF, 8)
    assert mem.read(addr, 1) == 0xEF
    assert mem.read(addr, 2) == 0xCDEF
    assert mem.read(addr, 4) == 0x89ABCDEF
    assert mem.read(addr, 8) == 0x0123456789ABCDEF


def test_signed_reads():
    mem = Memory()
    addr = mem.alloc(8)
    mem.write(addr, -1, 2)
    assert mem.read(addr, 2, signed=True) == -1
    assert mem.read(addr, 2) == 0xFFFF


def test_write_truncates():
    mem = Memory()
    addr = mem.alloc(8)
    mem.write(addr, 0x1FF, 1)
    assert mem.read(addr, 1) == 0xFF


def test_out_of_bounds_rejected():
    mem = Memory(size=256)
    with pytest.raises(IndexError):
        mem.read(0, 1)                       # below BASE
    with pytest.raises(IndexError):
        mem.read(Memory.BASE + 256, 1)


def test_array_roundtrip():
    mem = Memory()
    data = np.arange(100, dtype=np.int16)
    addr = mem.alloc_array(data)
    assert (mem.load_array(addr, np.int16, 100) == data).all()


def test_block_roundtrip():
    mem = Memory()
    addr = mem.alloc(32)
    mem.write_block(addr, b"hello world")
    assert mem.read_block(addr, 11) == b"hello world"


# --- register encoding --------------------------------------------------------

def test_reg_encode_decode():
    for pool in RegPool:
        for index in (0, 1, 31, 255):
            e = reg(pool, index)
            assert reg_pool(e) == pool and reg_index(e) == index


def test_reg_index_out_of_range():
    with pytest.raises(ValueError):
        reg(RegPool.INT, 256)


# --- DynInstr / Trace ------------------------------------------------------------

def test_element_addresses_scalar_and_vector():
    ld = DynInstr(ALPHA["ldq"], addr=0x1000, nbytes=8)
    assert ld.element_addresses() == [0x1000]
    vec = DynInstr(MOM["momldq"], addr=0x1000, nbytes=8, stride=32, vl=4)
    assert vec.element_addresses() == [0x1000, 0x1020, 0x1040, 0x1060]
    alu = DynInstr(ALPHA["addq"])
    assert alu.element_addresses() == []


def test_trace_histograms():
    t = Trace("alpha")
    t.append(DynInstr(ALPHA["addq"]))
    t.append(DynInstr(ALPHA["addq"]))
    t.append(DynInstr(ALPHA["ldq"], addr=8, nbytes=8))
    assert t.opcode_histogram() == {"addq": 2, "ldq": 1}
    assert t.class_histogram()[InstrClass.INT_SIMPLE] == 2
    assert t.memory_references() == 1


def test_trace_operation_count_scales_with_vl():
    t = Trace("mom")
    t.append(DynInstr(MOM["paddb"], vl=16))       # 16 rows x 8 lanes
    assert t.operation_count() == 128
    t2 = Trace("mmx")
    t2.append(DynInstr(MMX["paddb"], vl=1))
    assert t2.operation_count() == 8


def test_trace_extend_and_iteration():
    a, b = Trace("alpha"), Trace("alpha")
    a.append(DynInstr(ALPHA["addq"]))
    b.append(DynInstr(ALPHA["subq"]))
    a.extend(b)
    assert len(a) == 2
    assert [i.op.name for i in a] == ["addq", "subq"]
    assert a[1].op.name == "subq"


def test_branch_count():
    t = Trace("alpha")
    t.append(DynInstr(ALPHA["bne"], taken=True, site=1))
    t.append(DynInstr(ALPHA["br"], taken=True, site=2))   # JUMP, not BRANCH
    assert t.branch_count() == 1


def test_trace_summary_cached_and_invalidated_on_append():
    t = Trace("alpha")
    t.append(DynInstr(ALPHA["addq"]))
    assert t.operation_count() == 1
    assert t.summary() is t.summary()          # cached between reads
    t.append(DynInstr(ALPHA["addq"]))          # append invalidates
    assert t.operation_count() == 2
    assert t.opcode_histogram() == {"addq": 2}


def test_trace_summary_invalidated_on_extend():
    a, b = Trace("alpha"), Trace("alpha")
    a.append(DynInstr(ALPHA["addq"]))
    assert a.branch_count() == 0               # populate the cache
    b.append(DynInstr(ALPHA["bne"], taken=True, site=1))
    a.extend(b)
    assert a.branch_count() == 1
    assert a.class_histogram()[InstrClass.BRANCH] == 1


def test_trace_histogram_callers_cannot_corrupt_cache():
    t = Trace("alpha")
    t.append(DynInstr(ALPHA["addq"]))
    hist = t.opcode_histogram()
    hist["addq"] = 999                          # mutate the returned copy
    assert t.opcode_histogram() == {"addq": 1}


def test_dyninstr_repr():
    ins = DynInstr(MOM["momldq"], addr=0x2000, vl=8, stride=8)
    assert "momldq" in repr(ins)
