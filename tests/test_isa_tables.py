"""The ISA tables must match the paper's reported opcode counts exactly."""

import pytest

from repro.core.mom_isa import ACC_BITS, MATRIX_ROWS, MOM, ROW_BITS
from repro.isa.alpha import ALPHA
from repro.isa.mdmx import MDMX
from repro.isa.mmx import MMX
from repro.isa.model import ElemType, InstrClass, IsaTable, Opcode


def test_paper_opcode_counts():
    """Section 3.1: 67 MMX, 88 MDMX, 121 MOM instructions."""
    assert len(MMX) == 67
    assert len(MDMX) == 88
    assert len(MOM) == 121


def test_mom_register_geometry():
    """Section 2.2: 16 words of 64 bits; 192-bit accumulators."""
    assert MATRIX_ROWS == 16
    assert ROW_BITS == 64
    assert ACC_BITS == 192


@pytest.mark.parametrize("table", [ALPHA, MMX, MDMX, MOM])
def test_all_opcodes_well_formed(table):
    for op in table:
        assert op.isa == table.name
        assert op.latency >= 1
        assert isinstance(op.iclass, InstrClass)


@pytest.mark.parametrize("table", [ALPHA, MMX, MDMX, MOM])
def test_mnemonics_unique(table):
    names = [op.name for op in table]
    assert len(names) == len(set(names))


def test_duplicate_opcode_rejected():
    t = IsaTable("toy")
    t.add(Opcode(name="foo", isa="toy", iclass=InstrClass.INT_SIMPLE))
    with pytest.raises(ValueError):
        t.add(Opcode(name="foo", isa="toy", iclass=InstrClass.INT_SIMPLE))


def test_wrong_isa_rejected():
    t = IsaTable("toy")
    with pytest.raises(ValueError):
        t.add(Opcode(name="foo", isa="other", iclass=InstrClass.INT_SIMPLE))


def test_negative_latency_rejected():
    with pytest.raises(ValueError):
        Opcode(name="x", isa="t", iclass=InstrClass.INT_SIMPLE, latency=-1)


def test_empty_name_rejected():
    with pytest.raises(ValueError):
        Opcode(name="", isa="t", iclass=InstrClass.INT_SIMPLE)


def test_mdmx_shares_packed_subset_with_mmx():
    """MDMX = MMX packed ops (minus scalar reductions) + accumulators."""
    mmx_names = {op.name for op in MMX}
    shared = [op for op in MDMX if op.name in mmx_names]
    assert len(shared) == 60     # 63 shared minus 3 renamed memory ops
    for op in shared:
        assert MMX[op.name].iclass == op.iclass
        assert MMX[op.name].latency == op.latency


def test_mdmx_drops_scalar_reductions():
    for name in ("psadb", "psumb", "psumh", "psumw"):
        assert name in MMX
        assert name not in MDMX


def test_mdmx_accumulator_ops_marked():
    accs = [op for op in MDMX if op.reads_acc or op.writes_acc]
    assert len(accs) == 25
    assert "pmaddah" in MDMX and MDMX["pmaddah"].writes_acc


def test_mom_vectorizes_mdmx():
    """Most MOM opcodes are vector versions of MDMX ones (Section 2.2)."""
    mdmx_names = {op.name for op in MDMX}
    inherited = [op for op in MOM if op.name in mdmx_names]
    assert len(inherited) == 79


def test_mom_has_paper_categories():
    cats = MOM.categories()
    assert cats["memory"] == 8
    assert cats["matrix"] == 11
    for name in ("momldq", "momstq", "setvl", "setvli", "readvl",
                 "momtransh", "mommpvh", "mommsqdb", "mommsadb"):
        assert name in MOM


def test_mom_memory_ops_are_media_memory():
    assert MOM["momldq"].iclass == InstrClass.MED_LOAD
    assert MOM["momstq"].iclass == InstrClass.MED_STORE


def test_vl_ops_use_integer_pool_class():
    """The VL register renames through the integer pool (Section 3.2)."""
    assert MOM["setvl"].iclass == InstrClass.INT_SIMPLE
    assert MOM["setvli"].iclass == InstrClass.INT_SIMPLE


def test_alpha_has_no_media_ops():
    for op in ALPHA:
        assert not op.iclass.is_media


def test_instr_class_predicates():
    assert InstrClass.LOAD.is_memory and InstrClass.LOAD.is_load
    assert InstrClass.MED_STORE.is_memory and InstrClass.MED_STORE.is_store
    assert InstrClass.MED_STORE.is_media
    assert InstrClass.BRANCH.is_control and InstrClass.JUMP.is_control
    assert not InstrClass.INT_SIMPLE.is_memory


def test_elem_type_geometry():
    assert ElemType.B.lanes == 8 and ElemType.B.bits == 8
    assert ElemType.H.lanes == 4 and ElemType.H.bits == 16
    assert ElemType.W.lanes == 2 and ElemType.W.bits == 32
    assert ElemType.Q.lanes == 1 and ElemType.Q.bits == 64


def test_table_lookup_interfaces():
    assert "paddb" in MMX
    assert MMX["paddb"].elem == ElemType.B
    with pytest.raises(KeyError):
        MMX["no_such_op"]
