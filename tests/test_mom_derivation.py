"""MOM's shared instructions are MDMX's, applied to the first VL rows.

The MOM table copies 79 opcodes from MDMX's, and ``MomBuilder`` inherits
their methods from the MMX and MDMX builders, meeting its matrix registers
through three adapters.  For every shared opcode, on seeded rows mixed
with edge words at several VLs, this holds MOM equal to the MDMX method
applied row by row:

* a packed operation writes, in each row below VL, what MDMX writes for
  that row's words, and leaves the rows from VL up as they were;
* an accumulate leaves the accumulator MDMX leaves after VL successive
  accumulates, one per row;
* a read-out writes MDMX's word into row 0 of a matrix register (the
  other rows kept) or, sign-wrapped, into an integer register;
* a restore from integer registers equals MDMX's from the same words.

Each call writes one row with the opcode, operands and VL expected.
"""

import dataclasses
import inspect
import random

import numpy as np
import pytest

from repro import MdmxBuilder, MomBuilder
from repro.core.accumulator import PackedAccumulator
from repro.core.matrix import MomRegister
from repro.core.mom_isa import MATRIX_ROWS, MOM
from repro.emulib.base_builder import wrap64
from repro.isa.mdmx import MDMX
from repro.isa.model import ElemType

_U64 = (1 << 64) - 1
VLS = (0, 1, 5, 16)
TRIALS = 60

SHARED = sorted({op.name for op in MDMX} & {op.name for op in MOM})


def _params(name):
    """Operand names of the shared method, after ``self``."""
    return tuple(inspect.signature(getattr(MdmxBuilder, name)).parameters)[1:]


PACKED = [n for n in SHARED if _params(n)[0] == "dst" and _params(n)[1] != "acc"]
READOUTS = [n for n in SHARED if _params(n)[:2] == ("dst", "acc")]
ACCUMULATES = [n for n in SHARED if _params(n) == ("acc", "a", "b")]
RESTORES = [n for n in SHARED if _params(n)[0] == "acc" and n not in ACCUMULATES]


def _lane_word(lane: int, elem: ElemType) -> int:
    return sum(lane << (i * elem.bits) for i in range(elem.lanes))


#: 0, all-ones, and every lane at its sign bit, signed maximum or one.
EDGE_WORDS = sorted({0, _U64} | {
    _lane_word(lane, elem)
    for elem in (ElemType.B, ElemType.H, ElemType.W, ElemType.Q)
    for lane in (1 << (elem.bits - 1), (1 << (elem.bits - 1)) - 1, 1)
})


def _word(rng: random.Random) -> int:
    return rng.choice(EDGE_WORDS) if rng.random() < 0.4 else rng.getrandbits(64)


def _matrix(rng: random.Random) -> MomRegister:
    return MomRegister(np.array([_word(rng) for _ in range(MATRIX_ROWS)],
                                dtype=np.uint64))


def _encoded(*handles):
    return tuple(h.encoded for h in handles)


def test_every_shared_opcode_is_covered():
    assert len(SHARED) == 79
    groups = (PACKED, READOUTS, ACCUMULATES, RESTORES)
    assert sorted(n for group in groups for n in group) == SHARED
    assert (len(PACKED), len(ACCUMULATES), len(READOUTS), len(RESTORES)) \
        == (54, 15, 7, 3)


@pytest.mark.parametrize("name", PACKED)
def test_packed_op_is_mdmx_on_each_row_below_vl(name):
    params = _params(name)
    n_srcs = len([p for p in params[1:] if p != "count"])
    rng = random.Random(f"packed-{name}")
    mom, mdmx = MomBuilder(), MdmxBuilder()
    dst, srcs = mom.mreg(), [mom.mreg() for _ in range(n_srcs)]
    m_dst, m_srcs = mdmx.mreg(), [mdmx.mreg() for _ in range(n_srcs)]
    for vl in VLS:
        mom.setvli(vl)
        for _ in range(TRIALS):
            extra = [rng.choice((0, 1, 7, 8, 15, 16, 31, 32, 63, 64))] \
                if "count" in params else []
            dst.value = _matrix(rng)
            for s in srcs:
                s.value = _matrix(rng)
            before = dst.value.rows.copy()
            rows = len(mom.trace)
            getattr(mom, name)(dst, *srcs, *extra)
            for r in range(vl):
                m_dst.value = int(before[r])
                for m, s in zip(m_srcs, srcs):
                    m.value = s.value.get_row(r)
                getattr(mdmx, name)(m_dst, *m_srcs, *extra)
                assert dst.value.get_row(r) == m_dst.value, (vl, r)
            assert dst.value.rows[vl:] == before[vl:]
            assert len(mom.trace) == rows + 1
            row = mom.trace[-1]
            assert row.op.name == name and row.vl == vl
            assert row.srcs == _encoded(*srcs) and row.dsts == _encoded(dst)


@pytest.mark.parametrize("name", ACCUMULATES)
def test_accumulate_is_vl_successive_mdmx_accumulates(name):
    rng = random.Random(f"accumulate-{name}")
    mom, mdmx = MomBuilder(), MdmxBuilder()
    acc, a, b = mom.areg(), mom.mreg(), mom.mreg()
    m_acc, m_a, m_b = mdmx.areg(), mdmx.mreg(), mdmx.mreg()
    for vl in VLS:
        mom.setvli(vl)
        for _ in range(TRIALS):
            bits = rng.getrandbits(192)
            acc.value, m_acc.value = PackedAccumulator(bits), PackedAccumulator(bits)
            a.value, b.value = _matrix(rng), _matrix(rng)
            getattr(mom, name)(acc, a, b)
            for r in range(vl):
                m_a.value, m_b.value = a.value.get_row(r), b.value.get_row(r)
                getattr(mdmx, name)(m_acc, m_a, m_b)
            assert acc.value.bits == m_acc.value.bits, vl
            row = mom.trace[-1]
            assert row.op.name == name and row.vl == vl
            assert row.srcs == _encoded(a, b, acc) and row.dsts == _encoded(acc)


@pytest.mark.parametrize("name", READOUTS)
def test_readout_is_mdmx_word_in_row_zero_or_int(name):
    rng = random.Random(f"readout-{name}")
    if _params(name)[2] == "elem":
        args = [ElemType.B, ElemType.H, ElemType.W, ElemType.Q]
    else:
        args = [0, 1, 7, 8, 16, 23, 40]
    mom, mdmx = MomBuilder(), MdmxBuilder()
    acc, matrix, integer = mom.areg(), mom.mreg(), mom.ireg()
    m_acc, m_dst = mdmx.areg(), mdmx.mreg()
    for vl in VLS:
        mom.setvli(vl)
        for _ in range(TRIALS):
            bits = rng.getrandbits(192)
            arg = rng.choice(args)
            acc.value, m_acc.value = PackedAccumulator(bits), PackedAccumulator(bits)
            getattr(mdmx, name)(m_dst, m_acc, arg)
            matrix.value = _matrix(rng)
            before = matrix.value.rows.copy()
            getattr(mom, name)(matrix, acc, arg)
            assert matrix.value.get_row(0) == m_dst.value
            assert matrix.value.rows[1:] == before[1:]
            getattr(mom, name)(integer, acc, arg)
            assert integer.value == wrap64(m_dst.value)
            assert acc.value.bits == bits
            for dst in (matrix, integer):
                row = mom.trace[-1 if dst is integer else -2]
                assert row.op.name == name and row.vl == 1
                assert row.srcs == _encoded(acc) and row.dsts == _encoded(dst)


@pytest.mark.parametrize("name", RESTORES)
def test_restore_from_int_registers_is_mdmx_restore(name):
    rng = random.Random(f"restore-{name}")
    n_srcs = len(_params(name)) - 1
    mom, mdmx = MomBuilder(), MdmxBuilder()
    acc, srcs = mom.areg(), [mom.ireg() for _ in range(n_srcs)]
    m_acc, m_srcs = mdmx.areg(), [mdmx.mreg() for _ in range(n_srcs)]
    for vl in VLS:
        mom.setvli(vl)
        for _ in range(TRIALS):
            bits = rng.getrandbits(192)
            acc.value, m_acc.value = PackedAccumulator(bits), PackedAccumulator(bits)
            for s, m in zip(srcs, m_srcs):
                m.value = _word(rng)
                s.value = wrap64(m.value)
            getattr(mom, name)(acc, *srcs)
            getattr(mdmx, name)(m_acc, *m_srcs)
            assert acc.value.bits == m_acc.value.bits
            row = mom.trace[-1]
            assert row.op.name == name and row.vl == 1
            assert row.srcs == _encoded(*srcs, *([acc] if srcs else []))
            assert row.dsts == _encoded(acc)


def test_restore_records_name_their_register_pool():
    """MOM's copies of the MDMX restores say what MOM's builder restores
    from -- integer registers, where MDMX's say media registers -- and
    differ from MDMX's records in nothing else; no other shared record
    differs but in its ISA."""
    restores = {"wacl", "wach"}
    assert restores <= set(RESTORES)
    for name in SHARED:
        mom, mdmx = MOM[name], MDMX[name]
        assert dataclasses.replace(mom, isa="mdmx",
                                   description=mdmx.description) == mdmx
        if name in restores:
            assert "from a media register" in mdmx.description
            assert "integer register" in mom.description
            assert "media" not in mom.description
        else:
            assert mom.description == mdmx.description, name
