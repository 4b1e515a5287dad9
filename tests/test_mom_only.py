"""MOM's own instructions, held to per-row references at VL 0, 1, 5 and 16.

``tests/test_mom_derivation.py`` holds the 79 opcodes MOM shares with
MDMX to the MDMX method applied row by row.  This file covers the
instructions only MOM has: the fully-reducing matrix operations, the
column sums, the transposes and row shifts, the vector-scalar forms and
``momabs*``, the broadcasts and the strided loads and stores.  Each runs
on seeded rows mixed with edge words at every VL.  Each test holds the
result to a reference written here from the instruction's definition,
checks that the rows from VL up keep their values (and, at VL 0, the
accumulator), and checks the one trace row written.

A transpose or row shift rewrites all 16 rows whatever the VL; the VL
only goes into its trace row.
"""

import random
import struct

import pytest

from repro import MomBuilder
from repro.core.accumulator import PackedAccumulator
from repro.core.matrix import MomRegister
from repro.core.mom_isa import MATRIX_ROWS
from repro.isa.model import ElemType

B, H, W, Q = ElemType.B, ElemType.H, ElemType.W, ElemType.Q
U64 = (1 << 64) - 1
VLS = (0, 1, 5, 16)
TRIALS = 30

_CODE = {8: "b", 4: "h", 2: "i", 1: "q"}


def lanes_of(word, elem, signed=False):
    """The lanes of ``word``, lane 0 (the least significant) first."""
    code = _CODE[elem.lanes]
    return struct.unpack(f"<{elem.lanes}{code if signed else code.upper()}",
                         word.to_bytes(8, "little"))


def word_of(values, elem):
    """The word of lane values, each taken modulo the lane width."""
    mask = (1 << elem.bits) - 1
    return int.from_bytes(
        struct.pack(f"<{elem.lanes}{_CODE[elem.lanes].upper()}",
                    *[v & mask for v in values]), "little")


def clamp(value, elem, signed):
    bits = elem.bits
    lo, hi = ((-(1 << (bits - 1)), (1 << (bits - 1)) - 1) if signed
              else (0, (1 << bits) - 1))
    return min(max(value, lo), hi)


def _lane_word(lane, elem):
    return sum(lane << (i * elem.bits) for i in range(elem.lanes))


#: 0, all-ones, and every lane at its sign bit, signed maximum or one.
EDGE_WORDS = sorted({0, U64} | {
    _lane_word(lane, elem)
    for elem in (B, H, W, Q)
    for lane in (1 << (elem.bits - 1), (1 << (elem.bits - 1)) - 1, 1)
})


def _word(rng):
    return rng.choice(EDGE_WORDS) if rng.random() < 0.4 else rng.getrandbits(64)


def _matrix(rng):
    return MomRegister([_word(rng) for _ in range(MATRIX_ROWS)])


def rows_of(reg):
    return [reg.get_row(r) for r in range(MATRIX_ROWS)]


def _encoded(*handles):
    return tuple(h.encoded for h in handles)


def _one_row(b, before, name, vl, srcs, dsts, **fields):
    """The call wrote one trace row: ``name`` at ``vl`` reading ``srcs``
    and writing ``dsts``, with the memory ``fields`` given."""
    assert len(b.trace) == before + 1
    row = b.trace[-1]
    assert row.op.name == name and row.vl == vl
    assert row.srcs == _encoded(*srcs) and row.dsts == _encoded(*dsts)
    for field, value in fields.items():
        assert getattr(row, field) == value, field


# --- fully-reducing matrix operations ------------------------------------------------

def _sad(x, y):
    return abs(x - y)


def _sqd(x, y):
    return (x - y) * (x - y)


def _dot(x, y):
    return x * y


#: name -> (element type, signed lanes?, per-lane term, second operand's
#: row 0 against every row?)
REDUCTIONS = {
    "mommsadb": (B, False, _sad, False),
    "mommsadh": (H, False, _sad, False),
    "mommsqdb": (B, False, _sqd, False),
    "mommsqdh": (H, False, _sqd, False),
    "mommvmb": (B, True, _dot, False),
    "mommvmh": (H, True, _dot, False),
    "mommpvb": (B, True, _dot, True),
    "mommpvh": (H, True, _dot, True),
}


@pytest.mark.parametrize("name", sorted(REDUCTIONS))
def test_matrix_reduction_adds_one_total(name):
    """acc += the sum over rows below VL and over lanes of the term, as
    one 192-bit scalar; at VL 0 the accumulator keeps its value."""
    elem, signed, term, by_row0 = REDUCTIONS[name]
    rng = random.Random(f"reduce-{name}")
    b = MomBuilder()
    acc, x, y = b.areg(), b.mreg(), b.mreg()
    for vl in VLS:
        b.setvli(vl)
        for _ in range(TRIALS):
            start = rng.getrandbits(192)
            acc.value = PackedAccumulator(start)
            x.value, y.value = _matrix(rng), _matrix(rng)
            xs, ys = rows_of(x.value), rows_of(y.value)
            total = 0
            for r in range(vl):
                other = ys[0] if by_row0 else ys[r]
                total += sum(map(term, lanes_of(xs[r], elem, signed),
                                 lanes_of(other, elem, signed)))
            before = len(b.trace)
            getattr(b, name)(acc, x, y)
            assert acc.value.bits == (start + total) % (1 << 192), vl
            assert rows_of(x.value) == xs and rows_of(y.value) == ys
            _one_row(b, before, name, vl, (x, y, acc), (acc,))


# --- column sums -------------------------------------------------------------------------

#: name -> (element type, saturating?)
VSUMS = {"momvsumb": (B, True), "momvsumh": (H, True), "momvsumw": (W, False)}


@pytest.mark.parametrize("name", sorted(VSUMS))
def test_column_sums_into_row_zero(name):
    """Row 0 <- each unsigned lane summed over the rows below VL,
    saturated (bytes, halves) or wrapped (words); rows 1.. keep."""
    elem, saturating = VSUMS[name]
    rng = random.Random(f"vsum-{name}")
    b = MomBuilder()
    dst, a = b.mreg(), b.mreg()
    for vl in VLS:
        b.setvli(vl)
        for _ in range(TRIALS):
            dst.value, a.value = _matrix(rng), _matrix(rng)
            old, src = rows_of(dst.value), rows_of(a.value)
            sums = [sum(lanes_of(row, elem)[i] for row in src[:vl])
                    for i in range(elem.lanes)]
            if saturating:
                sums = [clamp(s, elem, False) for s in sums]
            before = len(b.trace)
            getattr(b, name)(dst, a)
            assert rows_of(dst.value) == [word_of(sums, elem)] + old[1:], vl
            assert rows_of(a.value) == src
            _one_row(b, before, name, vl, (a,), (dst,))


# --- transposes and row shifts ------------------------------------------------------------

def _transposed(rows, elem):
    n = elem.lanes
    lanes = [lanes_of(row, elem) for row in rows]
    return [word_of([lanes[r - r % n + j][r % n] for j in range(n)], elem)
            for r in range(MATRIX_ROWS)]


WHOLE_REGISTER = {
    "momtransb": lambda rows: _transposed(rows, B),
    "momtransh": lambda rows: _transposed(rows, H),
    "momtransw": lambda rows: _transposed(rows, W),
    "momrowshl": lambda rows: rows[1:] + [0],
    "momrowshr": lambda rows: [0] + rows[:-1],
}


@pytest.mark.parametrize("name", sorted(WHOLE_REGISTER))
def test_transpose_and_row_shift_rewrite_every_row(name):
    reference = WHOLE_REGISTER[name]
    rng = random.Random(f"whole-{name}")
    b = MomBuilder()
    dst, a = b.mreg(), b.mreg()
    for vl in VLS:
        b.setvli(vl)
        for _ in range(TRIALS):
            dst.value, a.value = _matrix(rng), _matrix(rng)
            src = rows_of(a.value)
            before = len(b.trace)
            getattr(b, name)(dst, a)
            assert rows_of(dst.value) == reference(src), vl
            assert rows_of(a.value) == src
            _one_row(b, before, name, vl, (a,), (dst,))


# --- vector-scalar forms and momabs -----------------------------------------------------------

def _lanewise(op, elem, signed):
    return lambda x, s: word_of([op(p, q) for p, q in zip(
        lanes_of(x, elem, signed), lanes_of(s, elem, signed))], elem)


#: name -> reference of one row from its word ``x`` and the scalar
#: operand's row 0 ``s`` (which the unary ``momabs*`` ignore).
ROW_OPS = {
    "vsaddb": _lanewise(lambda p, q: clamp(p + q, B, False), B, False),
    "vsaddh": _lanewise(lambda p, q: clamp(p + q, H, True), H, True),
    "vssubb": _lanewise(lambda p, q: clamp(p - q, B, False), B, False),
    "vssubh": _lanewise(lambda p, q: clamp(p - q, H, True), H, True),
    "vsmullh": _lanewise(lambda p, q: p * q, H, True),
    "vsmulhh": _lanewise(lambda p, q: (p * q) >> 16, H, True),
    "vsandq": lambda x, s: x & s,
    "vsorq": lambda x, s: x | s,
    "momabsb": lambda x, s: word_of(
        [clamp(abs(p), B, True) for p in lanes_of(x, B, True)], B),
    "momabsh": lambda x, s: word_of(
        [clamp(abs(p), H, True) for p in lanes_of(x, H, True)], H),
}


@pytest.mark.parametrize("name", sorted(ROW_OPS))
def test_row_op_below_vl(name):
    """Each row below VL <- the op of that row (and the second operand's
    row 0 for the ``vs*`` forms); rows from VL up keep."""
    reference = ROW_OPS[name]
    unary = name.startswith("momabs")
    rng = random.Random(f"row-{name}")
    b = MomBuilder()
    dst, a, s = b.mreg(), b.mreg(), b.mreg()
    srcs = (a,) if unary else (a, s)
    for vl in VLS:
        b.setvli(vl)
        for _ in range(TRIALS):
            dst.value, a.value, s.value = _matrix(rng), _matrix(rng), _matrix(rng)
            old, src, scalar = rows_of(dst.value), rows_of(a.value), s.value.get_row(0)
            before = len(b.trace)
            getattr(b, name)(dst, *srcs)
            want = [reference(row, scalar) for row in src[:vl]] + old[vl:]
            assert rows_of(dst.value) == want, vl
            assert rows_of(a.value) == src
            _one_row(b, before, name, vl, srcs, (dst,))


# --- broadcasts ----------------------------------------------------------------------------------

def test_load_broadcast_fills_rows_below_vl():
    rng = random.Random("ldbcast")
    b = MomBuilder()
    region = b.mem.alloc(64)
    b.mem.write_block(region, bytes(rng.getrandbits(8) for _ in range(64)))
    base, dst = b.ireg(region), b.mreg()
    for vl in VLS:
        b.setvli(vl)
        for offset in (0, 3, 8, 21, 56):
            dst.value = _matrix(rng)
            old = rows_of(dst.value)
            word = int.from_bytes(b.mem.read_block(region + offset, 8), "little")
            before = len(b.trace)
            b.momldbcast(dst, base, offset)
            assert rows_of(dst.value) == [word] * vl + old[vl:], (vl, offset)
            _one_row(b, before, "momldbcast", 1, (base,), (dst,),
                     addr=region + offset, nbytes=8)


def test_row_broadcast_fills_rows_below_vl():
    rng = random.Random("bcastrow")
    b = MomBuilder()
    dst, src = b.mreg(), b.mreg()
    for vl in VLS:
        b.setvli(vl)
        for _ in range(TRIALS):
            dst.value, src.value = _matrix(rng), _matrix(rng)
            old, row0 = rows_of(dst.value), src.value.get_row(0)
            before = len(b.trace)
            b.mombcastrow(dst, src)
            assert rows_of(dst.value) == [row0] * vl + old[vl:], vl
            _one_row(b, before, "mombcastrow", vl, (src,), (dst,))


# --- strided loads and stores ----------------------------------------------------------------------

#: (byte offset of the first row from the middle of a 1 KiB region, stride)
ACCESSES = [(0, 8), (0, 24), (0, 0), (5, 0), (0, -8), (3, -24), (3, 8),
            (1, 13), (7, -3)]


def _region(b, rng):
    region = b.mem.alloc(1024)
    b.mem.write_block(region, bytes(rng.getrandbits(8) for _ in range(1024)))
    return region


@pytest.mark.parametrize("offset,step", ACCESSES)
def test_strided_load(offset, step):
    """Row i <- the 8 bytes at base + i * stride for i below VL; an
    unaligned base takes ``momldq_u``."""
    rng = random.Random(f"ldq-{offset}-{step}")
    b = MomBuilder()
    region = _region(b, rng)
    addr = region + 512 + offset
    base, stride, dst = b.ireg(addr), b.ireg(step), b.mreg()
    name = "momldq_u" if addr % 8 else "momldq"
    for vl in VLS:
        b.setvli(vl)
        dst.value = _matrix(rng)
        old = rows_of(dst.value)
        want = [int.from_bytes(b.mem.read_block(addr + i * step, 8), "little")
                for i in range(vl)]
        before = len(b.trace)
        b.momldq(dst, base, stride)
        assert rows_of(dst.value) == want + old[vl:], vl
        _one_row(b, before, name, vl, (base, stride), (dst,),
                 addr=addr, nbytes=8, stride=step)


@pytest.mark.parametrize("offset,step", ACCESSES)
def test_strided_store(offset, step):
    """mem[base + i * stride] <- row i, in row order (a later row
    overwrites an earlier one it overlaps), for i below VL; the rest of
    memory keeps its bytes and an unaligned base takes ``momstq_u``."""
    rng = random.Random(f"stq-{offset}-{step}")
    b = MomBuilder()
    region = _region(b, rng)
    addr = region + 512 + offset
    base, stride, src = b.ireg(addr), b.ireg(step), b.mreg()
    name = "momstq_u" if addr % 8 else "momstq"
    for vl in VLS:
        b.setvli(vl)
        src.value = _matrix(rng)
        want = bytearray(b.mem.read_block(region, 1024))
        for i, row in enumerate(rows_of(src.value)[:vl]):
            at = addr + i * step - region
            want[at:at + 8] = row.to_bytes(8, "little")
        before = len(b.trace)
        b.momstq(src, base, stride)
        assert b.mem.read_block(region, 1024) == bytes(want), vl
        _one_row(b, before, name, vl, (src, base, stride), (),
                 addr=addr, nbytes=8, stride=step)
