"""Tests for the MOM matrix register and the packed accumulators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accumulator import PackedAccumulator, PipelinedAccumulation
from repro.core.matrix import MomRegister
from repro.core import packed
from repro.isa.model import ElemType

words16 = st.lists(st.integers(0, (1 << 64) - 1), min_size=16, max_size=16)


def _lane_rows(reg, elem, signed=False):
    """The register's lanes, one tuple per row."""
    lanes = packed.rows_to_lanes(reg.rows, elem, signed)
    n = elem.lanes
    return [lanes[i:i + n] for i in range(0, len(lanes), n)]


# --- MomRegister -----------------------------------------------------------------

def test_register_starts_zero():
    reg = MomRegister()
    assert reg.rows == [0] * 16


def test_register_requires_16_rows():
    with pytest.raises(ValueError):
        MomRegister([0] * 8)
    with pytest.raises(ValueError):
        MomRegister([0] * 17)


def test_row_accessors_mask():
    reg = MomRegister([-1] + [0] * 15).with_rows([(1 << 64) - 2], 3)
    assert reg.get_row(0) == reg.get_row(3) + 1 == (1 << 64) - 1
    assert type(reg.get_row(0)) is int
    assert MomRegister(np.arange(16, dtype=np.uint64)).rows == list(range(16))


def test_copy_is_independent():
    reg = MomRegister()
    dup = reg.copy()
    dup.rows[0] = 5
    assert reg.get_row(0) == 0
    assert reg.with_rows([7, 8], 14).rows[13:] == [0, 7, 8]
    assert reg.rows == [0] * 16


def test_register_is_unhashable():
    """Registers compare by their rows and are mutable, so (like
    ``PackedAccumulator``) they cannot be hashed."""
    assert MomRegister() == MomRegister()
    with pytest.raises(TypeError):
        hash(MomRegister())
    with pytest.raises(TypeError):
        {MomRegister(), MomRegister()}


def test_lane_matrix_roundtrip():
    lanes = [tuple(range(4 * r, 4 * r + 4)) for r in range(16)]
    reg = MomRegister.from_lane_matrix(lanes, ElemType.H)
    assert _lane_rows(reg, ElemType.H) == lanes


def test_from_lane_matrix_validates_shape():
    with pytest.raises(ValueError):
        MomRegister.from_lane_matrix([[0] * 3] * 16, ElemType.H)
    with pytest.raises(ValueError):
        MomRegister.from_lane_matrix([[0] * 4] * 17, ElemType.H)


def test_partial_rows_zero_filled():
    reg = MomRegister.from_lane_matrix([[1] * 8] * 4, ElemType.B)
    assert reg.get_row(3) != 0
    assert reg.get_row(4) == 0


@given(words16)
@settings(max_examples=30)
def test_transpose_involution(rows):
    reg = MomRegister(rows)
    for elem in (ElemType.B, ElemType.H, ElemType.W):
        assert reg.transpose_blocks(elem).transpose_blocks(elem) == reg


def test_transpose_h_block_semantics():
    lanes = [tuple(range(4 * r, 4 * r + 4)) for r in range(16)]
    reg = MomRegister.from_lane_matrix(lanes, ElemType.H)
    out = _lane_rows(reg.transpose_blocks(ElemType.H), ElemType.H)
    for block in range(4):
        src = lanes[4 * block : 4 * block + 4]
        assert out[4 * block : 4 * block + 4] == list(zip(*src))


def test_transpose_q_is_identity():
    reg = MomRegister(range(16))
    assert reg.transpose_blocks(ElemType.Q) == reg


def test_row_shift_directions():
    reg = MomRegister(range(16))
    up = reg.row_shift(towards_zero=True)
    assert up.get_row(0) == 1 and up.get_row(15) == 0
    down = reg.row_shift(towards_zero=False)
    assert down.get_row(0) == 0 and down.get_row(1) == 0


def test_equality_and_repr():
    a = MomRegister(range(16))
    b = MomRegister(range(16))
    assert a == b and not (a == MomRegister())
    assert "MomRegister" in repr(a)


# --- PackedAccumulator -------------------------------------------------------------

def test_acc_starts_clear():
    assert PackedAccumulator().bits == 0


def test_acc_lane_widths():
    acc = PackedAccumulator()
    assert len(acc.lanes(ElemType.B)) == 8
    assert len(acc.lanes(ElemType.H)) == 4
    assert len(acc.lanes(ElemType.W)) == 2


def test_madd_accumulates_products():
    acc = PackedAccumulator()
    (a,) = packed.lanes_to_rows([100, -100, 3, 4], ElemType.H)
    acc.madd([a], [a], ElemType.H)
    assert acc.lanes(ElemType.H) == [10000, 10000, 9, 16]
    acc.madd([a], [a], ElemType.H, subtract=True)
    assert acc.lanes(ElemType.H) == [0, 0, 0, 0]


def test_acc_add_and_subtract():
    acc = PackedAccumulator()
    acc.acc_add([0x05], [0x03], ElemType.B)
    assert acc.lanes(ElemType.B)[0] == 8
    acc.acc_add([0x00], [0x03], ElemType.B, subtract=True)
    assert acc.lanes(ElemType.B)[0] == 5


def test_acc_sad_and_sqd():
    acc = PackedAccumulator()
    acc.acc_sad([10], [3], ElemType.B)
    assert acc.lanes(ElemType.B)[0] == 7
    acc.acc_sqd([10], [3], ElemType.B)
    assert acc.lanes(ElemType.B)[0] == 7 + 49


def test_lane_wraparound_two_complement():
    acc = PackedAccumulator()
    acc.acc_add([0], [1], ElemType.B, subtract=True)
    assert acc.lanes(ElemType.B)[0] == -1
    assert acc.lanes(ElemType.B)[1] == 0    # neighbours untouched


def test_read_slice_reassembles_lane():
    acc = PackedAccumulator()
    value = 0x123456
    acc.scalar_add(value)     # lane 0 of B format = low 24 bits
    lo = acc.read_slice("low", ElemType.B) & 0xFF
    mid = acc.read_slice("mid", ElemType.B) & 0xFF
    hi = acc.read_slice("high", ElemType.B) & 0xFF
    assert lo | (mid << 8) | (hi << 16) == value


def test_read_saturated_rounds_and_clips():
    acc = PackedAccumulator()
    a, one = packed.lanes_to_rows([1000, -1000, 3, 0, 1, 1, 1, 1], ElemType.H)
    acc.madd([a], [one], ElemType.H)
    word = acc.read_saturated(ElemType.H, signed=True, shift=2)
    lanes = packed.rows_to_lanes([word], ElemType.H, signed=True)
    # (x + 2) >> 2 with arithmetic shift: 1000 -> 250, -1000 -> -250, 3 -> 1
    assert list(lanes) == [250, -250, 1, 0]


def test_read_saturated_clips_unsigned():
    acc = PackedAccumulator()
    acc.acc_add([0], [1], ElemType.B, subtract=True)
    word = acc.read_saturated(ElemType.B, signed=False)
    assert word & 0xFF == 0      # -1 clips to 0


def test_read_saturated_negative_shift_rejected():
    with pytest.raises(ValueError):
        PackedAccumulator().read_saturated(ElemType.B, True, shift=-1)


def test_thirds_roundtrip():
    acc = PackedAccumulator()
    acc.write_third("low", 0x1111)
    acc.write_third("mid", 0x2222)
    acc.write_third("high", 0x3333)
    assert acc.read_third("low") == 0x1111
    assert acc.read_third("mid") == 0x2222
    assert acc.read_third("high") == 0x3333


def test_scalar_add_wraps_192_bits():
    acc = PackedAccumulator()
    acc.scalar_add((1 << 192) - 1)
    acc.scalar_add(1)
    assert acc.bits == 0


def test_scalar_total_signed():
    acc = PackedAccumulator()
    acc.scalar_add(-5)
    assert acc.read_slice("low", ElemType.Q) == (1 << 64) - 5


@given(st.lists(st.integers(-1000, 1000), min_size=8, max_size=8))
@settings(max_examples=40)
def test_acc_matches_integer_reference(deltas):
    acc = PackedAccumulator()
    reference = [0] * 8
    for d in deltas:
        (word,) = packed.lanes_to_rows([abs(d) % 256] * 8, ElemType.B)
        acc.acc_sad([word], [0], ElemType.B)
        for i in range(8):
            reference[i] += abs(d) % 256
    assert acc.lanes(ElemType.B) == reference


def test_acc_copy_and_eq():
    acc = PackedAccumulator(12345)
    assert acc.copy() == acc
    assert acc != PackedAccumulator(1)


# --- PipelinedAccumulation ------------------------------------------------------------

def test_mdmx_chain_serializes():
    model = PipelinedAccumulation(latency=4)
    assert model.mdmx_cycles(16) == 64


def test_mom_streams():
    model = PipelinedAccumulation(latency=4)
    assert model.mom_cycles(rows=16, instructions=1) == 20
    assert model.mom_cycles(rows=16, instructions=2) == 36


def test_mom_lanes_halve_streaming():
    wide = PipelinedAccumulation(latency=4, lanes=2)
    assert wide.mom_cycles(rows=16) == 12


def test_pipelined_validation():
    with pytest.raises(ValueError):
        PipelinedAccumulation(latency=0)
    with pytest.raises(ValueError):
        PipelinedAccumulation(latency=1).mdmx_cycles(-1)
    assert PipelinedAccumulation(latency=3).mom_cycles(0) == 0


# --- one fold per MOM instruction ---------------------------------------------------
#
# A MOM accumulate instruction folds all VL rows in one step (the rows
# in, one per-lane sum out); an MDMX instruction folds a one-row sequence.
# Lanes wrap modulo their width, so the one-step fold must leave exactly
# the bits of folding the rows one at a time.

U64_MAX = (1 << 64) - 1
ACC_MAX = (1 << 192) - 1

FOLDS = {
    "madd-signed": lambda acc, a, b, e: acc.madd(a, b, e, signed=True),
    "madd-unsigned": lambda acc, a, b, e: acc.madd(a, b, e, signed=False),
    "msub": lambda acc, a, b, e: acc.madd(a, b, e, subtract=True),
    "add": lambda acc, a, b, e: acc.acc_add(a, b, e),
    "sub": lambda acc, a, b, e: acc.acc_add(a, b, e, subtract=True),
    "sad": lambda acc, a, b, e: acc.acc_sad(a, b, e),
    "sqd": lambda acc, a, b, e: acc.acc_sqd(a, b, e),
}
FOLD_ELEMS = (ElemType.B, ElemType.H, ElemType.W)


def _fold_agrees(a_rows, b_rows, start):
    for name, fold in FOLDS.items():
        for elem in FOLD_ELEMS:
            one_step = PackedAccumulator(start)
            fold(one_step, a_rows, b_rows, elem)
            by_row = PackedAccumulator(start)
            for x, y in zip(a_rows, b_rows):
                fold(by_row, [x], [y], elem)
            assert one_step == by_row, (name, elem)


@given(words16, words16, st.integers(0, 16), st.integers(0, ACC_MAX))
@settings(max_examples=40, deadline=None)
def test_one_step_fold_matches_row_by_row(a_rows, b_rows, vl, start):
    _fold_agrees(a_rows[:vl], b_rows[:vl], start)


@pytest.mark.parametrize("a_word,b_word", [
    (U64_MAX, U64_MAX),                         # every lane at its maximum
    (0x8080808080808080, 0x8080808080808080),   # every byte lane at its minimum
    (0x8000800080008000, 0x8000800080008000),   # every half lane at its minimum
    (0x8000000080000000, U64_MAX),
    (0, U64_MAX),
])
@pytest.mark.parametrize("start", [0, ACC_MAX, 1 << 191])
def test_one_step_fold_at_the_extremes(a_word, b_word, start):
    """Sixteen rows of the largest products and differences: the sums a
    16-row fold adds at once must not overflow before the lanes wrap."""
    _fold_agrees([a_word] * 16, [b_word] * 16, start)


def test_fold_of_no_rows_leaves_the_accumulator():
    acc = PackedAccumulator(12345)
    for fold in FOLDS.values():
        for elem in FOLD_ELEMS:
            fold(acc, [], [], elem)
    assert acc == PackedAccumulator(12345)


#: Each fold's per-lane contribution, written out independently of the
#: accumulator: (signed lanes?, contribution of one row's lanes x, y).
LANE_REFERENCE = {
    "madd-signed": (True, lambda x, y: x * y),
    "madd-unsigned": (False, lambda x, y: x * y),
    "msub": (True, lambda x, y: -x * y),
    "add": (False, lambda x, y: x + y),
    "sub": (False, lambda x, y: x - y),
    "sad": (False, lambda x, y: abs(x - y)),
    "sqd": (False, lambda x, y: (x - y) ** 2),
}


def _lanes(word, elem, signed):
    bits = elem.bits
    out = []
    for i in range(elem.lanes):
        lane = (word >> (i * bits)) & ((1 << bits) - 1)
        if signed and lane >> (bits - 1):
            lane -= 1 << bits
        out.append(lane)
    return out


@given(words16, words16, st.integers(0, 16), st.integers(0, ACC_MAX))
@settings(max_examples=30, deadline=None)
def test_folds_match_a_lane_reference(a_rows, b_rows, vl, start):
    a, b = a_rows[:vl], b_rows[:vl]
    for name, fold in FOLDS.items():
        signed, contribution = LANE_REFERENCE[name]
        for elem in FOLD_ELEMS:
            acc = PackedAccumulator(start)
            expected = acc.lanes(elem)
            fold(acc, a, b, elem)
            for x, y in zip(a_rows[:vl], b_rows[:vl]):
                for i, (lx, ly) in enumerate(zip(_lanes(x, elem, signed),
                                                 _lanes(y, elem, signed))):
                    expected[i] += contribution(lx, ly)
            width = 192 // elem.lanes
            assert [v % (1 << width) for v in acc.lanes(elem)] == \
                [v % (1 << width) for v in expected], (name, elem)


@given(st.integers(0, ACC_MAX), st.integers(0, 12))
@settings(max_examples=60)
def test_read_saturated_matches_numpy_clip(bits, shift):
    acc = PackedAccumulator(bits)
    for elem in (ElemType.B, ElemType.H):
        for signed in (False, True):
            half = (1 << (shift - 1)) if shift else 0
            rounded = np.asarray([(lane + half) >> shift
                                  for lane in acc.lanes(elem)], dtype=np.int64)
            bits = elem.bits
            lo, hi = ((-(1 << (bits - 1)), (1 << (bits - 1)) - 1) if signed
                      else (0, (1 << bits) - 1))
            clipped = np.clip(rounded, lo, hi) & ((1 << bits) - 1)
            want = int.from_bytes(clipped.astype(f"<u{bits // 8}").tobytes(),
                                  "little")
            assert acc.read_saturated(elem, signed, shift) == want
