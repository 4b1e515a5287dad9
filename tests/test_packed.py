"""Unit and property tests for the packed sub-word arithmetic primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import packed
from repro.isa.model import ElemType

ELEMS = [ElemType.B, ElemType.H, ElemType.W]
ALL_ELEMS = ELEMS + [ElemType.Q]

words = st.integers(min_value=0, max_value=(1 << 64) - 1)


def lanes_of(word, elem, signed=False):
    return packed.to_lanes(np.uint64(word), elem, signed=signed).astype(np.int64)


# --- lane packing ---------------------------------------------------------------

@pytest.mark.parametrize("elem", ALL_ELEMS)
def test_lane_roundtrip(elem):
    word = np.uint64(0x0123456789ABCDEF)
    assert int(packed.from_lanes(packed.to_lanes(word, elem))) == int(word)


@given(words)
@settings(max_examples=60)
def test_lane_roundtrip_property(word):
    for elem in ALL_ELEMS:
        assert int(packed.from_lanes(packed.to_lanes(np.uint64(word), elem))) == word


def test_to_lanes_little_endian():
    lanes = packed.to_lanes(np.uint64(0x0807060504030201), ElemType.B)
    assert list(lanes) == [1, 2, 3, 4, 5, 6, 7, 8]


def test_to_lanes_signed_view():
    lanes = packed.to_lanes(np.uint64(0xFF), ElemType.B, signed=True)
    assert lanes[0] == -1 and lanes[1] == 0


def test_to_lanes_array_shape():
    arr = np.zeros(16, dtype=np.uint64)
    assert packed.to_lanes(arr, ElemType.H).shape == (16, 4)


@pytest.mark.parametrize("elem,expected", [
    (ElemType.B, 8), (ElemType.H, 4), (ElemType.W, 2), (ElemType.Q, 1),
])
def test_lane_count(elem, expected):
    assert elem.lanes == expected
    assert elem.bits == 64 // expected


# --- add / sub ---------------------------------------------------------------------

@pytest.mark.parametrize("elem", ELEMS)
def test_add_wrap_matches_modular(elem):
    a = np.uint64(0xFFFFFFFFFFFFFFFF)          # every lane at its maximum
    ones = packed.from_lanes(np.ones((1, elem.lanes), dtype=np.int64))[0]
    out = lanes_of(packed.add_wrap(a, ones, elem), elem)
    assert (out == 0).all()


def test_add_sat_unsigned_clamps():
    a = np.uint64(0xFF)
    assert int(packed.add_sat(a, a, ElemType.B, signed=False)) & 0xFF == 0xFF


def test_add_sat_signed_clamps_positive():
    a = int(np.uint64(0x7F))       # +127 in lane 0
    out = packed.add_sat(np.uint64(a), np.uint64(1), ElemType.B, signed=True)
    assert int(out) & 0xFF == 0x7F


def test_add_sat_signed_clamps_negative():
    a = 0x80                        # -128 in lane 0
    out = packed.add_sat(np.uint64(a), np.uint64(0xFF), ElemType.B, signed=True)
    assert int(out) & 0xFF == 0x80  # -128 + -1 saturates at -128


def test_sub_sat_unsigned_floors_at_zero():
    out = packed.sub_sat(np.uint64(0x01), np.uint64(0x02), ElemType.B, False)
    assert int(out) & 0xFF == 0


@given(words, words)
@settings(max_examples=40)
def test_add_commutes(a, b):
    for elem in ELEMS:
        x = packed.add_wrap(np.uint64(a), np.uint64(b), elem)
        y = packed.add_wrap(np.uint64(b), np.uint64(a), elem)
        assert int(x) == int(y)


@given(words, words)
@settings(max_examples=40)
def test_sub_is_add_inverse_mod_lane(a, b):
    for elem in ELEMS:
        s = packed.add_wrap(np.uint64(a), np.uint64(b), elem)
        back = packed.sub_wrap(s, np.uint64(b), elem)
        assert int(back) == a


@given(words, words)
@settings(max_examples=40)
def test_saturating_add_bounds(a, b):
    for elem in ELEMS:
        smin, smax = -(1 << (elem.bits - 1)), (1 << (elem.bits - 1)) - 1
        out = lanes_of(packed.add_sat(np.uint64(a), np.uint64(b), elem, True),
                       elem, signed=True)
        assert (out >= smin).all() and (out <= smax).all()
        la = lanes_of(a, elem, signed=True)
        lb = lanes_of(b, elem, signed=True)
        expected = np.clip(la + lb, smin, smax)
        assert (out == expected).all()


# --- multiplies -----------------------------------------------------------------------

def test_mul_low_keeps_low_bits():
    a = np.uint64(0x0003_0002_0001_0100)   # halves: 0x100, 1, 2, 3
    out = lanes_of(packed.mul_low(a, a, ElemType.H), ElemType.H)
    assert list(out) == [0x100 * 0x100 & 0xFFFF, 1, 4, 9]


def test_mul_high_signed():
    a = int(np.int16(-30000)) & 0xFFFF
    out = packed.mul_high(np.uint64(a), np.uint64(a), ElemType.H, signed=True)
    assert lanes_of(out, ElemType.H, True)[0] == (30000 * 30000) >> 16


def test_mul_high_unsigned():
    out = packed.mul_high(np.uint64(0xFFFF), np.uint64(0xFFFF), ElemType.H, False)
    assert lanes_of(out, ElemType.H)[0] == (0xFFFF * 0xFFFF) >> 16


def test_mul_add_pairs():
    a = np.uint64(0x0004_0003_0002_0001)   # halves 1,2,3,4
    out = packed.mul_add_pairs(a, a)
    w = lanes_of(out, ElemType.W)
    assert list(w) == [1 + 4, 9 + 16]


@given(st.lists(st.integers(-2048, 2047), min_size=4, max_size=4),
       st.lists(st.integers(-2048, 2047), min_size=4, max_size=4))
@settings(max_examples=40)
def test_mul_add_pairs_property(xs, ys):
    a = packed.from_lanes(np.asarray(xs, dtype=np.int16).reshape(1, 4))[0]
    b = packed.from_lanes(np.asarray(ys, dtype=np.int16).reshape(1, 4))[0]
    out = lanes_of(packed.mul_add_pairs(a, b), ElemType.W, signed=True)
    assert out[0] == xs[0] * ys[0] + xs[1] * ys[1]
    assert out[1] == xs[2] * ys[2] + xs[3] * ys[3]


# --- average / absolute difference / SAD -------------------------------------------------

def test_avg_rounds_up():
    out = packed.avg_round(np.uint64(1), np.uint64(2), ElemType.B)
    assert int(out) & 0xFF == 2


def test_absdiff_symmetric():
    a, b = np.uint64(0x10), np.uint64(0x30)
    assert int(packed.absdiff(a, b, ElemType.B)) == int(packed.absdiff(b, a, ElemType.B))
    assert int(packed.absdiff(a, b, ElemType.B)) & 0xFF == 0x20


@given(words, words)
@settings(max_examples=40)
def test_sad_equals_numpy(a, b):
    la, lb = lanes_of(a, ElemType.B), lanes_of(b, ElemType.B)
    assert int(packed.sad(np.uint64(a), np.uint64(b))) == int(np.abs(la - lb).sum())


def test_sad_zero_for_equal():
    assert int(packed.sad(np.uint64(12345), np.uint64(12345))) == 0


def test_abs_packed_saturates_min():
    out = packed.abs_packed(np.uint64(0x80), ElemType.B)  # |-128| -> 127 (sat)
    assert int(out) & 0xFF == 127


# --- min / max / compares -------------------------------------------------------------------

def test_minmax_unsigned():
    a, b = np.uint64(0x01FF), np.uint64(0xFF01)
    assert lanes_of(packed.minmax(a, b, ElemType.B, False, False), ElemType.B)[0] == 1
    assert lanes_of(packed.minmax(a, b, ElemType.B, False, True), ElemType.B)[0] == 0xFF


def test_minmax_signed_differs_from_unsigned():
    a, b = np.uint64(0x7F), np.uint64(0x80)     # +127 vs -128 signed
    assert lanes_of(packed.minmax(a, b, ElemType.B, True, True), ElemType.B, True)[0] == 127
    assert lanes_of(packed.minmax(a, b, ElemType.B, False, True), ElemType.B)[0] == 0x80


def test_cmp_mask_all_ones_or_zero():
    eq = packed.cmp_mask(np.uint64(5), np.uint64(5), ElemType.B, "eq")
    assert lanes_of(eq, ElemType.B)[0] == 0xFF
    assert lanes_of(eq, ElemType.B)[1] == 0xFF    # 0 == 0 in upper lanes
    gt = packed.cmp_mask(np.uint64(5), np.uint64(9), ElemType.B, "gt")
    assert int(gt) == 0


def test_cmp_mask_bad_op():
    with pytest.raises(ValueError):
        packed.cmp_mask(np.uint64(0), np.uint64(0), ElemType.B, "lt")


def test_select_mixes_bits():
    m = np.uint64(0x00FF00FF00FF00FF)
    a = np.uint64(0x1111111111111111)
    b = np.uint64(0x2222222222222222)
    assert int(packed.select(m, a, b)) == 0x2211221122112211


@given(words, words, words)
@settings(max_examples=40)
def test_select_identity(m, a, b):
    out = int(packed.select(np.uint64(m), np.uint64(a), np.uint64(b)))
    assert out == ((m & a) | (~m & b)) & ((1 << 64) - 1)


# --- shifts --------------------------------------------------------------------------------------

@pytest.mark.parametrize("elem", ELEMS + [ElemType.Q])
def test_shift_left_then_right(elem):
    word = np.uint64(0x0101010101010101)
    left = packed.shift(word, 1, elem, "sll")
    back = packed.shift(left, 1, elem, "srl")
    assert int(back) == int(word)


def test_shift_sra_sign_fills():
    out = packed.shift(np.uint64(0x8000), 15, ElemType.H, "sra")
    assert lanes_of(out, ElemType.H, True)[0] == -1


def test_shift_overlong_logical_zeroes():
    assert int(packed.shift(np.uint64(0xFF), 8, ElemType.B, "srl")) == 0
    assert int(packed.shift(np.uint64(0xFF), 9, ElemType.B, "sll")) == 0


def test_shift_negative_count_rejected():
    with pytest.raises(ValueError):
        packed.shift(np.uint64(1), -1, ElemType.B, "sll")


def test_shift_bad_kind_rejected():
    with pytest.raises(ValueError):
        packed.shift(np.uint64(1), 1, ElemType.B, "ror")


# --- pack / unpack ------------------------------------------------------------------------------------

def test_pack_sat_signed():
    a = packed.from_lanes(np.asarray([[300, -300, 5, -5]], dtype=np.int64))[0]
    out = lanes_of(packed.pack_sat(a, a, ElemType.H, True), ElemType.B, True)
    assert list(out[:4]) == [127, -128, 5, -5]


def test_pack_sat_unsigned():
    a = packed.from_lanes(np.asarray([[300, -300, 5, 200]], dtype=np.int64))[0]
    out = lanes_of(packed.pack_sat(a, a, ElemType.H, False), ElemType.B)
    assert list(out[:4]) == [255, 0, 5, 200]


def test_unpack_interleave_low_bytes():
    a = np.uint64(0x0807060504030201)
    b = np.uint64(0x1817161514131211)
    out = lanes_of(packed.unpack_interleave(a, b, ElemType.B, high=False), ElemType.B)
    assert list(out) == [0x01, 0x11, 0x02, 0x12, 0x03, 0x13, 0x04, 0x14]


def test_unpack_interleave_high_bytes():
    a = np.uint64(0x0807060504030201)
    b = np.uint64(0x1817161514131211)
    out = lanes_of(packed.unpack_interleave(a, b, ElemType.B, high=True), ElemType.B)
    assert list(out) == [0x05, 0x15, 0x06, 0x16, 0x07, 0x17, 0x08, 0x18]


def test_unpack_promotion_idiom():
    """punpcklb with zero promotes bytes to halves."""
    a = np.uint64(0x0807060504030201)
    out = lanes_of(packed.unpack_interleave(a, np.uint64(0), ElemType.B, False),
                   ElemType.H)
    assert list(out) == [1, 2, 3, 4]


def test_shuffle_halves():
    a = np.uint64(0x0004_0003_0002_0001)
    out = lanes_of(packed.shuffle_halves(a, (0, 1, 0, 1)), ElemType.H)
    assert list(out) == [1, 2, 1, 2]


def test_shuffle_rejects_bad_order():
    with pytest.raises(ValueError):
        packed.shuffle_halves(np.uint64(0), (0, 1, 2))
    with pytest.raises(ValueError):
        packed.shuffle_halves(np.uint64(0), (0, 1, 2, 4))


# --- reductions / helpers --------------------------------------------------------------------------------

@pytest.mark.parametrize("elem", ELEMS)
def test_horizontal_sum(elem):
    word = np.uint64(0x0101010101010101)
    total = int(packed.horizontal_sum(word, elem))
    lanes = lanes_of(word, elem)
    assert total == int(lanes.sum())


def test_saturate_unsigned_range():
    vals = np.asarray([-5, 0, 255, 300], dtype=np.int64)
    out = packed.saturate(vals, ElemType.B, signed=False)
    assert list(out) == [0, 0, 255, 255]


# --- ElemType.Q saturation bounds -----------------------------------------------------------------------
#
# Q lanes are full 64-bit words: int64 intermediates would wrap before
# saturation could see the overflow, so these operations widen through
# Python-int (object) arithmetic.  Pin the exact bound behaviour.

U64_MAX = (1 << 64) - 1
I64_MAX = (1 << 63) - 1
I64_MIN = -(1 << 63)


def u64(value: int) -> int:
    """Two's-complement image of a (possibly negative) 64-bit value."""
    return value & U64_MAX


def test_q_add_sat_unsigned_saturates_at_u64_max():
    assert int(packed.add_sat(U64_MAX, 1, ElemType.Q, signed=False)) == U64_MAX
    assert int(packed.add_sat(1 << 63, 1 << 63, ElemType.Q,
                              signed=False)) == U64_MAX


def test_q_add_sat_signed_saturates_at_both_bounds():
    assert int(packed.add_sat(u64(I64_MAX), 1, ElemType.Q,
                              signed=True)) == u64(I64_MAX)
    assert int(packed.add_sat(u64(I64_MIN), u64(-1), ElemType.Q,
                              signed=True)) == u64(I64_MIN)


def test_q_sub_sat_bounds():
    assert int(packed.sub_sat(0, 1, ElemType.Q, signed=False)) == 0
    assert int(packed.sub_sat(u64(I64_MIN), 1, ElemType.Q,
                              signed=True)) == u64(I64_MIN)
    assert int(packed.sub_sat(u64(I64_MAX), u64(-1), ElemType.Q,
                              signed=True)) == u64(I64_MAX)


def test_q_wrap_is_modular_at_bounds():
    assert int(packed.add_wrap(U64_MAX, 1, ElemType.Q)) == 0
    assert int(packed.sub_wrap(0, 1, ElemType.Q)) == U64_MAX


def test_q_mul_full_precision():
    assert int(packed.mul_low(u64(-3), 5, ElemType.Q)) == u64(-15)
    # High half of (-1) * 1 is -1: all ones after repacking.
    assert int(packed.mul_high(u64(-1), 1, ElemType.Q,
                               signed=True)) == U64_MAX
    # 2^62 * 4 = 2^64: low half 0, signed high half 1.
    assert int(packed.mul_low(1 << 62, 4, ElemType.Q)) == 0
    assert int(packed.mul_high(1 << 62, 4, ElemType.Q, signed=True)) == 1


def test_q_abs_saturates_int64_min():
    assert int(packed.abs_packed(u64(I64_MIN), ElemType.Q)) == I64_MAX
    assert int(packed.abs_packed(u64(-7), ElemType.Q)) == 7


def test_q_avg_round_no_overflow():
    assert int(packed.avg_round(U64_MAX, U64_MAX, ElemType.Q)) == U64_MAX
    assert int(packed.avg_round(U64_MAX, U64_MAX - 1, ElemType.Q)) == U64_MAX


def test_q_minmax_signed_across_zero():
    assert int(packed.minmax(u64(-5), 3, ElemType.Q, signed=True,
                             take_max=True)) == 3
    assert int(packed.minmax(u64(-5), 3, ElemType.Q, signed=True,
                             take_max=False)) == u64(-5)


def test_q_absdiff_unsigned_bounds():
    assert int(packed.absdiff(U64_MAX, 0, ElemType.Q)) == U64_MAX
    assert int(packed.absdiff(0, U64_MAX, ElemType.Q)) == U64_MAX


def test_narrow_elems_unchanged_by_wide_path():
    """Sub-64-bit lanes still take the fast int64 path (dtype check)."""
    la, lb = packed._binary_wide(np.uint64(5), np.uint64(6), ElemType.H,
                                 signed=True)
    assert la.dtype == np.int64 and lb.dtype == np.int64
    lq, _ = packed._binary_wide(np.uint64(5), np.uint64(6), ElemType.Q,
                                signed=True)
    assert lq.dtype == object


# --- int words vs numpy rows ----------------------------------------------------------------
#
# Every op the MMX/MDMX builders call has two forms chosen by argument
# type: plain ``int`` words take the int form (SWAR masks and per-lane
# loops), anything else the numpy form.  They must agree bit for bit on
# every input.

H, W = ElemType.H, ElemType.W


def _cases():
    """``(id, element types, fn(a, b, c, elem))`` for every op with an int
    form and every signedness / variant it takes; unary ops ignore ``b``
    and ``c``."""
    cases = [
        ("add_wrap", ALL_ELEMS, lambda a, b, c, e: packed.add_wrap(a, b, e)),
        ("sub_wrap", ALL_ELEMS, lambda a, b, c, e: packed.sub_wrap(a, b, e)),
        ("mul_low", ALL_ELEMS, lambda a, b, c, e: packed.mul_low(a, b, e)),
        ("avg_round", ALL_ELEMS, lambda a, b, c, e: packed.avg_round(a, b, e)),
        ("absdiff", ALL_ELEMS, lambda a, b, c, e: packed.absdiff(a, b, e)),
        ("sad", ALL_ELEMS, lambda a, b, c, e: packed.sad(a, b, e)),
        ("horizontal_sum", ALL_ELEMS,
         lambda a, b, c, e: packed.horizontal_sum(a, e)),
        ("mul_add_pairs", [H], lambda a, b, c, e: packed.mul_add_pairs(a, b)),
        ("shuffle_halves", [H],
         lambda a, b, c, e: packed.shuffle_halves(a, (3, 0, 2, 0))),
        ("select", [ElemType.B], lambda a, b, c, e: packed.select(a, b, c)),
    ]
    for op in ("eq", "gt"):
        cases.append((f"cmp_mask-{op}", ALL_ELEMS,
                      lambda a, b, c, e, op=op: packed.cmp_mask(a, b, e, op)))
    for high in (False, True):
        cases.append((f"unpack_interleave-{'high' if high else 'low'}", ELEMS,
                      lambda a, b, c, e, h=high:
                      packed.unpack_interleave(a, b, e, h)))
    for signed in (False, True):
        tag = "signed" if signed else "unsigned"
        cases += [
            (f"add_sat-{tag}", ALL_ELEMS,
             lambda a, b, c, e, s=signed: packed.add_sat(a, b, e, s)),
            (f"sub_sat-{tag}", ALL_ELEMS,
             lambda a, b, c, e, s=signed: packed.sub_sat(a, b, e, s)),
            (f"mul_high-{tag}", ALL_ELEMS,
             lambda a, b, c, e, s=signed: packed.mul_high(a, b, e, s)),
            (f"pack_sat-{tag}", [H, W],
             lambda a, b, c, e, s=signed: packed.pack_sat(a, b, e, s)),
            (f"min-{tag}", ALL_ELEMS,
             lambda a, b, c, e, s=signed: packed.minmax(a, b, e, s, False)),
            (f"max-{tag}", ALL_ELEMS,
             lambda a, b, c, e, s=signed: packed.minmax(a, b, e, s, True)),
        ]
    for kind in ("sll", "srl", "sra"):
        for count in (0, 1, 7, 15, 31, 63, 64):
            cases.append((f"shift-{kind}-{count}", ALL_ELEMS,
                          lambda a, b, c, e, k=kind, n=count:
                          packed.shift(a, n, e, k)))
    return cases


CASES = _cases()


def edge_words(elem):
    """Words with every lane at one edge value -- 0, 1, all-ones, the
    lane's sign bit and signed maximum, and the same edges of the
    half-width lane (what ``pack_sat`` narrows to) -- and words with one
    lane alone at its sign bit or maximum."""
    bits = elem.bits
    mask = (1 << bits) - 1
    ones = U64_MAX // mask                      # bit 0 of every lane
    values = {0, 1, mask}
    for width in {bits, max(bits // 2, 1)}:
        for edge in (1 << (width - 1), (1 << width) - 1):
            values.update({edge, edge - 1, edge + 1})
            values.update({-edge & mask, (-edge - 1) & mask})
    words = [ones * (v & mask) for v in sorted(values)]
    singles = []
    for lane in range(elem.lanes):
        at = lane * bits
        singles += [1 << (at + bits - 1), mask << at, (mask >> 1) << at]
    return words, singles


def edge_pairs(elem):
    """Every pair of all-lane edge words, and each one-lane word against
    0, all-ones and itself."""
    words, singles = edge_words(elem)
    pairs = [(a, b) for a in words for b in words]
    for single in singles:
        for other in (0, U64_MAX, single):
            pairs += [(single, other), (other, single)]
    return pairs


def _agree(fn, elem, a, b, c):
    got = fn(a, b, c, elem)
    want = fn(np.uint64(a), np.uint64(b), np.uint64(c), elem)
    assert type(got) is int
    assert got == int(want), (hex(a), hex(b), hex(c), elem)


@pytest.mark.parametrize("name,elems,fn", CASES, ids=[c[0] for c in CASES])
def test_int_form_matches_numpy_on_edge_words(name, elems, fn):
    for elem in elems:
        for a, b in edge_pairs(elem):
            _agree(fn, elem, a, b, a ^ b)


@given(words, words, words)
@settings(max_examples=60, deadline=None)
def test_int_form_matches_numpy_property(a, b, c):
    for _, elems, fn in CASES:
        for elem in elems:
            _agree(fn, elem, a, b, c)


@given(words)
@settings(max_examples=60)
def test_word_lanes_match_numpy_lanes(word):
    for elem in ALL_ELEMS:
        for signed in (False, True):
            lanes = packed.word_to_lanes(word, elem, signed)
            assert lanes == tuple(packed.to_lanes(np.uint64(word), elem,
                                                  signed=signed).tolist())
            assert packed.word_from_lanes(lanes, elem) == word == int(
                packed.from_lanes(np.asarray(lanes, dtype=object)))


def test_both_forms_reject_the_same_arguments():
    for word in (0, np.uint64(0)):
        with pytest.raises(ValueError):
            packed.shift(word, -1, ElemType.B, "sll")
        with pytest.raises(ValueError):
            packed.shift(word, 9, ElemType.B, "ror")
        with pytest.raises(ValueError):
            packed.cmp_mask(word, word, ElemType.B, "lt")
        with pytest.raises(ValueError):
            packed.unpack_interleave(word, word, ElemType.Q, False)
        with pytest.raises(KeyError):
            packed.pack_sat(word, word, ElemType.B, True)
        with pytest.raises(ValueError):
            packed.shuffle_halves(word, (0, 1, 2, 4))
