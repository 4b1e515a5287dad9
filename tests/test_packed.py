"""Unit and property tests for the packed sub-word arithmetic primitives.

Every operation is held to a per-lane reference written below from its
definition: :mod:`struct` splits each word into lanes, the lanes are
computed on as Python ints, clamped or masked to the lane width, and
joined back into a word.
"""

import struct
from operator import add, mul, sub

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import packed
from repro.isa.model import ElemType

B, H, W, Q = ElemType.B, ElemType.H, ElemType.W, ElemType.Q
ELEMS = [B, H, W]
ALL_ELEMS = ELEMS + [Q]

U64_MAX = (1 << 64) - 1
I64_MAX = (1 << 63) - 1
I64_MIN = -(1 << 63)

words = st.integers(min_value=0, max_value=U64_MAX)


# --- the per-lane reference -----------------------------------------------------

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
    """``value`` saturated to the lane's signed or unsigned range."""
    bits = elem.bits
    lo, hi = ((-(1 << (bits - 1)), (1 << (bits - 1)) - 1) if signed
              else (0, (1 << bits) - 1))
    return min(max(value, lo), hi)


def lanewise(op, elem, a, b, signed=False):
    """``op`` of each pair of lanes of ``a`` and ``b``."""
    return [op(x, y) for x, y in zip(lanes_of(a, elem, signed),
                                     lanes_of(b, elem, signed))]


def _interleave(a, b, elem, high):
    half = elem.lanes // 2
    picked = slice(half, None) if high else slice(0, half)
    out = []
    for x, y in zip(lanes_of(a, elem)[picked], lanes_of(b, elem)[picked]):
        out += [x, y]
    return word_of(out, elem)


def _pack(a, b, elem, signed):
    narrow = {H: B, W: H}[elem]
    wide = lanes_of(a, elem, True) + lanes_of(b, elem, True)
    return word_of([clamp(v, narrow, signed) for v in wide], narrow)


def _pairs(a, b):
    x, y = lanes_of(a, H, True), lanes_of(b, H, True)
    return word_of([x[0] * y[0] + x[1] * y[1], x[2] * y[2] + x[3] * y[3]], W)


def _cases():
    """``(id, element types, fn(a, b, c, elem), reference(a, b, c, elem))``
    for every packed operation and every signedness / variant it takes;
    unary operations ignore ``b`` and ``c``."""
    cases = [
        ("add_wrap", ALL_ELEMS, lambda a, b, c, e: packed.add_wrap(a, b, e),
         lambda a, b, c, e: word_of(lanewise(add, e, a, b), e)),
        ("sub_wrap", ALL_ELEMS, lambda a, b, c, e: packed.sub_wrap(a, b, e),
         lambda a, b, c, e: word_of(lanewise(sub, e, a, b), e)),
        ("mul_low", ALL_ELEMS, lambda a, b, c, e: packed.mul_low(a, b, e),
         lambda a, b, c, e: word_of(lanewise(mul, e, a, b, True), e)),
        ("avg_round", ALL_ELEMS, lambda a, b, c, e: packed.avg_round(a, b, e),
         lambda a, b, c, e: word_of(
             lanewise(lambda x, y: (x + y + 1) >> 1, e, a, b), e)),
        ("absdiff", ALL_ELEMS, lambda a, b, c, e: packed.absdiff(a, b, e),
         lambda a, b, c, e: word_of(
             lanewise(lambda x, y: abs(x - y), e, a, b), e)),
        ("sad", ALL_ELEMS, lambda a, b, c, e: packed.sad(a, b, e),
         lambda a, b, c, e: sum(lanewise(lambda x, y: abs(x - y), e, a, b))),
        ("horizontal_sum", ALL_ELEMS,
         lambda a, b, c, e: packed.horizontal_sum(a, e),
         lambda a, b, c, e: sum(lanes_of(a, e))),
        ("abs", ALL_ELEMS, lambda a, b, c, e: packed.abs_packed(a, e),
         lambda a, b, c, e: word_of(
             [clamp(abs(x), e, True) for x in lanes_of(a, e, True)], e)),
        ("mul_add_pairs", [H], lambda a, b, c, e: packed.mul_add_pairs(a, b),
         lambda a, b, c, e: _pairs(a, b)),
        ("shuffle_halves", [H],
         lambda a, b, c, e: packed.shuffle_halves(a, (3, 0, 2, 0)),
         lambda a, b, c, e: word_of([lanes_of(a, H)[i] for i in (3, 0, 2, 0)],
                                    H)),
        ("select", [B], lambda a, b, c, e: packed.select(a, b, c),
         lambda a, b, c, e: (a & b | ~a & c) & U64_MAX),
        ("cmp_mask-eq", ALL_ELEMS,
         lambda a, b, c, e: packed.cmp_mask(a, b, e, "eq"),
         lambda a, b, c, e: word_of(
             lanewise(lambda x, y: -(x == y), e, a, b), e)),
        ("cmp_mask-gt", ALL_ELEMS,
         lambda a, b, c, e: packed.cmp_mask(a, b, e, "gt"),
         lambda a, b, c, e: word_of(
             lanewise(lambda x, y: -(x > y), e, a, b, True), e)),
    ]
    for high in (False, True):
        cases.append((f"unpack_interleave-{'high' if high else 'low'}", ELEMS,
                      lambda a, b, c, e, h=high:
                      packed.unpack_interleave(a, b, e, h),
                      lambda a, b, c, e, h=high: _interleave(a, b, e, h)))
    for signed in (False, True):
        tag = "signed" if signed else "unsigned"
        cases += [
            (f"add_sat-{tag}", ALL_ELEMS,
             lambda a, b, c, e, s=signed: packed.add_sat(a, b, e, s),
             lambda a, b, c, e, s=signed: word_of(
                 lanewise(lambda x, y: clamp(x + y, e, s), e, a, b, s), e)),
            (f"sub_sat-{tag}", ALL_ELEMS,
             lambda a, b, c, e, s=signed: packed.sub_sat(a, b, e, s),
             lambda a, b, c, e, s=signed: word_of(
                 lanewise(lambda x, y: clamp(x - y, e, s), e, a, b, s), e)),
            (f"mul_high-{tag}", ALL_ELEMS,
             lambda a, b, c, e, s=signed: packed.mul_high(a, b, e, s),
             lambda a, b, c, e, s=signed: word_of(
                 lanewise(lambda x, y: (x * y) >> e.bits, e, a, b, s), e)),
            (f"pack_sat-{tag}", [H, W],
             lambda a, b, c, e, s=signed: packed.pack_sat(a, b, e, s),
             lambda a, b, c, e, s=signed: _pack(a, b, e, s)),
            (f"min-{tag}", ALL_ELEMS,
             lambda a, b, c, e, s=signed: packed.minmax(a, b, e, s, False),
             lambda a, b, c, e, s=signed: word_of(lanewise(min, e, a, b, s), e)),
            (f"max-{tag}", ALL_ELEMS,
             lambda a, b, c, e, s=signed: packed.minmax(a, b, e, s, True),
             lambda a, b, c, e, s=signed: word_of(lanewise(max, e, a, b, s), e)),
        ]
    # Python's shifts already give a lane-width count its hardware result:
    # ``<<`` then the mask leaves 0, ``>>`` of a signed lane the sign fill.
    for kind, signed, op in (("sll", False, lambda x, n: x << n),
                             ("srl", False, lambda x, n: x >> n),
                             ("sra", True, lambda x, n: x >> n)):
        for count in (0, 1, 7, 15, 31, 63, 64):
            cases.append((f"shift-{kind}-{count}", ALL_ELEMS,
                          lambda a, b, c, e, k=kind, n=count:
                          packed.shift(a, n, e, k),
                          lambda a, b, c, e, s=signed, op=op, n=count:
                          word_of([op(x, n) for x in lanes_of(a, e, s)], e)))
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


def _check(fn, reference, elem, a, b, c):
    got = fn(a, b, c, elem)
    assert type(got) is int
    assert got == reference(a, b, c, elem), (hex(a), hex(b), hex(c), elem)


@pytest.mark.parametrize("name,elems,fn,reference", CASES,
                         ids=[c[0] for c in CASES])
def test_ops_match_lane_reference_on_edge_words(name, elems, fn, reference):
    for elem in elems:
        for a, b in edge_pairs(elem):
            _check(fn, reference, elem, a, b, a ^ b)


@given(words, words, words)
@settings(max_examples=60, deadline=None)
def test_ops_match_lane_reference_property(a, b, c):
    for _, elems, fn, reference in CASES:
        for elem in elems:
            _check(fn, reference, elem, a, b, c)


def test_ops_reject_bad_arguments():
    with pytest.raises(ValueError):
        packed.shift(0, -1, B, "sll")
    with pytest.raises(ValueError):
        packed.shift(0, 9, B, "ror")
    with pytest.raises(ValueError):
        packed.cmp_mask(0, 0, B, "lt")
    with pytest.raises(ValueError):
        packed.unpack_interleave(0, 0, Q, False)
    with pytest.raises(KeyError):
        packed.pack_sat(0, 0, B, True)
    with pytest.raises(ValueError):
        packed.shuffle_halves(0, (0, 1, 2, 4))


# --- lane splitting ------------------------------------------------------------------

@pytest.mark.parametrize("elem", ALL_ELEMS)
def test_lane_roundtrip(elem):
    word = 0x0123456789ABCDEF
    assert packed.lanes_to_rows(packed.rows_to_lanes([word], elem),
                                elem) == (word,)


@given(st.lists(words, max_size=16))
@settings(max_examples=60)
def test_lane_roundtrip_property(rows):
    for elem in ALL_ELEMS:
        for signed in (False, True):
            lanes = packed.rows_to_lanes(rows, elem, signed)
            assert lanes == tuple(v for row in rows
                                  for v in lanes_of(row, elem, signed))
            assert packed.lanes_to_rows(lanes, elem) == tuple(rows)


def test_to_lanes_little_endian():
    lanes = packed.rows_to_lanes([0x0807060504030201], B)
    assert list(lanes) == [1, 2, 3, 4, 5, 6, 7, 8]


def test_to_lanes_signed_view():
    lanes = packed.rows_to_lanes([0xFF], B, signed=True)
    assert lanes[0] == -1 and lanes[1] == 0


def test_to_lanes_array_shape():
    """Sixteen rows split into sixteen runs of lanes, row 0's first."""
    lanes = packed.rows_to_lanes(list(range(16)), H)
    assert len(lanes) == 16 * 4
    assert lanes[0::4] == tuple(range(16))


@pytest.mark.parametrize("elem,expected", [
    (ElemType.B, 8), (ElemType.H, 4), (ElemType.W, 2), (ElemType.Q, 1),
])
def test_lane_count(elem, expected):
    assert elem.lanes == expected
    assert elem.bits == 64 // expected


# --- add / sub ---------------------------------------------------------------------

@pytest.mark.parametrize("elem", ELEMS)
def test_add_wrap_matches_modular(elem):
    ones = word_of([1] * elem.lanes, elem)
    out = lanes_of(packed.add_wrap(U64_MAX, ones, elem), elem)  # every lane at max
    assert out == (0,) * elem.lanes


def test_add_sat_unsigned_clamps():
    assert packed.add_sat(0xFF, 0xFF, B, signed=False) & 0xFF == 0xFF


def test_add_sat_signed_clamps_positive():
    out = packed.add_sat(0x7F, 1, B, signed=True)       # +127 in lane 0
    assert out & 0xFF == 0x7F


def test_add_sat_signed_clamps_negative():
    out = packed.add_sat(0x80, 0xFF, B, signed=True)    # -128 + -1 in lane 0
    assert out & 0xFF == 0x80                           # saturates at -128


def test_sub_sat_unsigned_floors_at_zero():
    assert packed.sub_sat(0x01, 0x02, B, False) & 0xFF == 0


@given(words, words)
@settings(max_examples=40)
def test_add_commutes(a, b):
    for elem in ELEMS:
        assert packed.add_wrap(a, b, elem) == packed.add_wrap(b, a, elem)


@given(words, words)
@settings(max_examples=40)
def test_sub_is_add_inverse_mod_lane(a, b):
    for elem in ELEMS:
        s = packed.add_wrap(a, b, elem)
        assert packed.sub_wrap(s, b, elem) == a


@given(words, words)
@settings(max_examples=40)
def test_saturating_add_bounds(a, b):
    for elem in ELEMS:
        smin, smax = -(1 << (elem.bits - 1)), (1 << (elem.bits - 1)) - 1
        out = lanes_of(packed.add_sat(a, b, elem, True), elem, signed=True)
        assert all(smin <= v <= smax for v in out)
        assert list(out) == [min(max(x + y, smin), smax) for x, y in
                             zip(lanes_of(a, elem, True), lanes_of(b, elem, True))]


# --- multiplies -----------------------------------------------------------------------

def test_mul_low_keeps_low_bits():
    a = 0x0003_0002_0001_0100                  # halves: 0x100, 1, 2, 3
    out = lanes_of(packed.mul_low(a, a, H), H)
    assert list(out) == [0x100 * 0x100 & 0xFFFF, 1, 4, 9]


def test_mul_high_signed():
    a = -30000 & 0xFFFF
    out = packed.mul_high(a, a, H, signed=True)
    assert lanes_of(out, H, True)[0] == (30000 * 30000) >> 16


def test_mul_high_unsigned():
    out = packed.mul_high(0xFFFF, 0xFFFF, H, False)
    assert lanes_of(out, H)[0] == (0xFFFF * 0xFFFF) >> 16


def test_mul_add_pairs():
    a = 0x0004_0003_0002_0001                  # halves 1, 2, 3, 4
    assert list(lanes_of(packed.mul_add_pairs(a, a), W)) == [1 + 4, 9 + 16]


@given(st.lists(st.integers(-2048, 2047), min_size=4, max_size=4),
       st.lists(st.integers(-2048, 2047), min_size=4, max_size=4))
@settings(max_examples=40)
def test_mul_add_pairs_property(xs, ys):
    out = lanes_of(packed.mul_add_pairs(word_of(xs, H), word_of(ys, H)), W,
                   signed=True)
    assert out[0] == xs[0] * ys[0] + xs[1] * ys[1]
    assert out[1] == xs[2] * ys[2] + xs[3] * ys[3]


# --- average / absolute difference / SAD -------------------------------------------------

def test_avg_rounds_up():
    assert packed.avg_round(1, 2, B) & 0xFF == 2


def test_absdiff_symmetric():
    a, b = 0x10, 0x30
    assert packed.absdiff(a, b, B) == packed.absdiff(b, a, B)
    assert packed.absdiff(a, b, B) & 0xFF == 0x20


@given(words, words)
@settings(max_examples=40)
def test_sad_equals_numpy(a, b):
    la = np.asarray(lanes_of(a, B), dtype=np.int64)
    lb = np.asarray(lanes_of(b, B), dtype=np.int64)
    assert packed.sad(a, b) == int(np.abs(la - lb).sum())


def test_sad_zero_for_equal():
    assert packed.sad(12345, 12345) == 0


def test_abs_packed_saturates_min():
    out = packed.abs_packed(0x80, B)           # |-128| -> 127 (sat)
    assert out & 0xFF == 127


# --- min / max / compares -------------------------------------------------------------------

def test_minmax_unsigned():
    a, b = 0x01FF, 0xFF01
    assert lanes_of(packed.minmax(a, b, B, False, False), B)[0] == 1
    assert lanes_of(packed.minmax(a, b, B, False, True), B)[0] == 0xFF


def test_minmax_signed_differs_from_unsigned():
    a, b = 0x7F, 0x80                          # +127 vs -128 signed
    assert lanes_of(packed.minmax(a, b, B, True, True), B, True)[0] == 127
    assert lanes_of(packed.minmax(a, b, B, False, True), B)[0] == 0x80


def test_cmp_mask_all_ones_or_zero():
    eq = packed.cmp_mask(5, 5, B, "eq")
    assert lanes_of(eq, B)[0] == 0xFF
    assert lanes_of(eq, B)[1] == 0xFF          # 0 == 0 in upper lanes
    assert packed.cmp_mask(5, 9, B, "gt") == 0


def test_cmp_mask_bad_op():
    with pytest.raises(ValueError):
        packed.cmp_mask(0, 0, B, "lt")


def test_select_mixes_bits():
    m = 0x00FF00FF00FF00FF
    a = 0x1111111111111111
    b = 0x2222222222222222
    assert packed.select(m, a, b) == 0x2211221122112211


@given(words, words, words)
@settings(max_examples=40)
def test_select_identity(m, a, b):
    assert packed.select(m, a, b) == ((m & a) | (~m & b)) & U64_MAX


# --- shifts --------------------------------------------------------------------------------------

@pytest.mark.parametrize("elem", ALL_ELEMS)
def test_shift_left_then_right(elem):
    word = 0x0101010101010101
    left = packed.shift(word, 1, elem, "sll")
    assert packed.shift(left, 1, elem, "srl") == word


def test_shift_sra_sign_fills():
    out = packed.shift(0x8000, 15, H, "sra")
    assert lanes_of(out, H, True)[0] == -1


def test_shift_overlong_logical_zeroes():
    assert packed.shift(0xFF, 8, B, "srl") == 0
    assert packed.shift(0xFF, 9, B, "sll") == 0


def test_shift_negative_count_rejected():
    with pytest.raises(ValueError):
        packed.shift(1, -1, B, "sll")


def test_shift_bad_kind_rejected():
    with pytest.raises(ValueError):
        packed.shift(1, 1, B, "ror")


# --- pack / unpack ------------------------------------------------------------------------------------

def test_pack_sat_signed():
    a = word_of([300, -300, 5, -5], H)
    out = lanes_of(packed.pack_sat(a, a, H, True), B, True)
    assert list(out[:4]) == [127, -128, 5, -5]


def test_pack_sat_unsigned():
    a = word_of([300, -300, 5, 200], H)
    out = lanes_of(packed.pack_sat(a, a, H, False), B)
    assert list(out[:4]) == [255, 0, 5, 200]


def test_unpack_interleave_low_bytes():
    a, b = 0x0807060504030201, 0x1817161514131211
    out = lanes_of(packed.unpack_interleave(a, b, B, high=False), B)
    assert list(out) == [0x01, 0x11, 0x02, 0x12, 0x03, 0x13, 0x04, 0x14]


def test_unpack_interleave_high_bytes():
    a, b = 0x0807060504030201, 0x1817161514131211
    out = lanes_of(packed.unpack_interleave(a, b, B, high=True), B)
    assert list(out) == [0x05, 0x15, 0x06, 0x16, 0x07, 0x17, 0x08, 0x18]


def test_unpack_promotion_idiom():
    """punpcklb with zero promotes bytes to halves."""
    out = lanes_of(packed.unpack_interleave(0x0807060504030201, 0, B, False), H)
    assert list(out) == [1, 2, 3, 4]


def test_shuffle_halves():
    out = lanes_of(packed.shuffle_halves(0x0004_0003_0002_0001, (0, 1, 0, 1)), H)
    assert list(out) == [1, 2, 1, 2]


def test_shuffle_rejects_bad_order():
    with pytest.raises(ValueError):
        packed.shuffle_halves(0, (0, 1, 2))
    with pytest.raises(ValueError):
        packed.shuffle_halves(0, (0, 1, 2, 4))


# --- reductions ----------------------------------------------------------------------------------------

@pytest.mark.parametrize("elem", ELEMS)
def test_horizontal_sum(elem):
    word = 0x0101010101010101
    assert packed.horizontal_sum(word, elem) == sum(lanes_of(word, elem))


# --- ElemType.Q saturation bounds -----------------------------------------------------------------------
#
# Q lanes are full 64-bit words, whose sums and products a 64-bit
# intermediate could not hold.  Pin the exact bound behaviour.

def u64(value: int) -> int:
    """Two's-complement image of a (possibly negative) 64-bit value."""
    return value & U64_MAX


def test_q_add_sat_unsigned_saturates_at_u64_max():
    assert packed.add_sat(U64_MAX, 1, Q, signed=False) == U64_MAX
    assert packed.add_sat(1 << 63, 1 << 63, Q, signed=False) == U64_MAX


def test_q_add_sat_signed_saturates_at_both_bounds():
    assert packed.add_sat(u64(I64_MAX), 1, Q, signed=True) == u64(I64_MAX)
    assert packed.add_sat(u64(I64_MIN), u64(-1), Q, signed=True) == u64(I64_MIN)


def test_q_sub_sat_bounds():
    assert packed.sub_sat(0, 1, Q, signed=False) == 0
    assert packed.sub_sat(u64(I64_MIN), 1, Q, signed=True) == u64(I64_MIN)
    assert packed.sub_sat(u64(I64_MAX), u64(-1), Q, signed=True) == u64(I64_MAX)


def test_q_wrap_is_modular_at_bounds():
    assert packed.add_wrap(U64_MAX, 1, Q) == 0
    assert packed.sub_wrap(0, 1, Q) == U64_MAX


def test_q_mul_full_precision():
    assert packed.mul_low(u64(-3), 5, Q) == u64(-15)
    # High half of (-1) * 1 is -1: all ones after repacking.
    assert packed.mul_high(u64(-1), 1, Q, signed=True) == U64_MAX
    # 2^62 * 4 = 2^64: low half 0, signed high half 1.
    assert packed.mul_low(1 << 62, 4, Q) == 0
    assert packed.mul_high(1 << 62, 4, Q, signed=True) == 1


def test_q_abs_saturates_int64_min():
    assert packed.abs_packed(u64(I64_MIN), Q) == I64_MAX
    assert packed.abs_packed(u64(-7), Q) == 7


def test_q_avg_round_no_overflow():
    assert packed.avg_round(U64_MAX, U64_MAX, Q) == U64_MAX
    assert packed.avg_round(U64_MAX, U64_MAX - 1, Q) == U64_MAX


def test_q_minmax_signed_across_zero():
    assert packed.minmax(u64(-5), 3, Q, signed=True, take_max=True) == 3
    assert packed.minmax(u64(-5), 3, Q, signed=True, take_max=False) == u64(-5)


def test_q_absdiff_unsigned_bounds():
    assert packed.absdiff(U64_MAX, 0, Q) == U64_MAX
    assert packed.absdiff(0, U64_MAX, Q) == U64_MAX
