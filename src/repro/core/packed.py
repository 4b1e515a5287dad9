"""Packed (sub-word) fixed-point arithmetic on 64-bit words.

This module supplies the functional semantics shared by the MMX, MDMX and
MOM emulation libraries: every media instruction ultimately reduces to one of
these operations applied to one 64-bit word (MMX/MDMX) or to each of the VL
rows of a matrix register (MOM).

Representation
--------------
A word is a plain Python ``int`` in ``[0, 2**64)`` and every operation
returns one.  Lane 0 is the least significant lane, matching how the
kernels lay data out in the byte-addressable
:class:`repro.emulib.memory.Memory`.  Wraparound add and subtract,
logical shifts and the rounded average are whole-word (SWAR) expressions
with per-lane carry masks; saturation, multiplies, compares, pack/unpack
and shuffles loop over the lanes, which :mod:`struct` splits and joins in
one call each.  An MMX/MDMX instruction applies an operation to its one
word, a MOM instruction to each of its first VL rows; where a MOM
instruction reads lanes across rows, :func:`rows_to_lanes` splits all of
them in one call (and :func:`lanes_to_rows` joins them back).  ``tests/test_packed.py`` holds every operation to a
per-lane reference on random and edge words for every element type.

Element types
-------------
Operations are parameterized by :class:`repro.isa.model.ElemType`:
``B`` = 8x8-bit, ``H`` = 4x16-bit, ``W`` = 2x32-bit, ``Q`` = 1x64-bit.

All arithmetic matches the saturating fixed-point behaviour of the modeled
ISAs; intermediate products are computed at full precision before any
truncation, exactly as hardware would.
"""

from __future__ import annotations

from functools import cache
from struct import Struct

from ..isa.model import ElemType

_U64 = (1 << 64) - 1


@cache
def _codec(count: int, code: str) -> Struct:
    """The little-endian codec of ``count`` values of :mod:`struct` type
    ``code``."""
    return Struct(f"<{count}{code}")


class _Lanes:
    """One element type's lane constants.

    ``mask`` is one lane's bits (and its unsigned maximum), ``smin`` and
    ``smax`` its signed range.  ``sign`` has the top bit of every lane set
    and ``low`` every other bit (the SWAR carry masks); ``ones`` has bit 0
    of every lane set, so ``ones * m`` repeats an ``m`` lane pattern
    across the word.  ``code`` is the lane's signed :mod:`struct` type;
    the two codecs split a word's little-endian bytes into unsigned or
    signed lane values and join them back.
    """

    __slots__ = ("lanes", "bits", "mask", "smin", "smax", "sign", "low",
                 "ones", "code", "unsigned", "signed")

    def __init__(self, lanes: int, code: str) -> None:
        bits = 64 // lanes
        self.lanes = lanes
        self.bits = bits
        self.mask = (1 << bits) - 1
        self.smin = -(1 << (bits - 1))
        self.smax = (1 << (bits - 1)) - 1
        self.ones = _U64 // self.mask
        self.sign = self.ones << (bits - 1)
        self.low = _U64 ^ self.sign
        self.code = code
        self.unsigned = _codec(lanes, code.upper())
        self.signed = _codec(lanes, code)

    def bounds(self, signed: bool) -> tuple[int, int]:
        """The lane's saturation range, signed or unsigned."""
        return (self.smin, self.smax) if signed else (0, self.mask)


_LANES = {
    ElemType.B: _Lanes(8, "b"),
    ElemType.H: _Lanes(4, "h"),
    ElemType.W: _Lanes(2, "i"),
    ElemType.Q: _Lanes(1, "q"),
}


def _split(word: int, codec: Struct) -> tuple[int, ...]:
    """Lane values of one int word through ``codec`` (lane 0 first)."""
    return codec.unpack(word.to_bytes(8, "little"))


def _join(values, codec: Struct) -> int:
    """The int word of lane values that ``codec`` can hold."""
    return int.from_bytes(codec.pack(*values), "little")


def rows_to_lanes(words, elem: ElemType, signed: bool = False) -> tuple[int, ...]:
    """The lanes of every int word of the sequence ``words``, word 0's
    first and lane 0 first within a word, as unsigned (or two's-complement
    signed) Python ints; one :mod:`struct` call splits them all."""
    spec = _LANES[elem]
    count = len(words)
    code = spec.code if signed else spec.code.upper()
    return _codec(count * spec.lanes, code).unpack(
        _codec(count, "Q").pack(*words))


def lanes_to_rows(values, elem: ElemType) -> tuple[int, ...]:
    """The inverse of :func:`rows_to_lanes`: the int words of the lane
    values, ``elem.lanes`` to a word, each value taken modulo the lane
    width (so negative values wrap); one :mod:`struct` call joins them
    all."""
    spec = _LANES[elem]
    mask = spec.mask
    count = len(values)
    return _codec(count // spec.lanes, "Q").unpack(
        _codec(count, spec.code.upper()).pack(*[v & mask for v in values]))


# --- add / subtract ----------------------------------------------------------

def add_wrap(a: int, b: int, elem: ElemType) -> int:
    """Packed modular (wraparound) addition."""
    # Add below each lane's top bit, then fold the top bits in by XOR: no
    # carry ever crosses a lane boundary.
    spec = _LANES[elem]
    low = spec.low
    return ((a & low) + (b & low)) ^ ((a ^ b) & spec.sign)


def add_sat(a: int, b: int, elem: ElemType, signed: bool) -> int:
    """Packed saturating addition (signed or unsigned)."""
    spec = _LANES[elem]
    codec = spec.signed if signed else spec.unsigned
    lo, hi = spec.bounds(signed)
    return _join([lo if (v := x + y) < lo else hi if v > hi else v
                  for x, y in zip(_split(a, codec), _split(b, codec))], codec)


def sub_wrap(a: int, b: int, elem: ElemType) -> int:
    """Packed modular (wraparound) subtraction."""
    # Set each lane's top bit of ``a`` so no borrow leaves the lane, then
    # fix the top bits up by XOR.
    spec = _LANES[elem]
    sign = spec.sign
    return ((a | sign) - (b & spec.low)) ^ ((a ^ b ^ sign) & sign)


def sub_sat(a: int, b: int, elem: ElemType, signed: bool) -> int:
    """Packed saturating subtraction (signed or unsigned)."""
    spec = _LANES[elem]
    codec = spec.signed if signed else spec.unsigned
    lo, hi = spec.bounds(signed)
    return _join([lo if (v := x - y) < lo else hi if v > hi else v
                  for x, y in zip(_split(a, codec), _split(b, codec))], codec)


# --- multiply ----------------------------------------------------------------

def mul_low(a: int, b: int, elem: ElemType) -> int:
    """Packed multiply keeping the low half of each product (the same for
    signed and unsigned lanes)."""
    spec = _LANES[elem]
    codec, mask = spec.unsigned, spec.mask
    return _join([(x * y) & mask
                  for x, y in zip(_split(a, codec), _split(b, codec))], codec)


def mul_high(a: int, b: int, elem: ElemType, signed: bool = True) -> int:
    """Packed multiply keeping the high half of each product."""
    spec = _LANES[elem]
    codec = spec.signed if signed else spec.unsigned
    bits, mask = spec.bits, spec.mask
    return _join([((x * y) >> bits) & mask
                  for x, y in zip(_split(a, codec), _split(b, codec))],
                 spec.unsigned)


def mul_add_pairs(a: int, b: int) -> int:
    """MMX ``pmaddh``: multiply 16-bit lanes, sum adjacent pairs into 32-bit.

    ``result.w[i] = a.h[2i]*b.h[2i] + a.h[2i+1]*b.h[2i+1]`` (signed, full
    precision -- the 33-bit worst case wraps into the 32-bit lane as on x86).
    """
    codec = _LANES[ElemType.H].signed
    a0, a1, a2, a3 = _split(a, codec)
    b0, b1, b2, b3 = _split(b, codec)
    return (((a0 * b0 + a1 * b1) & 0xFFFF_FFFF)
            | ((a2 * b2 + a3 * b3) & 0xFFFF_FFFF) << 32)


# --- average / absolute difference --------------------------------------------

def avg_round(a: int, b: int, elem: ElemType) -> int:
    """Packed rounded average of unsigned lanes: ``(a + b + 1) >> 1``."""
    # ceil((x + y) / 2) == (x | y) - ((x ^ y) >> 1), per lane; the mask
    # drops the bits the shift moved across lane boundaries.
    return (a | b) - (((a ^ b) >> 1) & _LANES[elem].low)


def absdiff(a: int, b: int, elem: ElemType) -> int:
    """Packed absolute difference of unsigned lanes."""
    codec = _LANES[elem].unsigned
    return _join([x - y if x > y else y - x
                  for x, y in zip(_split(a, codec), _split(b, codec))], codec)


def sad(a: int, b: int, elem: ElemType = ElemType.B) -> int:
    """Sum of absolute differences, reduced into lane 0 of the result word."""
    codec = _LANES[elem].unsigned
    return sum([x - y if x > y else y - x
                for x, y in zip(_split(a, codec), _split(b, codec))])


def abs_packed(a: int, elem: ElemType) -> int:
    """Packed absolute value of signed lanes (saturating ``abs(min)``)."""
    spec = _LANES[elem]
    smax = spec.smax
    return _join([smax if (v := abs(x)) > smax else v
                  for x in _split(a, spec.signed)], spec.signed)


# --- min / max ------------------------------------------------------------------

def minmax(a: int, b: int, elem: ElemType, signed: bool, take_max: bool) -> int:
    """Packed lane-wise minimum or maximum."""
    spec = _LANES[elem]
    codec = spec.signed if signed else spec.unsigned
    pairs = zip(_split(a, codec), _split(b, codec))
    if take_max:
        return _join([x if x > y else y for x, y in pairs], codec)
    return _join([x if x < y else y for x, y in pairs], codec)


# --- compares / select ------------------------------------------------------------

def cmp_mask(a: int, b: int, elem: ElemType, op: str) -> int:
    """Packed compare producing an all-ones / all-zeros lane mask.

    Args:
        op: ``"eq"`` for equality or ``"gt"`` for signed greater-than.
    """
    spec = _LANES[elem]
    umax = spec.mask
    if op == "eq":
        codec = spec.unsigned
        hits = [umax if x == y else 0
                for x, y in zip(_split(a, codec), _split(b, codec))]
    elif op == "gt":
        codec = spec.signed
        hits = [umax if x > y else 0
                for x, y in zip(_split(a, codec), _split(b, codec))]
    else:
        raise ValueError(f"unknown compare op {op!r}")
    return _join(hits, spec.unsigned)


def select(mask: int, a: int, b: int) -> int:
    """Bitwise select: ``(mask & a) | (~mask & b)`` (the ``pcmov`` primitive)."""
    return (mask & a) | (b & (_U64 ^ mask))


# --- shifts --------------------------------------------------------------------------

def shift(a: int, count: int, elem: ElemType, kind: str) -> int:
    """Packed shift of every lane by an immediate count.

    Args:
        kind: ``"sll"`` (left logical), ``"srl"`` (right logical) or
            ``"sra"`` (right arithmetic).  Counts >= lane width produce 0
            (or the sign fill for ``sra``), as on real hardware.
    """
    if count < 0:
        raise ValueError("shift count must be non-negative")
    if kind not in ("sll", "srl", "sra"):
        raise ValueError(f"unknown shift kind {kind!r}")
    spec = _LANES[elem]
    bits = spec.bits
    if kind == "sra":
        eff = min(count, bits - 1)
        codec = spec.signed
        return _join([x >> eff for x in _split(a, codec)], codec)
    if count >= bits:
        return 0
    # Shift the whole word, then clear the bits that crossed lanes.
    mask = spec.mask
    if kind == "sll":
        return (a << count) & (spec.ones * ((mask << count) & mask))
    return (a >> count) & (spec.ones * (mask >> count))


# --- pack / unpack ----------------------------------------------------------------------

_NARROW = {ElemType.H: ElemType.B, ElemType.W: ElemType.H}


def pack_sat(a: int, b: int, elem: ElemType, signed: bool) -> int:
    """Narrow two words into one with saturation (``packsshb`` family).

    Lanes of ``a`` fill the low half of the result, lanes of ``b`` the high
    half, each saturated to the next-narrower element type.
    """
    wide = _LANES[elem].signed
    out = _LANES[_NARROW[elem]]
    codec = out.signed if signed else out.unsigned
    lo, hi = out.bounds(signed)
    return _join([lo if x < lo else hi if x > hi else x
                  for x in _split(a, wide) + _split(b, wide)], codec)


def unpack_interleave(a: int, b: int, elem: ElemType, high: bool) -> int:
    """Interleave low (or high) lanes of two words (``punpckl*``/``punpckh*``).

    ``result`` alternates lanes ``a[i], b[i]`` starting from the low (or
    high) half of the sources; the result has the same lane width, so half
    the source lanes of each word survive.
    """
    spec = _LANES[elem]
    codec = spec.unsigned
    half = spec.lanes // 2
    sel = slice(half, None) if high else slice(0, half)
    out = [0] * spec.lanes
    out[0::2] = _split(a, codec)[sel]
    out[1::2] = _split(b, codec)[sel]
    return _join(out, codec)


def shuffle_halves(a: int, order: tuple[int, int, int, int]) -> int:
    """Rearrange the four 16-bit lanes of a word (``pshufh``)."""
    if len(order) != 4:
        raise ValueError("order must have four entries")
    if any(not 0 <= i < 4 for i in order):
        raise ValueError("shuffle indices must be in range(4)")
    codec = _LANES[ElemType.H].unsigned
    lanes = _split(a, codec)
    return _join([lanes[i] for i in order], codec)


# --- horizontal reductions ---------------------------------------------------------------

def horizontal_sum(a: int, elem: ElemType) -> int:
    """Sum all lanes of a word into a 64-bit scalar (``psum*`` family)."""
    return sum(_split(a, _LANES[elem].unsigned))
