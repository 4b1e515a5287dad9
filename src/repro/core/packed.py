"""Packed (sub-word) fixed-point arithmetic on 64-bit words.

This module supplies the functional semantics shared by the MMX, MDMX and
MOM emulation libraries: every media instruction ultimately reduces to one of
these operations applied to one 64-bit word (MMX/MDMX) or to each of the VL
rows of a matrix register (MOM).

Representation
--------------
Every operation the MMX/MDMX builders call has two forms, chosen by the
type of its word arguments (:func:`abs_packed`, which only MOM calls, has
the numpy form alone):

* **int words** -- when every word argument is a plain Python ``int`` in
  ``[0, 2**64)`` the operation computes on ints and returns an ``int``.
  Wraparound add and subtract, logical shifts and the rounded average
  are whole-word (SWAR) expressions with per-lane carry masks;
  saturation, multiplies, compares, pack/unpack and shuffles loop over
  the lanes, which :mod:`struct` splits and joins in one call each.  This
  is the MMX/MDMX builders' path: one word per instruction.
* **numpy rows** -- any other argument (a ``numpy.uint64`` scalar or an
  array of any shape with ``dtype=uint64``; a MOM matrix register is an
  array of 16) goes through numpy and returns an array of the same
  shape.  Lane access uses little-endian ``view`` reinterpretation, i.e.
  byte lane 0 is the least significant byte, matching how the kernels lay
  data out in the byte-addressable :class:`repro.emulib.memory.Memory`.

The two forms agree bit for bit on every input (``tests/test_packed.py``
compares them on random and edge words for every element type); no
option selects between them.

Element types
-------------
Operations are parameterized by :class:`repro.isa.model.ElemType`:
``B`` = 8x8-bit, ``H`` = 4x16-bit, ``W`` = 2x32-bit, ``Q`` = 1x64-bit.

All arithmetic matches the saturating fixed-point behaviour of the modeled
ISAs; intermediate products are computed at full precision before any
truncation, exactly as hardware would.
"""

from __future__ import annotations

from struct import Struct

import numpy as np

from ..isa.model import ElemType

_U64 = (1 << 64) - 1

#: numpy dtypes used to reinterpret a packed uint64 word, per element type.
_UNSIGNED_DTYPE = {
    ElemType.B: np.uint8,
    ElemType.H: np.uint16,
    ElemType.W: np.uint32,
    ElemType.Q: np.uint64,
}
_SIGNED_DTYPE = {
    ElemType.B: np.int8,
    ElemType.H: np.int16,
    ElemType.W: np.int32,
    ElemType.Q: np.int64,
}

class _Lanes:
    """One element type's lane constants.

    ``mask`` is one lane's bits (and its unsigned maximum), ``smin`` and
    ``smax`` its signed range.  ``sign`` has the top bit of every lane set
    and ``low`` every other bit (the SWAR carry masks); ``ones`` has bit 0
    of every lane set, so ``ones * m`` repeats an ``m`` lane pattern
    across the word.  The two :class:`~struct.Struct` codecs split a
    word's little-endian bytes into unsigned or signed lane values and
    join them back.
    """

    __slots__ = ("lanes", "bits", "mask", "smin", "smax", "sign", "low",
                 "ones", "unsigned", "signed")

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
        self.unsigned = Struct(f"<{lanes}{code.upper()}")
        self.signed = Struct(f"<{lanes}{code}")

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


def word_to_lanes(word: int, elem: ElemType, signed: bool = False) -> tuple[int, ...]:
    """Int form of :func:`to_lanes`: the lanes of one int word, lane 0
    first, as unsigned (or two's-complement signed) Python ints."""
    spec = _LANES[elem]
    return _split(word, spec.signed if signed else spec.unsigned)


def word_from_lanes(values, elem: ElemType) -> int:
    """Int form of :func:`from_lanes`: pack lane values, each taken
    modulo the lane width (so negative values wrap), into one int word."""
    spec = _LANES[elem]
    mask = spec.mask
    return _join([v & mask for v in values], spec.unsigned)


def _as_words(a) -> np.ndarray:
    """Coerce ``a`` (int or array-like) to a contiguous uint64 array.

    0-d inputs stay 0-d so scalar operations round-trip through ``int()``.
    """
    arr = np.asarray(a, dtype=np.uint64)
    if arr.ndim and not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
    return arr


def to_lanes(a, elem: ElemType, signed: bool = False) -> np.ndarray:
    """Unpack 64-bit words into sub-word lanes.

    Args:
        a: scalar or array of packed uint64 words, any shape ``S``.
        elem: lane width selector.
        signed: reinterpret lanes as two's-complement signed values.

    Returns:
        Array of shape ``S + (lanes,)`` with the lane dtype.
    """
    words = _as_words(a)
    dtype = _SIGNED_DTYPE[elem] if signed else _UNSIGNED_DTYPE[elem]
    return words.reshape(words.shape + (1,)).view(dtype)


def from_lanes(lanes: np.ndarray) -> np.ndarray:
    """Repack a lane array (as produced by :func:`to_lanes`) into uint64 words.

    The trailing axis is collapsed; lane values are masked to their width so
    callers may pass wider intermediate dtypes -- including object arrays of
    Python ints, which the 64-bit ``Q`` operations use for full precision.
    """
    lanes = np.asarray(lanes)
    lane_bits = 64 // lanes.shape[-1]
    if lanes.dtype == object:
        # Mask with Python ints first: negative values must wrap to their
        # two's-complement image before the uint64 cast.
        unsigned = (lanes & ((1 << lane_bits) - 1)).astype(np.uint64)
    else:
        mask = np.uint64((1 << lane_bits) - 1)
        unsigned = lanes.astype(np.uint64) & mask
    shifts = np.arange(lanes.shape[-1], dtype=np.uint64) * np.uint64(lane_bits)
    return (unsigned << shifts).sum(axis=-1, dtype=np.uint64)


def saturate(values: np.ndarray, elem: ElemType, signed: bool) -> np.ndarray:
    """Clamp ``values`` (a wide-dtype lane array) to the lane's numeric range."""
    lo, hi = _LANES[elem].bounds(signed)
    return np.clip(values, lo, hi)


def _wide(lanes: np.ndarray, elem: ElemType) -> np.ndarray:
    """Widen lanes so sums/products cannot overflow.

    Sub-64-bit lanes fit int64; full-width ``Q`` lanes go through object
    arrays of Python ints (int64 would wrap unsigned values above 2^63 and
    overflow at the arithmetic itself).
    """
    if elem is ElemType.Q:
        return lanes.astype(object)
    return lanes.astype(np.int64)


def _binary_wide(a, b, elem: ElemType, signed: bool):
    """Unpack both operands into wide lanes for overflow-free arithmetic."""
    la = _wide(to_lanes(a, elem, signed=signed), elem)
    lb = _wide(to_lanes(b, elem, signed=signed), elem)
    return la, lb


# --- add / subtract ----------------------------------------------------------
#
# Each operation below but ``abs_packed`` starts with its int-word form,
# taken when every word argument is a plain ``int``; the rest of the body
# is the numpy form.

def add_wrap(a, b, elem: ElemType):
    """Packed modular (wraparound) addition."""
    if type(a) is int and type(b) is int:
        # Add below each lane's top bit, then fold the top bits in by XOR:
        # no carry ever crosses a lane boundary.
        spec = _LANES[elem]
        low = spec.low
        return ((a & low) + (b & low)) ^ ((a ^ b) & spec.sign)
    la, lb = _binary_wide(a, b, elem, signed=False)
    return from_lanes(la + lb)


def add_sat(a, b, elem: ElemType, signed: bool):
    """Packed saturating addition (signed or unsigned)."""
    if type(a) is int and type(b) is int:
        spec = _LANES[elem]
        codec = spec.signed if signed else spec.unsigned
        lo, hi = spec.bounds(signed)
        return _join([lo if (v := x + y) < lo else hi if v > hi else v
                      for x, y in zip(_split(a, codec), _split(b, codec))],
                     codec)
    la, lb = _binary_wide(a, b, elem, signed=signed)
    return from_lanes(saturate(la + lb, elem, signed))


def sub_wrap(a, b, elem: ElemType):
    """Packed modular (wraparound) subtraction."""
    if type(a) is int and type(b) is int:
        # Set each lane's top bit of ``a`` so no borrow leaves the lane,
        # then fix the top bits up by XOR.
        spec = _LANES[elem]
        sign = spec.sign
        return ((a | sign) - (b & spec.low)) ^ ((a ^ b ^ sign) & sign)
    la, lb = _binary_wide(a, b, elem, signed=False)
    return from_lanes(la - lb)


def sub_sat(a, b, elem: ElemType, signed: bool):
    """Packed saturating subtraction (signed or unsigned)."""
    if type(a) is int and type(b) is int:
        spec = _LANES[elem]
        codec = spec.signed if signed else spec.unsigned
        lo, hi = spec.bounds(signed)
        return _join([lo if (v := x - y) < lo else hi if v > hi else v
                      for x, y in zip(_split(a, codec), _split(b, codec))],
                     codec)
    la, lb = _binary_wide(a, b, elem, signed=signed)
    return from_lanes(saturate(la - lb, elem, signed))


# --- multiply ----------------------------------------------------------------

def mul_low(a, b, elem: ElemType):
    """Packed multiply keeping the low half of each signed product."""
    if type(a) is int and type(b) is int:
        # The low half of a product is the same for signed and unsigned
        # lanes.
        spec = _LANES[elem]
        codec, mask = spec.unsigned, spec.mask
        return _join([(x * y) & mask
                      for x, y in zip(_split(a, codec), _split(b, codec))],
                     codec)
    la, lb = _binary_wide(a, b, elem, signed=True)
    return from_lanes(la * lb)


def mul_high(a, b, elem: ElemType, signed: bool = True):
    """Packed multiply keeping the high half of each product."""
    if type(a) is int and type(b) is int:
        spec = _LANES[elem]
        codec = spec.signed if signed else spec.unsigned
        bits, mask = spec.bits, spec.mask
        return _join([((x * y) >> bits) & mask
                      for x, y in zip(_split(a, codec), _split(b, codec))],
                     spec.unsigned)
    la, lb = _binary_wide(a, b, elem, signed=signed)
    bits = elem.bits
    return from_lanes((la * lb) >> bits)


def mul_add_pairs(a, b):
    """MMX ``pmaddh``: multiply 16-bit lanes, sum adjacent pairs into 32-bit.

    ``result.w[i] = a.h[2i]*b.h[2i] + a.h[2i+1]*b.h[2i+1]`` (signed, full
    precision -- the 33-bit worst case wraps into the 32-bit lane as on x86).
    """
    if type(a) is int and type(b) is int:
        codec = _LANES[ElemType.H].signed
        a0, a1, a2, a3 = _split(a, codec)
        b0, b1, b2, b3 = _split(b, codec)
        return (((a0 * b0 + a1 * b1) & 0xFFFF_FFFF)
                | ((a2 * b2 + a3 * b3) & 0xFFFF_FFFF) << 32)
    la, lb = _binary_wide(a, b, ElemType.H, signed=True)
    prod = la * lb
    pairs = prod[..., 0::2] + prod[..., 1::2]
    return from_lanes(pairs)


# --- average / absolute difference --------------------------------------------

def avg_round(a, b, elem: ElemType):
    """Packed rounded average of unsigned lanes: ``(a + b + 1) >> 1``."""
    if type(a) is int and type(b) is int:
        # ceil((x + y) / 2) == (x | y) - ((x ^ y) >> 1), per lane; the
        # mask drops the bits the shift moved across lane boundaries.
        return (a | b) - (((a ^ b) >> 1) & _LANES[elem].low)
    la, lb = _binary_wide(a, b, elem, signed=False)
    return from_lanes((la + lb + 1) >> 1)


def absdiff(a, b, elem: ElemType):
    """Packed absolute difference of unsigned lanes."""
    if type(a) is int and type(b) is int:
        codec = _LANES[elem].unsigned
        return _join([x - y if x > y else y - x
                      for x, y in zip(_split(a, codec), _split(b, codec))],
                     codec)
    la, lb = _binary_wide(a, b, elem, signed=False)
    return from_lanes(np.abs(la - lb))


def sad(a, b, elem: ElemType = ElemType.B):
    """Sum of absolute differences, reduced into lane 0 of the result word."""
    if type(a) is int and type(b) is int:
        codec = _LANES[elem].unsigned
        return sum([x - y if x > y else y - x
                    for x, y in zip(_split(a, codec), _split(b, codec))])
    la, lb = _binary_wide(a, b, elem, signed=False)
    # ``asarray``: one word of ``Q`` (object) lanes sums to a plain int.
    total = np.asarray(np.abs(la - lb).sum(axis=-1))
    return total.astype(np.uint64)


def abs_packed(a, elem: ElemType):
    """Packed absolute value of signed lanes (saturating ``abs(min)``).

    numpy form only: MOM's ``momabs*`` is the one caller."""
    la = _wide(to_lanes(a, elem, signed=True), elem)
    return from_lanes(saturate(np.abs(la), elem, signed=True))


# --- min / max ------------------------------------------------------------------

def minmax(a, b, elem: ElemType, signed: bool, take_max: bool):
    """Packed lane-wise minimum or maximum."""
    if type(a) is int and type(b) is int:
        spec = _LANES[elem]
        codec = spec.signed if signed else spec.unsigned
        pairs = zip(_split(a, codec), _split(b, codec))
        if take_max:
            return _join([x if x > y else y for x, y in pairs], codec)
        return _join([x if x < y else y for x, y in pairs], codec)
    la, lb = _binary_wide(a, b, elem, signed=signed)
    return from_lanes(np.maximum(la, lb) if take_max else np.minimum(la, lb))


# --- compares / select ------------------------------------------------------------

def cmp_mask(a, b, elem: ElemType, op: str):
    """Packed compare producing an all-ones / all-zeros lane mask.

    Args:
        op: ``"eq"`` for equality or ``"gt"`` for signed greater-than.
    """
    if op not in ("eq", "gt"):
        raise ValueError(f"unknown compare op {op!r}")
    if type(a) is int and type(b) is int:
        spec = _LANES[elem]
        umax = spec.mask
        if op == "eq":
            codec = spec.unsigned
            hits = [umax if x == y else 0
                    for x, y in zip(_split(a, codec), _split(b, codec))]
        else:
            codec = spec.signed
            hits = [umax if x > y else 0
                    for x, y in zip(_split(a, codec), _split(b, codec))]
        return _join(hits, spec.unsigned)
    signed = op == "gt"
    la, lb = _binary_wide(a, b, elem, signed=signed)
    hit = la == lb if op == "eq" else la > lb
    return from_lanes(np.where(hit, _LANES[elem].mask, 0))


def select(mask, a, b):
    """Bitwise select: ``(mask & a) | (~mask & b)`` (the ``pcmov`` primitive)."""
    if type(mask) is int and type(a) is int and type(b) is int:
        return (mask & a) | (b & (_U64 ^ mask))
    m = _as_words(mask)
    wa = _as_words(a)
    wb = _as_words(b)
    return (m & wa) | (~m & wb)


# --- shifts --------------------------------------------------------------------------

def shift(a, count: int, elem: ElemType, kind: str):
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
    if type(a) is int:
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
    bits = elem.bits
    if kind == "sra":
        la = to_lanes(a, elem, signed=True).astype(np.int64)
        eff = min(count, bits - 1)
        return from_lanes(la >> eff)
    la = to_lanes(a, elem, signed=False).astype(np.uint64)
    if count >= bits:
        return from_lanes(np.zeros_like(la))
    if kind == "sll":
        return from_lanes(la << np.uint64(count))
    return from_lanes(la >> np.uint64(count))


# --- pack / unpack ----------------------------------------------------------------------

_NARROW = {ElemType.H: ElemType.B, ElemType.W: ElemType.H}


def pack_sat(a, b, elem: ElemType, signed: bool):
    """Narrow two words into one with saturation (``packsshb`` family).

    Lanes of ``a`` fill the low half of the result, lanes of ``b`` the high
    half, each saturated to the next-narrower element type.
    """
    narrow = _NARROW[elem]
    if type(a) is int and type(b) is int:
        wide = _LANES[elem].signed
        out = _LANES[narrow]
        codec = out.signed if signed else out.unsigned
        lo, hi = out.bounds(signed)
        return _join([lo if x < lo else hi if x > hi else x
                      for x in _split(a, wide) + _split(b, wide)], codec)
    la = to_lanes(a, elem, signed=True).astype(np.int64)
    lb = to_lanes(b, elem, signed=True).astype(np.int64)
    merged = np.concatenate([la, lb], axis=-1)
    return from_lanes(saturate(merged, narrow, signed))


def unpack_interleave(a, b, elem: ElemType, high: bool):
    """Interleave low (or high) lanes of two words (``punpckl*``/``punpckh*``).

    ``result`` alternates lanes ``a[i], b[i]`` starting from the low (or
    high) half of the sources; the result has the same lane width, so half
    the source lanes of each word survive.
    """
    if type(a) is int and type(b) is int:
        spec = _LANES[elem]
        codec = spec.unsigned
        half = spec.lanes // 2
        sel = slice(half, None) if high else slice(0, half)
        out = [0] * spec.lanes
        out[0::2] = _split(a, codec)[sel]
        out[1::2] = _split(b, codec)[sel]
        return _join(out, codec)
    la = to_lanes(a, elem, signed=False)
    lb = to_lanes(b, elem, signed=False)
    lanes = elem.lanes
    half = lanes // 2
    sel = slice(half, lanes) if high else slice(0, half)
    out = np.empty(la.shape[:-1] + (lanes,), dtype=la.dtype)
    out[..., 0::2] = la[..., sel]
    out[..., 1::2] = lb[..., sel]
    return from_lanes(out)


def shuffle_halves(a, order: tuple[int, int, int, int]):
    """Rearrange the four 16-bit lanes of each word (``pshufh``)."""
    if len(order) != 4:
        raise ValueError("order must have four entries")
    if any(not 0 <= i < 4 for i in order):
        raise ValueError("shuffle indices must be in range(4)")
    if type(a) is int:
        codec = _LANES[ElemType.H].unsigned
        lanes = _split(a, codec)
        return _join([lanes[i] for i in order], codec)
    la = to_lanes(a, ElemType.H, signed=False)
    return from_lanes(la[..., list(order)])


# --- horizontal reductions ---------------------------------------------------------------

def horizontal_sum(a, elem: ElemType):
    """Sum all lanes of each word into a 64-bit scalar (``psum*`` family)."""
    if type(a) is int:
        return sum(_split(a, _LANES[elem].unsigned))
    la = to_lanes(a, elem, signed=False).astype(np.uint64)
    return la.sum(axis=-1, dtype=np.uint64)
