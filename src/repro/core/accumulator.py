"""Packed 192-bit accumulators shared by the MDMX and MOM models.

A packed accumulator (Figure 4 of the paper) is a 192-bit register that is
viewed through the element type of the accumulating instruction:

======== ============ ================
elem      lanes        bits per lane
======== ============ ================
bytes     8            24
halves    4            48
words     2            96
======== ============ ================

Products and sums accumulate at full precision inside the wide lanes, so no
data promotion (pack/unpack) is ever needed; results are *truncated, rounded
and clipped* into an ordinary media register only when read out.

The crucial architectural point the paper makes: an MDMX accumulator
instruction both reads and writes the accumulator, creating a recurrence
that serializes dependent accumulations at the functional-unit latency.  A
MOM matrix instruction amortizes that recurrence over up to 16 rows of work
-- the implementation keeps ``latency`` partial accumulators in flight and
folds them at the end, like classic vector machines.
:class:`PipelinedAccumulation` models exactly that timing argument and is
used by the examples and ablation benchmarks.

Every accumulate operation takes its two operands as sequences of int
words: one word for an MDMX instruction, the first VL rows of two matrix
registers for a MOM instruction.  Both go through one path: the lanes of
all rows are split at once, each lane's contributions are summed over the
rows, and the sum is folded in once.  Lanes wrap modulo their width, so
one fold of the row sum leaves exactly the bits that folding the rows one
at a time would.
"""

from __future__ import annotations

from operator import add, mul, sub

from ..isa.model import ElemType
from . import packed
from .mom_isa import ACC_BITS

_ACC_MASK = (1 << ACC_BITS) - 1


def _lane_width(elem: ElemType) -> int:
    return ACC_BITS // elem.lanes


def _wrap_signed(value: int, bits: int) -> int:
    """Truncate ``value`` to ``bits`` and reinterpret as two's complement."""
    value &= (1 << bits) - 1
    if value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


# Per-lane contributions of one row's lanes ``x`` and ``y``: the combine
# functions of the folds below; MOM's fully-reducing matrix instructions
# reuse the two public ones.

def _neg_product(x, y):
    return -(x * y)


def abs_difference(x, y):
    return abs(x - y)


def square_difference(x, y):
    return (x - y) * (x - y)


class PackedAccumulator:
    """Value of one 192-bit packed accumulator.

    The raw 192-bit image is the canonical state; lane views are decoded on
    demand from the element type of each operation, which is exactly how the
    hardware reinterprets the same flip-flops.
    """

    __slots__ = ("bits",)

    def __init__(self, bits: int = 0) -> None:
        self.bits = bits & _ACC_MASK

    # --- lane views ----------------------------------------------------------

    def lanes(self, elem: ElemType) -> list[int]:
        """Decode the accumulator into signed lanes for an element type."""
        width = _lane_width(elem)
        return [
            _wrap_signed((self.bits >> (i * width)) & ((1 << width) - 1), width)
            for i in range(elem.lanes)
        ]

    # --- accumulate operations ----------------------------------------------

    def clear(self) -> None:
        self.bits = 0

    def _accumulate(self, deltas, elem: ElemType) -> None:
        """Add one delta per lane, each lane wrapping modulo its width."""
        width = _lane_width(elem)
        mask = (1 << width) - 1
        bits = self.bits
        out = 0
        shift = 0
        for delta in deltas:
            out |= (((bits >> shift) + delta) & mask) << shift
            shift += width
        self.bits = out

    def _fold(self, a, b, elem: ElemType, signed: bool, combine) -> None:
        """``acc += combine(a, b)`` per lane, summed over the rows ``a``
        and ``b`` (equal-length sequences of int words)."""
        n = elem.lanes
        terms = list(map(combine, packed.rows_to_lanes(a, elem, signed),
                         packed.rows_to_lanes(b, elem, signed)))
        self._accumulate([sum(terms[i::n]) for i in range(n)], elem)

    def madd(self, a, b, elem: ElemType, signed: bool = True,
             subtract: bool = False) -> None:
        """``acc +/-= a * b`` per lane, full-precision products."""
        self._fold(a, b, elem, signed, _neg_product if subtract else mul)

    def acc_add(self, a, b, elem: ElemType, subtract: bool = False) -> None:
        """``acc += a + b`` (or ``a - b``) per unsigned lane."""
        self._fold(a, b, elem, False, sub if subtract else add)

    def acc_sad(self, a, b, elem: ElemType) -> None:
        """``acc += |a - b|`` per unsigned lane (motion1's primitive)."""
        self._fold(a, b, elem, False, abs_difference)

    def acc_sqd(self, a, b, elem: ElemType) -> None:
        """``acc += (a - b)^2`` per unsigned lane (motion2's primitive)."""
        self._fold(a, b, elem, False, square_difference)

    def scalar_add(self, delta: int) -> None:
        """Accumulate into the register viewed as one 192-bit scalar.

        The fully-reducing matrix instructions (``mommsad``, ``mommsqd``,
        ``mommpv``, ``mommvm``) collapse both the row and the lane dimension
        in hardware (an adder tree behind the lanes) and accumulate a single
        wide total -- that is what makes them "very powerful" (Section 2.2):
        the software read-out is a single ``racl`` of the low 64 bits.
        """
        self.bits = (self.bits + delta) & _ACC_MASK

    # --- read-out / restore ------------------------------------------------------

    def read_third(self, which: str) -> int:
        """Read the low/middle/high 64-bit third of the raw 192-bit image."""
        shift = {"low": 0, "mid": 64, "high": 128}[which]
        return (self.bits >> shift) & 0xFFFF_FFFF_FFFF_FFFF

    def read_slice(self, which: str, elem: ElemType) -> int:
        """Read one third of *every lane*, packed into a 64-bit word.

        This is the MIPS-style ``rac{l,m,h}.fmt`` semantics: for byte-format
        accumulation (8 x 24-bit lanes), ``racl`` returns the low 8 bits of
        each lane as a packed byte word, ``racm`` the middle 8 bits and
        ``rach`` the high 8 bits; halfword format slices 16-bit chunks of
        the 4 x 48-bit lanes.  Software then reassembles wide values with
        ordinary ``punpck`` instructions -- no special datapath needed.
        """
        width = _lane_width(elem)
        third = width // 3
        offset = {"low": 0, "mid": third, "high": 2 * third}[which]
        mask = (1 << third) - 1
        out = 0
        for i in range(elem.lanes):
            lane_bits = (self.bits >> (i * width)) & ((1 << width) - 1)
            out |= ((lane_bits >> offset) & mask) << (i * third)
        return out & 0xFFFF_FFFF_FFFF_FFFF

    def write_third(self, which: str, value: int) -> None:
        """Restore one 64-bit third (``wacl``/``wach``)."""
        shift = {"low": 0, "mid": 64, "high": 128}[which]
        mask = 0xFFFF_FFFF_FFFF_FFFF << shift
        self.bits = (self.bits & ~mask | (value & 0xFFFF_FFFF_FFFF_FFFF) << shift) & _ACC_MASK

    def read_saturated(self, elem: ElemType, signed: bool, shift: int = 0) -> int:
        """Round, shift and clip lanes into a packed 64-bit word.

        This is the ``racc{s,u}{b,h}`` read-out: each wide lane is rounded to
        nearest (adding half an LSB before an arithmetic right shift by
        ``shift``), then saturated to the target signed/unsigned range.
        """
        if shift < 0:
            raise ValueError("shift must be non-negative")
        bits = elem.bits
        lo, hi = ((-(1 << (bits - 1)), (1 << (bits - 1)) - 1) if signed
                  else (0, (1 << bits) - 1))
        half = (1 << (shift - 1)) if shift else 0
        out = []
        for lane in self.lanes(elem):
            lane = (lane + half) >> shift
            out.append(lo if lane < lo else hi if lane > hi else lane)
        return packed.lanes_to_rows(out, elem)[0]

    def total(self, elem: ElemType) -> int:
        """Sum of all lanes -- convenient for reduction read-out in kernels."""
        return sum(self.lanes(elem))

    def copy(self) -> "PackedAccumulator":
        return PackedAccumulator(self.bits)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedAccumulator):
            return NotImplemented
        return self.bits == other.bits

    def __repr__(self) -> str:
        return f"PackedAccumulator({self.bits:#050x})"


class PipelinedAccumulation:
    """Timing model of the accumulator recurrence (Section 2.1).

    Models a functional unit of latency ``L`` fed a chain of ``n`` dependent
    accumulation operations:

    * **MDMX style** -- every operation needs the previous accumulator value,
      so operation *i* cannot start before *i-1* finishes: ``n * L`` cycles.
    * **MOM style** -- one matrix instruction carries VL independent row
      operations; the unit keeps ``L`` partial accumulators in flight and
      retires one row per cycle per lane, folding partials at the end:
      ``VL / lanes + L`` cycles per instruction.

    This little analytical model backs the ``accumulator_pipelining`` example
    and the ablation benchmark; the full cycle simulator reproduces the same
    effect mechanically through its dependence tracking.
    """

    def __init__(self, latency: int, lanes: int = 1) -> None:
        if latency < 1 or lanes < 1:
            raise ValueError("latency and lanes must be >= 1")
        self.latency = latency
        self.lanes = lanes

    def mdmx_cycles(self, operations: int) -> int:
        """Cycles for ``operations`` chained accumulations, MDMX style."""
        if operations < 0:
            raise ValueError("operation count must be non-negative")
        return operations * self.latency

    def mom_cycles(self, rows: int, instructions: int = 1) -> int:
        """Cycles for ``instructions`` matrix accumulations of ``rows`` rows.

        Rows stream through the pipeline at ``lanes`` per cycle; the final
        fold of the ``latency`` partial accumulators costs one drain.
        Consecutive matrix instructions can be chained back-to-back because
        partial accumulators carry across instructions; the drain is paid
        once.
        """
        if rows < 0 or instructions < 0:
            raise ValueError("counts must be non-negative")
        if instructions == 0 or rows == 0:
            return 0
        streaming = instructions * -(-rows // self.lanes)  # ceil division
        return streaming + self.latency
