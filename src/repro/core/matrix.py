"""The MOM matrix register: a 16-row matrix of 64-bit packed words.

A MOM register (Section 2.2 of the paper) holds two dimensions of data-level
parallelism at once:

* the *intra-word* dimension -- each 64-bit row is an MMX-style packed word
  of 8/4/2 sub-word lanes, and
* the *inter-word* dimension -- up to 16 rows, selected by the vector length
  (VL) register, loaded from memory with an arbitrary byte stride between
  consecutive rows.

This module gives the matrix register its value type: 16 rows, each an
int word of :mod:`repro.core.packed`, so a MOM instruction applies the
MMX/MDMX word operation to each row.  It is used by the functional
emulation library, the MOM builder and the tests.  The timing simulator
never touches values; it only sees instruction records.
"""

from __future__ import annotations

from ..isa.model import ElemType
from . import packed
from .mom_isa import MATRIX_ROWS

_U64 = (1 << 64) - 1


class MomRegister:
    """Value of one MOM matrix register: 16 rows x 64 bits.

    ``rows`` is a list of 16 Python ints in ``[0, 2**64)``.  Instructions
    shorter than the full register leave rows at and beyond VL untouched,
    as the hardware would.  The MOM builder never updates a register in
    place: each write makes a new value (:meth:`with_rows`).  Registers
    compare by their rows and, being mutable, are unhashable.
    """

    __slots__ = ("rows",)

    def __init__(self, rows=None) -> None:
        if rows is None:
            self.rows = [0] * MATRIX_ROWS
            return
        words = [int(r) & _U64 for r in rows]
        if len(words) != MATRIX_ROWS:
            raise ValueError(
                f"a MOM register has exactly {MATRIX_ROWS} rows, got {len(words)}"
            )
        self.rows = words

    @classmethod
    def from_lane_matrix(cls, lanes, elem: ElemType) -> "MomRegister":
        """Build a register from rows of lane values (lane 0 first).

        Rows beyond the supplied matrix are zero.  Lane values are truncated
        to the lane width (two's complement).
        """
        lanes = [list(row) for row in lanes]
        if any(len(row) != elem.lanes for row in lanes):
            raise ValueError(f"expected rows of {elem.lanes} lanes")
        if len(lanes) > MATRIX_ROWS:
            raise ValueError(f"at most {MATRIX_ROWS} rows fit a MOM register")
        words = packed.lanes_to_rows([v for row in lanes for v in row], elem)
        return cls(words + (0,) * (MATRIX_ROWS - len(words)))

    def copy(self) -> "MomRegister":
        out = MomRegister()
        out.rows = self.rows.copy()
        return out

    def with_rows(self, words, start: int = 0) -> "MomRegister":
        """A copy whose rows from ``start`` on are ``words`` (int words in
        ``[0, 2**64)``, as the packed operations return them); the other
        rows keep their value."""
        out = self.copy()
        out.rows[start:start + len(words)] = words
        return out

    def get_row(self, index: int) -> int:
        """Read one 64-bit row."""
        return self.rows[index]

    # --- matrix-level transforms ----------------------------------------------

    def transpose_blocks(self, elem: ElemType) -> "MomRegister":
        """Transpose square lane blocks down the register.

        This is the ``momtrans{b,h,w}`` primitive the paper highlights for
        "switching vector dimensions without pack/unpack operations".  The
        register is treated as consecutive square blocks of ``lanes x lanes``
        elements (8x8 bytes, 4x4 halfwords or 2x2 words); each block is
        transposed independently.  16 rows always divide evenly into blocks.
        """
        n = elem.lanes
        lanes = packed.rows_to_lanes(self.rows, elem)
        out = []
        for base in range(0, len(lanes), n * n):
            block = lanes[base:base + n * n]
            for i in range(n):
                out += block[i::n]
        return MomRegister(packed.lanes_to_rows(out, elem))

    def row_shift(self, towards_zero: bool) -> "MomRegister":
        """Shift rows by one position, filling the vacated row with zero.

        ``towards_zero=True`` implements ``momrowshl`` (row i <- row i+1),
        ``False`` implements ``momrowshr`` (row i+1 <- row i).
        """
        if towards_zero:
            return MomRegister(self.rows[1:] + [0])
        return MomRegister([0] + self.rows[:-1])

    # --- comparisons -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MomRegister):
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self) -> str:
        head = ", ".join(f"{r:#x}" for r in self.rows[:3])
        return f"MomRegister([{head}, ...])"
