"""Integer interval domain for the saturation-range analysis.

The abstract values are closed integer intervals ``[lo, hi]``.  Every IR
operator gets a transfer function; the only non-monotone one is ``Shr``
applied to a value that may have wrapped a 16-bit intermediate, which the
analysis handles by checking wrap explicitly rather than by widening
(media arithmetic here is all bounded, so no widening/narrowing loop is
needed -- a single forward walk reaches the fixpoint).
"""

from __future__ import annotations

from dataclasses import dataclass

U8_MAX = 255
I16_MIN = -(1 << 15)
I16_MAX = (1 << 15) - 1
U16_MAX = (1 << 16) - 1


@dataclass(frozen=True)
class Interval:
    """Closed integer interval ``[lo, hi]`` with exact arithmetic."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    # --- lattice -----------------------------------------------------------

    def join(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def within(self, lo: int, hi: int) -> bool:
        return lo <= self.lo and self.hi <= hi

    # --- transfer functions ------------------------------------------------

    def add(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def sub(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def mul(self, other: "Interval") -> "Interval":
        corners = (self.lo * other.lo, self.lo * other.hi,
                   self.hi * other.lo, self.hi * other.hi)
        return Interval(min(corners), max(corners))

    def shr(self, count: int) -> "Interval":
        # Arithmetic shift on nonnegative bounds is floor division; the
        # range pass only applies this to proven-nonnegative values.
        if self.lo < 0:
            raise ValueError("shr of possibly-negative interval")
        return Interval(self.lo >> count, self.hi >> count)

    def abs_diff(self, other: "Interval") -> "Interval":
        diff = self.sub(other)
        lo = 0 if diff.lo <= 0 <= diff.hi else min(abs(diff.lo), abs(diff.hi))
        return Interval(lo, max(abs(diff.lo), abs(diff.hi)))

    def square(self) -> "Interval":
        lo = 0 if self.lo <= 0 <= self.hi else min(self.lo ** 2, self.hi ** 2)
        return Interval(lo, max(self.lo ** 2, self.hi ** 2))

    def sat_u8(self) -> "Interval":
        return Interval(min(max(self.lo, 0), U8_MAX),
                        min(max(self.hi, 0), U8_MAX))

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def const(value: int) -> Interval:
    return Interval(value, value)
