"""Scalar Alpha builder and common scalar code idioms.

The plain-superscalar baseline uses only the scalar instruction set, so the
Alpha builder is the base builder under its own name.  Kept as a distinct
class so traces are tagged with the right ISA and so baseline-specific
helpers have a home.
"""

from __future__ import annotations

from .base_builder import BaseBuilder, RegHandle


class AlphaBuilder(BaseBuilder):
    """Builder producing pure scalar Alpha traces (the paper's baseline)."""

    isa_name = "alpha"


def reads_written(reads, writes) -> bool:
    """Whether a step of an emitter's body reads a byte an earlier step
    wrote.  ``reads[k]`` and ``writes[k]`` hold the byte addresses step
    ``k`` reads and then writes.  A replay that reads all its inputs
    before it writes any output computes what the body would only when
    no step does."""
    written = [a for step in writes for a in step]
    read = [a for step in reads for a in step]
    if (not written or not read or max(written) < min(read)
            or min(written) > max(read)):
        return False
    first: dict[int, int] = {}
    for k, step in enumerate(writes):
        for a in step:
            first.setdefault(a, k)
    return any(first.get(a, k) < k
               for k, step in enumerate(reads) for a in step)


def emit_abs_diff(b: BaseBuilder, dst: RegHandle, x: RegHandle, y: RegHandle,
                  scratch: RegHandle) -> RegHandle:
    """Emit ``dst = |x - y|`` with the branch-free sub/sub/cmovlt idiom.

    Three instructions and no control hazard -- what a late-90s compiler
    emits for ``abs(a[i]-b[i])`` on Alpha.
    """
    b.subq(dst, x, y)
    b.subq(scratch, y, x)
    b.cmovlt(dst, dst, scratch)
    return dst


def emit_track_min(b: BaseBuilder, value: RegHandle, best: RegHandle,
                   besti: RegHandle, tmp: RegHandle, cand: RegHandle,
                   index: int) -> None:
    """Emit the strictly-less running argmin: ``best, besti`` take
    ``value, index`` when ``value < best`` (compare + conditional moves)."""
    b.li(cand, index)
    b.cmplt(tmp, value, best)
    b.cmovne(best, tmp, value)
    b.cmovne(besti, tmp, cand)


def emit_track_max(b: BaseBuilder, value: RegHandle, best: RegHandle,
                   besti: RegHandle, tmp: RegHandle, cand: RegHandle,
                   index: int) -> None:
    """Emit the strictly-greater running argmax (the twin of
    :func:`emit_track_min`)."""
    b.li(cand, index)
    b.cmplt(tmp, best, value)
    b.cmovne(best, tmp, value)
    b.cmovne(besti, tmp, cand)


def emit_clamp(b: BaseBuilder, value: RegHandle, lo: RegHandle, hi: RegHandle,
               scratch: RegHandle) -> RegHandle:
    """Emit ``value = min(max(value, lo), hi)`` with compare + cmov pairs."""
    b.cmplt(scratch, value, lo)
    b.cmovne(value, scratch, lo)
    b.cmplt(scratch, hi, value)
    b.cmovne(value, scratch, hi)
    return value
