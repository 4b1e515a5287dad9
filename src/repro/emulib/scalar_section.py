"""Calibrated synthesizer for non-vectorizable program sections.

The full-application study (Section 4.2) simulates entire Mediabench
programs: hand-vectorized hot functions plus everything else -- entropy
coding, bitstream assembly, header parsing, control.  The paper gets that
"everything else" from the ATOM-instrumented binary; we synthesize it.

Each non-vectorizable phase of an application measures its *exact* dynamic
operation counts while executing functionally in Python (e.g. one VLC
symbol -> so many compares, table loads, shifts and bit appends), fills a
:class:`SectionProfile`, and the synthesizer emits a scalar Alpha stream
with that instruction mix, a realistic dependence depth, a configurable
memory footprint (table lookups walk a buffer) and a mix of predictable
loop branches and data-dependent (hard-to-predict) branches.

Because the same profile is emitted identically for every ISA configuration
of an application, Amdahl's law plays out exactly as in the paper: the
scalar fraction bounds full-program speedups well below the kernel-level
numbers of Figure 5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base_builder import BaseBuilder


@dataclass
class SectionProfile:
    """Dynamic operation counts of one non-vectorizable program phase.

    Attributes:
        name: phase label (for DESIGN/EXPERIMENTS bookkeeping).
        loads: dependent memory reads (table lookups, buffer reads).
        stores: memory writes (bitstream bytes, state updates).
        alu: simple integer operations (add/shift/logical/compare).
        muls: integer multiplies.
        loop_branches: well-predicted back-edge style branches.
        data_branches: data-dependent, poorly-predictable branches
            (VLC code-length decisions and the like).
        footprint: bytes of memory the phase touches (lookup tables +
            output buffer); drives the cache behaviour of the phase.
    """

    name: str
    loads: int = 0
    stores: int = 0
    alu: int = 0
    muls: int = 0
    loop_branches: int = 0
    data_branches: int = 0
    footprint: int = 4096

    def total_instructions(self) -> int:
        return (self.loads + self.stores + self.alu + self.muls
                + self.loop_branches + self.data_branches)

    def scaled(self, factor: float) -> "SectionProfile":
        """A proportionally scaled copy (used by reduced-size workloads)."""
        return SectionProfile(
            name=self.name,
            loads=int(self.loads * factor),
            stores=int(self.stores * factor),
            alu=int(self.alu * factor),
            muls=int(self.muls * factor),
            loop_branches=int(self.loop_branches * factor),
            data_branches=int(self.data_branches * factor),
            footprint=self.footprint,
        )


def emit_scalar_section(b: BaseBuilder, profile: SectionProfile,
                        seed: int = 1) -> None:
    """Emit a scalar stream matching ``profile`` into builder ``b``.

    The stream is a loop whose body interleaves the operation classes in
    proportion, with a serial dependence chain of depth ~3 (typical of
    pointer-chasing entropy code).  Loop branches are emitted on a single
    well-predicted site; data branches on a site driven by a deterministic
    pseudo-random outcome sequence, which trains the bimodal predictor to
    its realistic mid-50s accuracy for such code.
    """
    total = profile.total_instructions()
    if total == 0:
        return
    rng = np.random.default_rng(seed)
    buf = b.mem.alloc(max(64, profile.footprint))
    ptr = b.ireg(buf)
    acc = b.ireg(seed & 0xFFFF)
    tmp = b.ireg()
    loop_site = b.site()
    data_site = b.site()

    # Remaining counts in the order ties break: loads, stores, alu, muls,
    # loop branches, data branches.
    remaining = [profile.loads, profile.stores, profile.alu, profile.muls,
                 profile.loop_branches, profile.data_branches]
    LOADS, STORES, ALU, MULS, LOOP, DATA = range(6)
    # One draw for every data branch equals one draw per branch.
    outcomes = iter(rng.integers(0, 2, size=max(0, profile.data_branches))
                    .tolist())
    stride = 24
    offset = 0
    span = max(64, profile.footprint - 8)

    while True:
        # Largest-remainder pick keeps the mix proportional throughout;
        # ``index`` breaks ties towards the first kind in the order above.
        most = max(remaining)
        if most <= 0:
            break
        kind = remaining.index(most)
        remaining[kind] -= 1
        if kind == LOADS:
            b.ldbu(tmp, ptr, offset)
            b.addq(acc, acc, tmp)          # dependent use
            if remaining[ALU] > 0:
                remaining[ALU] -= 1
            offset = (offset + stride) % span
        elif kind == STORES:
            b.stb(acc, ptr, offset)
            offset = (offset + stride) % span
        elif kind == ALU:
            b.addi(acc, acc, 3)
        elif kind == MULS:
            b.muli(acc, acc, 3)
        elif kind == LOOP:
            b.li(tmp, 0 if remaining[LOOP] == 0 else 1)
            b.bne(tmp, loop_site)
        else:  # DATA
            b.li(tmp, next(outcomes))
            b.bne(tmp, data_site)
    b.free(ptr)
    b.free(acc)
    b.free(tmp)
