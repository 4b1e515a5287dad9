"""Shared machinery of the four lowering passes.

Every pass goes through the same phases -- allocate buffers in
declaration order, emit a preamble, walk the instances, read the outputs
back -- and the phases are kept here so the per-ISA modules contain only
the strategy that actually differs (Section 2's scalar strip-mining, MMX
row packing, MDMX accumulator recurrence, MOM 2D tiling).

Emission-order discipline matters more than usual in this package: the
parity tests pin compiled traces digest-for-digest against the
hand-written builders, so helpers here preserve the hand codegen's
register-allocation and instruction order exactly (see
``tests/test_vc_parity.py``).
"""

from __future__ import annotations

import numpy as np

from ..emulib.alpha_builder import emit_track_min
from .ir import ELEM_BYTES, TABLE_BIAS, TABLE_SIZE, Binding, LoopKernel

#: Row-loop unroll factor of the packed passes (the hand builders unroll
#: the MMX/MDMX row loops by four, Section 3.1).
PACKED_UNROLL = 4


def unroll_for(rows: int) -> int:
    """Unroll factor of the packed row loop for a ``rows``-deep nest."""
    return PACKED_UNROLL if rows % PACKED_UNROLL == 0 else 1


def alloc_buffers(builder, ir: LoopKernel, binding: Binding) -> dict[str, int]:
    """Allocate every buffer in declaration order; returns name -> base.

    Inputs are copied into simulated memory; the out buffer is
    zero-allocated (instances * rows * cols bytes).  Declaration order
    matches the hand builders' allocation order, which keeps every
    effective address in the trace identical.
    """
    bases: dict[str, int] = {}
    for buf in ir.buffers:
        bound = binding.buffers[buf.name]
        if buf.out:
            nbytes = binding.instances * ir.rows * ir.cols
            bases[buf.name] = builder.mem.alloc(nbytes)
        else:
            bases[buf.name] = builder.mem.alloc_array(
                np.ascontiguousarray(bound.array))
    return bases


def note_lowering(builder, ir: LoopKernel, binding: Binding,
                  bases: dict[str, int]) -> None:
    """Attach lowering provenance to the builder for the analysis layer.

    Pure attribute assignment -- no instructions are emitted, no memory is
    touched -- so digest-pinned traces are unaffected.  The static
    verifier (:mod:`repro.analysis`) reads these to check the lowered
    stream against the IR it came from (buffer bounds, reduction shape,
    saturation ranges) without re-running the compiler.
    """
    builder.vc_lowering = {
        "ir": ir,
        "binding": binding,
        "bases": dict(bases),
        "isa": builder.isa_name,
    }


def alloc_sat_table(builder) -> int:
    """Place the scalar saturation lookup table; returns its base.

    Content and domain are exactly mpeg2play's ``Add_Block`` clamp table
    (the memory-bound idiom the media ISAs replace with ``packushb``).
    """
    clamp = np.clip(np.arange(TABLE_SIZE) - TABLE_BIAS, 0, 255)
    return builder.mem.alloc_array(clamp.astype(np.uint8))


def make_const_word(value: int, halves: bool) -> int:
    """Broadcast a lane constant across one 64-bit packed word."""
    if halves:
        return sum((value & 0xFFFF) << (16 * i) for i in range(4))
    return sum((value & 0xFF) << (8 * i) for i in range(8))


def alloc_const_pool(builder, words: list[int]) -> int:
    """Place the packed constant pool in memory; returns its base."""
    return builder.mem.alloc_array(np.asarray(words, dtype=np.uint64))


class ArgminTracker:
    """Strictly-less running minimum over per-instance scalars.

    Emits the hand builders' compare + conditional-move triple per
    instance (:func:`~repro.emulib.alpha_builder.emit_track_min`) and
    remembers the functional values so the outputs can be read back
    without re-walking registers.
    """

    def __init__(self, builder) -> None:
        self.b = builder
        self.best = builder.ireg(1 << 30)
        self.besti = builder.ireg(0)
        self.tmp = builder.ireg()
        self.cand = builder.ireg()

    def track(self, dist, index: int) -> None:
        emit_track_min(self.b, dist, self.best, self.besti, self.tmp,
                       self.cand, index)

    @property
    def best_index(self) -> int:
        return self.besti.value


def read_map_output(builder, ir: LoopKernel, binding: Binding,
                    out_base: int, key: str) -> dict[str, np.ndarray]:
    """Read the out buffer back as ``(instances, rows, cols)`` u8."""
    count = binding.instances * ir.rows * ir.cols
    flat = builder.mem.load_array(out_base, np.uint8, count)
    return {key: flat.reshape(binding.instances, ir.rows, ir.cols)}


def reduce_outputs(distances: list[int],
                   tracker: ArgminTracker | None) -> dict[str, np.ndarray]:
    """Package per-instance scalars (and the argmin, when tracked)."""
    out = {"distances": np.asarray(distances, dtype=np.int64)}
    if tracker is not None:
        out["best"] = np.asarray([tracker.best_index])
    return out


def load_offset(buf_elem: str, tile: int, half: int = 0) -> int:
    """Byte offset of a tile (and 8-byte half for i16 tiles) in a row."""
    return tile * 8 * ELEM_BYTES[buf_elem] + half * 8


# --- packed map evaluation ---------------------------------------------------

def plan_packed(ir: LoopKernel) -> tuple[bool, list[tuple[int, str]]]:
    """Static facts the packed preamble needs, in evaluation order.

    Returns ``(zero_needed, const_keys)``: whether a zero register must be
    materialized (byte promotion or the unsigned-compare idiom), and the
    distinct ``(value, domain)`` constants in first-use order.  The walk
    mirrors :meth:`PackedEval.eval` exactly so preamble materialization
    order matches the evaluator's expectations.
    """
    from .ir import (Add, AbsDiff, BYTE, Const, GtU, HALF, I16, Load, Mul,
                     Select, SatU8, Shr, Sub)

    zero_needed = False
    const_keys: list[tuple[int, str]] = []

    def walk(node, want: str) -> None:
        nonlocal zero_needed
        if isinstance(node, Load):
            if ir.buffer(node.buf).elem != I16 and want == HALF:
                zero_needed = True
            return
        if isinstance(node, Const):
            key = (node.value, want)
            if key not in const_keys:
                const_keys.append(key)
            return
        if isinstance(node, (Add, Sub, Mul)):
            walk(node.a, HALF)
            walk(node.b, HALF)
        elif isinstance(node, Shr):
            walk(node.a, HALF)
        elif isinstance(node, AbsDiff):
            walk(node.a, BYTE)
            walk(node.b, BYTE)
        elif isinstance(node, Select):
            mask: GtU = node.mask
            walk(mask.a, BYTE)
            walk(mask.b, BYTE)
            zero_needed = True      # pcmpeqb against zero
            walk(node.a, BYTE)
            walk(node.b, BYTE)
        elif isinstance(node, SatU8):
            walk(node.a, HALF)
        else:
            raise NotImplementedError(
                f"packed lowering of {type(node).__name__}")

    walk(ir.expr, "byte")
    return zero_needed, const_keys


class PackedVal:
    """An evaluated packed value: a byte register or a half pair."""

    __slots__ = ("form", "regs", "writable")

    def __init__(self, form: str, regs: tuple, writable: bool) -> None:
        self.form = form
        self.regs = regs
        self.writable = writable

    @property
    def byte(self):
        assert self.form == "byte"
        return self.regs[0]


class PackedEval:
    """Row-tile expression evaluator for the packed (SIMD/matrix) passes.

    Subclasses supply the memory hooks (MMX offsets a base pointer, MOM
    walks a strided matrix access); everything else -- byte/half domain
    propagation, u8 promotion through ``punpck``, in-place destination
    policy, the unsigned-compare Select idiom, ``packushb`` saturation --
    is identical across the three media ISAs, which is the point: the
    paradigms differ in *coverage*, not in packed-operator vocabulary.

    Registers are allocated lazily per role and cached, so every row and
    instance reuses the same handles (the WAW pressure register renaming
    exists to remove, just like the hand builders).
    """

    def __init__(self, b, ir: LoopKernel) -> None:
        from .ir import BYTE  # local to avoid a circular top-level import
        self.b = b
        self.ir = ir
        self.use_counts = ir.use_counts()
        self.zero = None                 # set by the pass when planned
        self.consts: dict[tuple[int, str], object] = {}
        self.pointers: dict[str, object] = {}
        self._regs: dict[object, object] = {}
        self._memo: dict[tuple, PackedVal] = {}
        self._first_u8_byte = None
        self._scratch_n = 0
        self._byte = BYTE

    # --- hooks ---------------------------------------------------------------

    def emit_load_u8(self, reg, buf: str, tile: int) -> None:
        raise NotImplementedError

    def emit_load_i16(self, lo, hi, buf: str, tile: int) -> None:
        raise NotImplementedError

    # --- register roles ------------------------------------------------------

    def reg(self, key):
        if key not in self._regs:
            self._regs[key] = self.b.mreg()
        return self._regs[key]

    def _scratch(self, kind: str):
        name = (f"scratch:{kind}:{self._scratch_n}")
        self._scratch_n += 1
        return self.reg(name)

    # --- evaluation ----------------------------------------------------------

    def eval_tile(self, expr, tile: int) -> PackedVal:
        """Evaluate the expression for one 8-byte column tile."""
        self._memo = {}
        self._first_u8_byte = None
        self._scratch_n = 0
        val = self.eval(expr, tile, dict(self.use_counts), self._byte)
        if val.form != "byte":
            raise ValueError(f"{self.ir.name}: map result must be saturated "
                             f"to bytes (wrap the root in SatU8)")
        return val

    def eval(self, node, tile: int, remaining: dict, want: str) -> PackedVal:
        from .ir import (Add, AbsDiff, Const, GtU, HALF, I16, Load, Mul,
                         Select, SatU8, Shr, Sub)
        b = self.b
        memo_key = (node, want)
        if isinstance(node, Load) and memo_key in self._memo:
            return self._memo[memo_key]

        if isinstance(node, Load):
            elem = self.ir.buffer(node.buf).elem
            if elem == I16:
                lo = self.reg((node, "lo"))
                hi = self.reg((node, "hi"))
                self.emit_load_i16(lo, hi, node.buf, tile)
                val = PackedVal("half", (lo, hi), True)
            else:
                breg = self.reg((node, "byte"))
                self.emit_load_u8(breg, node.buf, tile)
                if self._first_u8_byte is None:
                    self._first_u8_byte = breg
                if want == HALF:
                    lo = self.reg((node, "lo"))
                    hi = self.reg((node, "hi"))
                    b.punpcklb(lo, breg, self.zero)
                    b.punpckhb(hi, breg, self.zero)
                    val = PackedVal("half", (lo, hi), True)
                else:
                    val = PackedVal("byte", (breg,), True)
            self._memo[memo_key] = val
            return val

        if isinstance(node, Const):
            creg = self.consts[(node.value, want)]
            if want == HALF:
                return PackedVal("half", (creg, creg), False)
            return PackedVal("byte", (creg,), False)

        if isinstance(node, (Add, Sub, Mul)):
            op = {Add: b.paddh, Sub: b.psubh, Mul: b.pmullh}[type(node)]
            va = self.eval(node.a, tile, remaining, "half")
            vb = self.eval(node.b, tile, remaining, "half")
            dst = self._pair_dst(va, node.a, vb, node.b, remaining)
            op(dst.regs[0], va.regs[0], vb.regs[0])
            op(dst.regs[1], va.regs[1], vb.regs[1])
            return dst

        if isinstance(node, Shr):
            va = self.eval(node.a, tile, remaining, "half")
            dst = self._pair_dst(va, node.a, None, None, remaining)
            b.psrlh(dst.regs[0], va.regs[0], node.count)
            b.psrlh(dst.regs[1], va.regs[1], node.count)
            return dst

        if isinstance(node, AbsDiff):
            va = self.eval(node.a, tile, remaining, "byte")
            vb = self.eval(node.b, tile, remaining, "byte")
            dst = self._byte_dst(va, node.a, vb, node.b, remaining)
            b.pabsdiffb(dst.byte, va.byte, vb.byte)
            return dst

        if isinstance(node, Select):
            mask: GtU = node.mask
            vx = self.eval(mask.a, tile, remaining, "byte")
            vbound = self.eval(mask.b, tile, remaining, "byte")
            m = self._byte_dst(vx, mask.a, None, None, remaining)
            self._consume(mask.b, remaining)
            # Unsigned a > bound via saturating subtract: the result is
            # non-zero exactly where a exceeds bound, so comparing the
            # difference against zero yields the *inverted* mask and the
            # select operands swap.
            b.psubusb(m.byte, vx.byte, vbound.byte)
            b.pcmpeqb(m.byte, m.byte, self.zero)
            va = self.eval(node.a, tile, remaining, "byte")
            vb = self.eval(node.b, tile, remaining, "byte")
            self._consume(node.a, remaining)
            self._consume(node.b, remaining)
            b.pcmov(m.byte, m.byte, vb.byte, va.byte)
            return PackedVal("byte", (m.byte,), True)

        if isinstance(node, SatU8):
            va = self.eval(node.a, tile, remaining, "half")
            self._consume(node.a, remaining)
            dst = self._first_u8_byte
            if dst is None:
                dst = self._scratch("pack")
            b.packushb(dst, va.regs[0], va.regs[1])
            return PackedVal("byte", (dst,), True)

        raise NotImplementedError(f"packed lowering of {type(node).__name__}")

    # --- destination policy --------------------------------------------------

    def _consume(self, node, remaining: dict) -> None:
        remaining[node] = remaining.get(node, 1) - 1

    def _dead(self, node, remaining) -> bool:
        return remaining.get(node, 0) == 0

    def _pair_dst(self, va, na, vb, nb, remaining) -> PackedVal:
        self._consume(na, remaining)
        if nb is not None:
            self._consume(nb, remaining)
        if va.writable and self._dead(na, remaining):
            return PackedVal("half", va.regs, True)
        if vb is not None and vb.writable and self._dead(nb, remaining):
            return PackedVal("half", vb.regs, True)
        return PackedVal("half",
                         (self._scratch("lo"), self._scratch("hi")), True)

    def _byte_dst(self, va, na, vb, nb, remaining) -> PackedVal:
        self._consume(na, remaining)
        if nb is not None:
            self._consume(nb, remaining)
        if va.writable and self._dead(na, remaining):
            return PackedVal("byte", va.regs, True)
        if vb is not None and vb.writable and self._dead(nb, remaining):
            return PackedVal("byte", vb.regs, True)
        return PackedVal("byte", (self._scratch("b"),), True)
