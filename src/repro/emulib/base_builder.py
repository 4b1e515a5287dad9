"""Builder infrastructure: functional execution plus trace capture.

The paper hand-rewrites the hot functions of each benchmark as "stylized
subroutine calls to our emulation libraries", then feeds the resulting
instruction stream (captured with ATOM) into the Jinks timing simulator.
Builders are our equivalent: a kernel is a Python function that manipulates
*register handles* through an assembly-like API.  Every call

* computes the architecturally-correct result (so outputs can be validated
  against numpy golden references), and
* writes one row to the trace (:meth:`~repro.emulib.trace.Trace.emit`, with
  no per-instruction object), carrying the register dependences, memory
  addresses and branch outcome the out-of-order timing model needs.

:class:`BaseBuilder` implements the scalar Alpha baseline -- the ISA every
media extension sits on -- including register allocation, 64-bit arithmetic,
memory access and branches whose outcome is derived from the actual register
value (exactly what an instrumented binary would produce).
"""

from __future__ import annotations

from ..isa.alpha import ALPHA
from ..isa.model import Opcode, RegPool
from .memory import Memory
from .trace import RowChecker, RowSkeleton, Trace, reg

_U64 = (1 << 64) - 1
_ALPHA_OPS = ALPHA.opcodes


def wrap64(value: int) -> int:
    """Truncate to 64 bits and reinterpret as signed two's complement."""
    value &= _U64
    if value >= 1 << 63:
        value -= 1 << 64
    return value


class RegHandle:
    """A named architectural register with its current functional value.

    Kernels allocate a handle per live variable, mirroring how hand-written
    assembly assigns logical registers; reusing a handle across loop
    iterations produces the WAW/WAR pressure that register renaming is there
    to remove.
    """

    __slots__ = ("pool", "index", "encoded", "value", "builder")

    def __init__(self, pool: RegPool, index: int, value, builder) -> None:
        self.pool = pool
        self.index = index
        self.encoded = reg(pool, index)
        self.value = value
        self.builder = builder

    def __repr__(self) -> str:
        return f"{self.pool.name.lower()}{self.index}"


class RegisterAllocator:
    """Hands out logical register indices for one pool.

    Raises when the pool is exhausted: a kernel that runs out of logical
    registers must be restructured (spill or reuse), just like real code.
    """

    def __init__(self, pool: RegPool, limit: int) -> None:
        self.pool = pool
        self.limit = limit
        self._next = 0
        self._free: list[int] = []

    def take(self) -> int:
        if self._free:
            return self._free.pop()
        if self._next >= self.limit:
            raise RuntimeError(
                f"out of logical {self.pool.name} registers (limit {self.limit})"
            )
        index = self._next
        self._next += 1
        return index

    def release(self, index: int) -> None:
        self._free.append(index)

    @property
    def in_use(self) -> int:
        return self._next - len(self._free)


class BaseBuilder:
    """Scalar Alpha-like builder; media builders extend it.

    Args:
        mem: backing functional memory.
        int_registers: logical integer registers available to kernels.
    """

    #: ISA name recorded in the produced trace.
    isa_name = "alpha"

    def __init__(self, mem: Memory | None = None, int_registers: int = 30) -> None:
        self.mem = mem if mem is not None else Memory()
        self.trace = Trace(self.isa_name)
        self.int_alloc = RegisterAllocator(RegPool.INT, int_registers)
        self._next_site = 1
        #: encoded registers created with a meaningful initial value and no
        #: defining instruction (the verifier treats them as live-in).
        self.preinit: set[int] = set()
        #: encoded registers whose values escape to the functional outputs
        #: between instructions (e.g. per-instance reduction scalars read
        #: back via ``.value``); dead-write analysis treats every write to
        #: them as observable.
        self.live_out: set[int] = set()
        #: row skeletons the replayed emitters recorded on this builder,
        #: keyed by call shape (see :func:`replay` and :func:`replay_body`).
        self.skeletons: dict[tuple, RowSkeleton] = {}

    # --- register & site management ------------------------------------------

    def ireg(self, value: int | None = None) -> RegHandle:
        """Allocate an integer register holding ``value``.

        Passing an explicit value marks the register *pre-initialized*: it
        carries meaning before any defining instruction, so dataflow
        analysis must treat it as live-in rather than undefined.
        """
        handle = RegHandle(
            RegPool.INT, self.int_alloc.take(), wrap64(value or 0), self
        )
        if value is not None:
            self.preinit.add(handle.encoded)
        return handle

    def mark_live_out(self, *handles: RegHandle) -> None:
        """Declare registers that are live beyond the visible dataflow.

        Kernels hand results to the host between instructions (appending
        ``reg.value`` per instance), and some materialize values a shared
        preamble provides but this lowering does not consume; both look
        dead to a stream analysis.  Marking the register keeps the
        dataflow verifier honest without emitting artificial
        instructions.
        """
        for handle in handles:
            self.live_out.add(handle.encoded)

    def free(self, handle: RegHandle) -> None:
        """Return a register to its pool (optional; for long kernels)."""
        if handle.pool == RegPool.INT:
            self.int_alloc.release(handle.index)
        else:
            raise ValueError(f"cannot free {handle!r} from the base builder")

    def site(self) -> int:
        """Allocate a static instruction identity (synthetic PC).

        One per static branch in the kernel source; every dynamic instance
        of that branch shares the site so the bimodal predictor and BTB can
        learn its behaviour.
        """
        pc = self._next_site
        self._next_site += 1
        return pc

    # --- emit helpers ----------------------------------------------------------

    def _emit(self, op: Opcode, srcs=(), dsts=(), addr=None, nbytes=0,
              stride=0, vl=1, taken=None, site=0) -> None:
        """Write one row to the trace; ``srcs``/``dsts`` are handles."""
        self.trace.emit(op, tuple([s.encoded for s in srcs]),
                        tuple([d.encoded for d in dsts]), addr, nbytes,
                        stride, vl, taken, site)

    def _alu(self, name: str, dst: RegHandle, srcs: tuple[int, ...],
             value: int) -> RegHandle:
        """Set ``dst`` and write the row of Alpha op ``name``.

        ``srcs`` holds the sources' *encoded* operands, written at the
        call site as a tuple literal: this is the hottest emit path, and
        a literal is several times cheaper than mapping handles here.
        """
        dst.value = wrap64(value)
        self.trace.emit(_ALPHA_OPS[name], srcs, (dst.encoded,))
        return dst

    # --- constants & moves --------------------------------------------------------

    def li(self, dst: RegHandle, imm: int) -> RegHandle:
        """Load immediate (``lda rd, imm(zero)``)."""
        return self._alu("lda", dst, (), imm)

    def mov(self, dst: RegHandle, src: RegHandle) -> RegHandle:
        """Register move (``bis rd, rs, rs``)."""
        return self._alu("bis", dst, (src.encoded,), src.value)

    # --- integer arithmetic ----------------------------------------------------------

    def addq(self, dst, a, b) -> RegHandle:
        return self._alu("addq", dst, (a.encoded, b.encoded), a.value + b.value)

    def addi(self, dst, a, imm: int) -> RegHandle:
        """Add immediate (``lda rd, imm(ra)``)."""
        return self._alu("lda", dst, (a.encoded,), a.value + imm)

    def subq(self, dst, a, b) -> RegHandle:
        return self._alu("subq", dst, (a.encoded, b.encoded), a.value - b.value)

    def subi(self, dst, a, imm: int) -> RegHandle:
        return self._alu("lda", dst, (a.encoded,), a.value - imm)

    def addl(self, dst, a, b) -> RegHandle:
        return self._alu("addl", dst, (a.encoded, b.encoded), _sext32(a.value + b.value))

    def subl(self, dst, a, b) -> RegHandle:
        return self._alu("subl", dst, (a.encoded, b.encoded), _sext32(a.value - b.value))

    def s4addq(self, dst, a, b) -> RegHandle:
        return self._alu("s4addq", dst, (a.encoded, b.encoded), a.value * 4 + b.value)

    def s8addq(self, dst, a, b) -> RegHandle:
        return self._alu("s8addq", dst, (a.encoded, b.encoded), a.value * 8 + b.value)

    def mulq(self, dst, a, b) -> RegHandle:
        return self._alu("mulq", dst, (a.encoded, b.encoded), a.value * b.value)

    def mull(self, dst, a, b) -> RegHandle:
        return self._alu("mull", dst, (a.encoded, b.encoded), _sext32(a.value * b.value))

    def muli(self, dst, a, imm: int) -> RegHandle:
        """Multiply by immediate (assembler idiom on top of ``mulq``)."""
        return self._alu("mulq", dst, (a.encoded,), a.value * imm)

    # --- logicals ----------------------------------------------------------------------

    def and_(self, dst, a, b) -> RegHandle:
        return self._alu("and_", dst, (a.encoded, b.encoded),
                         (a.value & _U64) & (b.value & _U64))

    def andi(self, dst, a, imm: int) -> RegHandle:
        return self._alu("and_", dst, (a.encoded,), (a.value & _U64) & (imm & _U64))

    def bis(self, dst, a, b) -> RegHandle:
        return self._alu("bis", dst, (a.encoded, b.encoded),
                         (a.value & _U64) | (b.value & _U64))

    def xor(self, dst, a, b) -> RegHandle:
        return self._alu("xor", dst, (a.encoded, b.encoded),
                         (a.value & _U64) ^ (b.value & _U64))

    def sll(self, dst, a, count: int) -> RegHandle:
        return self._alu("sll", dst, (a.encoded,), (a.value & _U64) << (count & 63))

    def srl(self, dst, a, count: int) -> RegHandle:
        return self._alu("srl", dst, (a.encoded,), (a.value & _U64) >> (count & 63))

    def sra(self, dst, a, count: int) -> RegHandle:
        return self._alu("sra", dst, (a.encoded,), wrap64(a.value) >> (count & 63))

    # --- compares & conditional moves -----------------------------------------------------

    def cmpeq(self, dst, a, b) -> RegHandle:
        return self._alu("cmpeq", dst, (a.encoded, b.encoded),
                         int(wrap64(a.value) == wrap64(b.value)))

    def cmplt(self, dst, a, b) -> RegHandle:
        return self._alu("cmplt", dst, (a.encoded, b.encoded),
                         int(wrap64(a.value) < wrap64(b.value)))

    def cmple(self, dst, a, b) -> RegHandle:
        return self._alu("cmple", dst, (a.encoded, b.encoded),
                         int(wrap64(a.value) <= wrap64(b.value)))

    def cmplti(self, dst, a, imm: int) -> RegHandle:
        return self._alu("cmplt", dst, (a.encoded,), int(wrap64(a.value) < imm))

    def cmpult(self, dst, a, b) -> RegHandle:
        return self._alu("cmpult", dst, (a.encoded, b.encoded),
                         int((a.value & _U64) < (b.value & _U64)))

    def cmovne(self, dst, cond, src) -> RegHandle:
        """``if cond != 0: dst <- src`` -- note dst is also a source."""
        value = src.value if wrap64(cond.value) != 0 else dst.value
        return self._alu("cmovne", dst, (cond.encoded, src.encoded, dst.encoded), value)

    def cmoveq(self, dst, cond, src) -> RegHandle:
        value = src.value if wrap64(cond.value) == 0 else dst.value
        return self._alu("cmoveq", dst, (cond.encoded, src.encoded, dst.encoded), value)

    def cmovlt(self, dst, cond, src) -> RegHandle:
        value = src.value if wrap64(cond.value) < 0 else dst.value
        return self._alu("cmovlt", dst, (cond.encoded, src.encoded, dst.encoded), value)

    def cmovge(self, dst, cond, src) -> RegHandle:
        value = src.value if wrap64(cond.value) >= 0 else dst.value
        return self._alu("cmovge", dst, (cond.encoded, src.encoded, dst.encoded), value)

    # --- byte manipulation -------------------------------------------------------------------

    def sextb(self, dst, a) -> RegHandle:
        v = a.value & 0xFF
        return self._alu("sextb", dst, (a.encoded,), v - 0x100 if v & 0x80 else v)

    def sextw(self, dst, a) -> RegHandle:
        v = a.value & 0xFFFF
        return self._alu("sextw", dst, (a.encoded,), v - 0x1_0000 if v & 0x8000 else v)

    def zapnot(self, dst, a, byte_mask: int) -> RegHandle:
        keep = 0
        for i in range(8):
            if byte_mask & (1 << i):
                keep |= 0xFF << (8 * i)
        return self._alu("zapnot", dst, (a.encoded,), (a.value & _U64) & keep)

    def extbl(self, dst, a, byte_index: int) -> RegHandle:
        return self._alu("extbl", dst, (a.encoded,),
                         ((a.value & _U64) >> (8 * byte_index)) & 0xFF)

    # --- memory ------------------------------------------------------------------------

    def _load(self, name: str, dst, base, offset: int, nbytes: int,
              signed: bool) -> RegHandle:
        addr = (base.value + offset) & _U64
        dst.value = wrap64(self.mem.read(addr, nbytes, signed=signed))
        self.trace.emit(_ALPHA_OPS[name], (base.encoded,), (dst.encoded,),
                        addr, nbytes)
        return dst

    def _store(self, name: str, src, base, offset: int, nbytes: int) -> None:
        addr = (base.value + offset) & _U64
        self.mem.write(addr, src.value, nbytes)
        self.trace.emit(_ALPHA_OPS[name], (src.encoded, base.encoded), (),
                        addr, nbytes)

    def ldq(self, dst, base, offset: int = 0) -> RegHandle:
        return self._load("ldq", dst, base, offset, 8, signed=True)

    def ldl(self, dst, base, offset: int = 0) -> RegHandle:
        return self._load("ldl", dst, base, offset, 4, signed=True)

    def ldwu(self, dst, base, offset: int = 0) -> RegHandle:
        return self._load("ldwu", dst, base, offset, 2, signed=False)

    def ldbu(self, dst, base, offset: int = 0) -> RegHandle:
        return self._load("ldbu", dst, base, offset, 1, signed=False)

    def stq(self, src, base, offset: int = 0) -> None:
        self._store("stq", src, base, offset, 8)

    def stl(self, src, base, offset: int = 0) -> None:
        self._store("stl", src, base, offset, 4)

    def stw(self, src, base, offset: int = 0) -> None:
        self._store("stw", src, base, offset, 2)

    def stb(self, src, base, offset: int = 0) -> None:
        self._store("stb", src, base, offset, 1)

    # --- control flow -----------------------------------------------------------------------

    def _branch(self, name: str, cond, taken: bool, site: int) -> bool:
        self.trace.emit(_ALPHA_OPS[name], (cond.encoded,), (), taken=taken,
                        site=site)
        return taken

    def bne(self, cond, site: int) -> bool:
        """Branch if ``cond != 0``; returns the outcome."""
        return self._branch("bne", cond, wrap64(cond.value) != 0, site)

    def beq(self, cond, site: int) -> bool:
        return self._branch("beq", cond, wrap64(cond.value) == 0, site)

    def blt(self, cond, site: int) -> bool:
        return self._branch("blt", cond, wrap64(cond.value) < 0, site)

    def bgt(self, cond, site: int) -> bool:
        return self._branch("bgt", cond, wrap64(cond.value) > 0, site)

    def bge(self, cond, site: int) -> bool:
        return self._branch("bge", cond, wrap64(cond.value) >= 0, site)

    def br(self, site: int) -> None:
        """Unconditional branch (always taken)."""
        self._emit(ALPHA["br"], taken=True, site=site)

    def jsr(self, site: int) -> None:
        self._emit(ALPHA["jsr"], taken=True, site=site)

    def ret(self, site: int) -> None:
        self._emit(ALPHA["ret"], taken=True, site=site)

    def nop(self) -> None:
        self._emit(ALPHA["nop"])

    # --- structured helpers ---------------------------------------------------------------

    def counted_loop(self, count: int):
        """Iterate a counted loop emitting realistic bookkeeping.

        Yields the iteration index; after each body the builder emits the
        decrement-and-branch pair a compiler would generate.  Usage::

            for i in b.counted_loop(16):
                ...body...
        """
        if count <= 0:
            return
        counter = self.ireg(count)
        back_edge = self.site()
        for i in range(count):
            yield i
            self.subi(counter, counter, 1)
            self.bne(counter, back_edge)
        self.free(counter)


def _own_trace(b: BaseBuilder) -> Trace:
    """``b.trace``, unless a re-run body is writing to a
    :class:`RowChecker`: a replayed call cannot nest in one."""
    trace = b.trace
    if isinstance(trace, RowChecker):
        raise ValueError(f"a replayed call cannot run inside the re-run "
                         f"body of replayed call {trace.shape!r}")
    return trace


def replay(b: BaseBuilder, shape: tuple, regs, body) -> RowSkeleton | None:
    """The row skeleton of a replayed emitter call, or ``None`` once
    ``body()`` has written the rows itself.

    The first call with a given ``shape`` and register encodings runs the
    per-instruction ``body`` on ``b`` and records the rows it wrote into
    ``b.skeletons``; later calls get that skeleton back and must compute
    the call's values and write the same rows with
    :meth:`~repro.emulib.trace.Trace.emit_skeleton`.  An emitter may be
    replayed only if none of its rows depends on a data value.  Calls
    whose registers are not all distinct always run ``body``: its values
    would not follow the replay's arithmetic.
    """
    trace = _own_trace(b)
    key = shape + tuple(reg.encoded for reg in regs)
    skeleton = b.skeletons.get(key)
    if skeleton is None:
        start = len(trace)
        body()
        if len(set(key[len(shape):])) == len(regs):
            b.skeletons[key] = trace.skeleton(start)
    return skeleton


def replay_body(b: BaseBuilder, shape: tuple, regs, body) -> None:
    """Run ``body()``, one emitter call, and write its rows as a replayed
    call once its ``shape`` and register encodings have been recorded.

    The first call with a key runs and records as :func:`replay` does.
    Every later call runs ``body()`` again with ``b.trace`` swapped for
    a :class:`~repro.emulib.trace.RowChecker` (restored whatever
    happens), so the body computes every value itself, and then appends
    the skeleton with the call's addresses, outcomes and site.  A row
    that differs from the skeleton raises ``ValueError`` naming
    ``shape`` and the row, so the key must fix every row: opcode,
    operands, ``nbytes``, ``stride``, ``vl`` and which rows carry an
    address or an outcome, with one branch site per call.  A re-run body
    that raises leaves no row of its call in the trace.
    """
    trace = b.trace
    skeleton = replay(b, shape, regs, body)
    if skeleton is None:
        return
    checker = b.trace = RowChecker(skeleton, shape)
    try:
        body()
    finally:
        b.trace = trace
    trace.emit_skeleton(skeleton, *checker.finish())


def _sext32(value: int) -> int:
    value &= 0xFFFF_FFFF
    if value >= 1 << 31:
        value -= 1 << 32
    return value
