"""Common ISA modelling infrastructure shared by all four simulated ISAs.

The reproduction models four instruction sets on top of a common framework:

* ``alpha`` -- the scalar baseline (the paper adds every media extension on
  top of the Alpha ISA, *not* x86/MIPS),
* ``mmx``   -- an MMX-like sub-word SIMD extension (67 opcodes),
* ``mdmx``  -- an MDMX-like extension with packed accumulators (88 opcodes),
* ``mom``   -- the paper's matrix-oriented extension (121 opcodes).

Every opcode is described by an :class:`Opcode` record carrying the
information the timing model needs: which functional-unit class executes it
(:class:`InstrClass`), its execution latency, and which register pools its
operands live in (:class:`RegPool`).  The emulation libraries in
:mod:`repro.emulib` attach functional semantics to these opcodes; this module
is purely declarative.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class InstrClass(enum.IntEnum):
    """Functional-unit class of an instruction.

    The out-of-order core maps each class onto a pool of functional units
    (Table 1 of the paper): *simple* integer/FP/media units handle logic,
    shifts and adds, while *complex* units additionally handle multiplies
    and divides.  Memory classes occupy a memory port instead of an ALU.
    """

    INT_SIMPLE = 0      #: integer add / logical / shift / compare
    INT_COMPLEX = 1     #: integer multiply / divide
    FP_SIMPLE = 2       #: FP add / compare / convert
    FP_COMPLEX = 3      #: FP multiply / divide / sqrt
    MED_SIMPLE = 4      #: packed add / logical / shift / min / max
    MED_COMPLEX = 5     #: packed multiply, multiply-accumulate, matrix ops
    LOAD = 6            #: scalar load (INT or FP destination)
    STORE = 7           #: scalar store
    MED_LOAD = 8        #: media / matrix load (MOM: up to VL words)
    MED_STORE = 9       #: media / matrix store
    BRANCH = 10         #: conditional branch
    JUMP = 11           #: unconditional jump / call / return
    NOP = 12            #: no-operation (padding)

    @property
    def is_memory(self) -> bool:
        return self in _MEMORY_CLASSES

    @property
    def is_load(self) -> bool:
        return self in (InstrClass.LOAD, InstrClass.MED_LOAD)

    @property
    def is_store(self) -> bool:
        return self in (InstrClass.STORE, InstrClass.MED_STORE)

    @property
    def is_media(self) -> bool:
        return self in _MEDIA_CLASSES

    @property
    def is_control(self) -> bool:
        return self in (InstrClass.BRANCH, InstrClass.JUMP)


_MEMORY_CLASSES = frozenset(
    {InstrClass.LOAD, InstrClass.STORE, InstrClass.MED_LOAD, InstrClass.MED_STORE}
)
_MEDIA_CLASSES = frozenset(
    {
        InstrClass.MED_SIMPLE,
        InstrClass.MED_COMPLEX,
        InstrClass.MED_LOAD,
        InstrClass.MED_STORE,
    }
)


class RegPool(enum.IntEnum):
    """Architectural register pools.

    The modeled machine renames four independent pools (Section 3.2): the
    integer and FP pools of the base Alpha ISA, the media pool (MMX/MDMX
    64-bit registers or MOM 16x64-bit matrix registers) and the accumulator
    pool (MDMX/MOM packed accumulators).  The MOM vector-length register is
    renamed through the *integer* pool, exactly as the paper specifies.
    """

    INT = 0
    FP = 1
    MED = 2
    ACC = 3


class ElemType(enum.Enum):
    """Packed sub-word element type of a media instruction."""

    B = "b"     #: 8 x 8-bit bytes per 64-bit word
    H = "h"     #: 4 x 16-bit halfwords per 64-bit word
    W = "w"     #: 2 x 32-bit words per 64-bit word
    Q = "q"     #: 1 x 64-bit quadword
    NONE = "-"  #: not a packed operation

    def __init__(self, value: str) -> None:
        #: Number of sub-word lanes in a 64-bit word.
        self.lanes: int = {"b": 8, "h": 4, "w": 2, "q": 1, "-": 1}[value]
        #: Width of one sub-word element in bits.
        self.bits: int = 64 // self.lanes


@dataclass(frozen=True)
class Opcode:
    """Static description of one opcode of one ISA.

    Attributes:
        name: assembler mnemonic, unique within its ISA.
        isa: owning ISA name (``alpha``, ``mmx``, ``mdmx`` or ``mom``).
        iclass: functional-unit class used by the timing model.
        latency: execution latency in cycles (memory classes use the cache
            model instead; the value here is the address-generation cost).
        elem: packed element type for media opcodes.
        category: coarse grouping used for documentation and ISA statistics
            (e.g. ``"arith"``, ``"memory"``, ``"reduction"``).
        description: one-line human-readable semantics.
        writes_acc: ``True`` when the destination is an accumulator.
        reads_acc: ``True`` when an accumulator is a source operand.
    """

    name: str
    isa: str
    iclass: InstrClass
    latency: int = 1
    elem: ElemType = ElemType.NONE
    category: str = "arith"
    description: str = ""
    writes_acc: bool = False
    reads_acc: bool = False

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError(f"negative latency for opcode {self.name!r}")
        if not self.name:
            raise ValueError("opcode name must be non-empty")


@dataclass
class IsaTable:
    """A named collection of opcodes forming one ISA (or ISA extension).

    Provides dictionary-style lookup by mnemonic and enforces mnemonic
    uniqueness.  The three media extensions of the paper have a fixed,
    documented opcode count (67 / 88 / 121) which the test suite pins down.
    """

    name: str
    opcodes: dict[str, Opcode] = field(default_factory=dict)

    def add(self, opcode: Opcode) -> Opcode:
        if opcode.name in self.opcodes:
            raise ValueError(f"duplicate opcode {opcode.name!r} in ISA {self.name!r}")
        if opcode.isa != self.name:
            raise ValueError(
                f"opcode {opcode.name!r} declares ISA {opcode.isa!r}, "
                f"table is {self.name!r}"
            )
        self.opcodes[opcode.name] = opcode
        return opcode

    def __getitem__(self, name: str) -> Opcode:
        return self.opcodes[name]

    def __contains__(self, name: str) -> bool:
        return name in self.opcodes

    def __len__(self) -> int:
        return len(self.opcodes)

    def __iter__(self):
        return iter(self.opcodes.values())

    def categories(self) -> dict[str, int]:
        """Histogram of opcode counts per category."""
        hist: dict[str, int] = {}
        for op in self.opcodes.values():
            hist[op.category] = hist.get(op.category, 0) + 1
        return hist


@dataclass(frozen=True)
class RegisterFileSpec:
    """Physical organization of one register file (Table 2 of the paper).

    Attributes:
        pool: which architectural pool this file backs.
        logical: number of logical (architectural) registers.
        physical: number of physical registers after renaming.
        width_bits: width of one physical register in bits.  A MOM matrix
            register is 16 x 64 = 1024 bits; an accumulator is 192 bits
            (three 64-bit words, giving e.g. 4 x 48-bit guarded lanes).
        read_ports: number of read ports (per bank when ``banks > 1``).
        write_ports: number of write ports (per bank when ``banks > 1``).
        banks: interleaved banks (MOM exploits per-row interleaving, which
            is why a 5x larger file costs *less* area than MMX's).
    """

    pool: RegPool
    logical: int
    physical: int
    width_bits: int
    read_ports: int
    write_ports: int
    banks: int = 1

    def __post_init__(self) -> None:
        if self.physical < self.logical:
            raise ValueError(
                f"physical registers ({self.physical}) fewer than logical "
                f"({self.logical}) for pool {self.pool.name}"
            )
        if min(self.logical, self.width_bits, self.read_ports) <= 0:
            raise ValueError("register file dimensions must be positive")

    @property
    def size_bits(self) -> int:
        """Total storage of the physical file in bits."""
        return self.physical * self.width_bits

    @property
    def size_kbytes(self) -> float:
        """Total storage in kilobytes (the 'Register File Size' row)."""
        return self.size_bits / 8 / 1024


# Widely used element-type iteration orders.
BYTE_HALF = (ElemType.B, ElemType.H)
BYTE_HALF_WORD = (ElemType.B, ElemType.H, ElemType.W)
HALF_WORD = (ElemType.H, ElemType.W)
