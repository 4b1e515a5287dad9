"""MOM: the Matrix Oriented Multimedia instruction set (121 opcodes).

This is the paper's central contribution (Section 2.2).  MOM is a load/store
matrix ISA whose register file holds **16 logical matrix registers**, each a
16-row matrix of 64-bit packed words, plus **2 logical 192-bit packed
accumulators** and a **vector length (VL) register** (renamed through the
integer pool).  Every MOM computation instruction is "a vector version of an
MDMX instruction": it applies the packed MDMX operation to the first VL rows
of its matrix operands.  Memory instructions walk memory with an arbitrary
byte stride between consecutive rows -- the key difference from simply
enlarging an MMX register, since matrix rows are not adjacent in memory.

The four paper categories map to the table below:

* *packed arithmetic and logical operations* -- matrix translations of the
  MDMX packed-arithmetic subset (54 opcodes, same mnemonics);
* *memory instructions* -- strided loads/stores plus row-granularity and
  broadcast variants (8);
* *matrix operations* -- accumulator forms (25, as MDMX) plus the "very
  powerful" matrix instructions: matrix-per-vector products, the MPEG-2
  matrix sum of quadratic differences, matrix SAD and register transpose
  (11);
* *auxiliary operations* -- VL management, row reductions and shifts,
  vector-scalar broadcast forms, and register clears (23).

Total: exactly 121 opcodes, the count the paper reports for its MOM
emulation library.
"""

from __future__ import annotations

import dataclasses

from ..isa.mdmx import MDMX
from ..isa.mmx import MED_MUL_LATENCY
from ..isa.model import ElemType, InstrClass, IsaTable, Opcode

#: Rows in a MOM matrix register; also the maximum vector length.
MATRIX_ROWS = 16

#: Width of one matrix row in bits (one MMX-style packed word).
ROW_BITS = 64

#: Width of a MOM/MDMX packed accumulator in bits (three 64-bit words,
#: giving 8 x 24-bit lanes for byte operations or 4 x 48-bit lanes for
#: halfword operations -- see Figure 4 of the paper).
ACC_BITS = 192

MOM = IsaTable("mom")

#: MDMX opcodes *not* vectorized into MOM: the scalar memory and data
#: movement group is replaced by matrix-specific equivalents below.
_NOT_VECTORIZED = {
    "mdmx_ldq", "mdmx_stq", "mdmx_ldq_u",
    "movq", "movd_to", "movd_from", "pshufh",
    "pextrh", "pinsrh",
}

#: MDMX restores an accumulator from media registers; MOM's copies of
#: those opcodes restore it from integer registers.
_RESTORED_FROM_INT = {
    "wacl": "write accumulator low+middle thirds from two integer registers",
    "wach": "write accumulator high third from an integer register",
}

for _shared in MDMX:
    if _shared.name in _NOT_VECTORIZED:
        continue
    MOM.add(dataclasses.replace(
        _shared, isa="mom",
        description=_RESTORED_FROM_INT.get(_shared.name,
                                           _shared.description)))


def _op(
    name: str,
    iclass: InstrClass,
    elem: ElemType,
    latency: int = 1,
    category: str = "arith",
    description: str = "",
    reads_acc: bool = False,
    writes_acc: bool = False,
) -> Opcode:
    return MOM.add(
        Opcode(
            name=name,
            isa="mom",
            iclass=iclass,
            latency=latency,
            elem=elem,
            category=category,
            description=description,
            reads_acc=reads_acc,
            writes_acc=writes_acc,
        )
    )


_E = ElemType
_MUL = MED_MUL_LATENCY

# --- memory (8): strided matrix loads/stores ---------------------------------
_op("momldq", InstrClass.MED_LOAD, _E.Q, 1, "memory",
    "load VL 64-bit rows; row i from base + i*stride")
_op("momstq", InstrClass.MED_STORE, _E.Q, 1, "memory",
    "store VL 64-bit rows; row i to base + i*stride")
_op("momldq_u", InstrClass.MED_LOAD, _E.Q, 1, "memory",
    "strided matrix load tolerating unaligned row addresses")
_op("momstq_u", InstrClass.MED_STORE, _E.Q, 1, "memory",
    "strided matrix store tolerating unaligned row addresses")
_op("momldrow", InstrClass.MED_LOAD, _E.Q, 1, "memory",
    "load one 64-bit word into a selected matrix row")
_op("momstrow", InstrClass.MED_STORE, _E.Q, 1, "memory",
    "store one selected matrix row to memory")
_op("momldbcast", InstrClass.MED_LOAD, _E.Q, 1, "memory",
    "load one 64-bit word, broadcast into all VL rows")
_op("momprefetch", InstrClass.MED_LOAD, _E.Q, 1, "memory",
    "software prefetch of a strided row sequence (no register write)")

# --- data movement (4) ---------------------------------------------------------
_op("mommov", InstrClass.MED_SIMPLE, _E.Q, 1, "move", "matrix register copy")
_op("momextrow", InstrClass.MED_SIMPLE, _E.Q, 1, "move",
    "extract one matrix row into an integer register")
_op("mominsrow", InstrClass.MED_SIMPLE, _E.Q, 1, "move",
    "insert an integer register into one matrix row")
_op("mombcastrow", InstrClass.MED_SIMPLE, _E.Q, 1, "move",
    "broadcast row 0 into all VL rows")

# --- matrix operations (11): the heavy lifters of Section 2.2 ------------------
_op("mommpvb", InstrClass.MED_COMPLEX, _E.B, _MUL, "matrix",
    "matrix-per-vector: acc_lane += sum_rows(M[r] * v) per byte lane",
    reads_acc=True, writes_acc=True)
_op("mommpvh", InstrClass.MED_COMPLEX, _E.H, _MUL, "matrix",
    "matrix-per-vector: acc_lane += sum_rows(M[r] * v) per halfword lane",
    reads_acc=True, writes_acc=True)
_op("mommvmb", InstrClass.MED_COMPLEX, _E.B, _MUL, "matrix",
    "vector-per-matrix product, byte lanes", reads_acc=True, writes_acc=True)
_op("mommvmh", InstrClass.MED_COMPLEX, _E.H, _MUL, "matrix",
    "vector-per-matrix product, halfword lanes", reads_acc=True, writes_acc=True)
_op("mommsadb", InstrClass.MED_COMPLEX, _E.B, _MUL, "matrix",
    "matrix sum of absolute differences into accumulator, byte lanes",
    reads_acc=True, writes_acc=True)
_op("mommsadh", InstrClass.MED_COMPLEX, _E.H, _MUL, "matrix",
    "matrix sum of absolute differences into accumulator, halfword lanes",
    reads_acc=True, writes_acc=True)
_op("mommsqdb", InstrClass.MED_COMPLEX, _E.B, _MUL, "matrix",
    "MPEG-2 matrix sum of quadratic differences, byte lanes",
    reads_acc=True, writes_acc=True)
_op("mommsqdh", InstrClass.MED_COMPLEX, _E.H, _MUL, "matrix",
    "MPEG-2 matrix sum of quadratic differences, halfword lanes",
    reads_acc=True, writes_acc=True)
_op("momtransb", InstrClass.MED_SIMPLE, _E.B, 2, "matrix",
    "transpose the 8x8 byte blocks of a matrix register")
_op("momtransh", InstrClass.MED_SIMPLE, _E.H, 2, "matrix",
    "transpose the 4x4 halfword blocks of a matrix register")
_op("momtransw", InstrClass.MED_SIMPLE, _E.W, 2, "matrix",
    "transpose the 2x2 word blocks of a matrix register")

# --- vector length management (3) ------------------------------------------------
_op("setvl", InstrClass.INT_SIMPLE, _E.NONE, 1, "aux",
    "VL <- min(rs, 16); renamed through the integer pool")
_op("setvli", InstrClass.INT_SIMPLE, _E.NONE, 1, "aux",
    "VL <- immediate")
_op("readvl", InstrClass.INT_SIMPLE, _E.NONE, 1, "aux",
    "rd <- VL")

# --- row reductions (3) -------------------------------------------------------------
_op("momvsumb", InstrClass.MED_COMPLEX, _E.B, _MUL, "reduction",
    "sum the VL rows lane-wise into row 0, saturating bytes")
_op("momvsumh", InstrClass.MED_COMPLEX, _E.H, _MUL, "reduction",
    "sum the VL rows lane-wise into row 0, saturating halves")
_op("momvsumw", InstrClass.MED_COMPLEX, _E.W, _MUL, "reduction",
    "sum the VL rows lane-wise into row 0, wraparound words")

# --- row shifts (2) ------------------------------------------------------------------
_op("momrowshl", InstrClass.MED_SIMPLE, _E.Q, 1, "aux",
    "shift matrix rows towards row 0 (row i <- row i+1)")
_op("momrowshr", InstrClass.MED_SIMPLE, _E.Q, 1, "aux",
    "shift matrix rows away from row 0 (row i+1 <- row i)")

# --- vector-scalar broadcast forms (8): matrix OP row0-of-second-operand -------------
_op("vsaddb", InstrClass.MED_SIMPLE, _E.B, 1, "vector_scalar",
    "add row 0 of rb to every row of ra, unsigned-saturating bytes")
_op("vsaddh", InstrClass.MED_SIMPLE, _E.H, 1, "vector_scalar",
    "add row 0 of rb to every row of ra, signed-saturating halves")
_op("vssubb", InstrClass.MED_SIMPLE, _E.B, 1, "vector_scalar",
    "subtract row 0 of rb from every row of ra, unsigned-saturating bytes")
_op("vssubh", InstrClass.MED_SIMPLE, _E.H, 1, "vector_scalar",
    "subtract row 0 of rb from every row of ra, signed-saturating halves")
_op("vsmullh", InstrClass.MED_COMPLEX, _E.H, _MUL, "vector_scalar",
    "multiply every row of ra by row 0 of rb, low halves")
_op("vsmulhh", InstrClass.MED_COMPLEX, _E.H, _MUL, "vector_scalar",
    "multiply every row of ra by row 0 of rb, high halves")
_op("vsandq", InstrClass.MED_SIMPLE, _E.Q, 1, "vector_scalar",
    "and row 0 of rb into every row of ra")
_op("vsorq", InstrClass.MED_SIMPLE, _E.Q, 1, "vector_scalar",
    "or row 0 of rb into every row of ra")

# --- misc (3) ---------------------------------------------------------------------------
_op("momzero", InstrClass.MED_SIMPLE, _E.Q, 1, "aux", "zero all rows of rd")
_op("momabsb", InstrClass.MED_SIMPLE, _E.B, 1, "arith",
    "packed absolute value of signed bytes, all VL rows")
_op("momabsh", InstrClass.MED_SIMPLE, _E.H, 1, "arith",
    "packed absolute value of signed halves, all VL rows")

#: The paper reports exactly 121 instructions in its MOM emulation library.
EXPECTED_OPCODE_COUNT = 121

assert len(MOM) == EXPECTED_OPCODE_COUNT, f"MOM table has {len(MOM)} opcodes"
