"""Trace disassembler: render dynamic instruction streams for humans.

The emulation libraries record traces whose rows read back as
:class:`~repro.emulib.trace.DynInstr` records; this module renders them in
an assembly-like listing (one line per dynamic instruction, with operands,
effective addresses, vector lengths and branch outcomes), parses such
lines back, and renders an instruction-class mix report.  Used for
debugging kernels and for documentation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..isa.model import RegPool
from .trace import DynInstr, Trace, reg_index, reg_pool

_POOL_PREFIX = {
    RegPool.INT: "r",
    RegPool.FP: "f",
    RegPool.MED: "m",
    RegPool.ACC: "acc",
}


def format_operand(encoded: int) -> str:
    """Render one encoded register operand (``r5``, ``m3``, ``acc0``)."""
    return f"{_POOL_PREFIX[reg_pool(encoded)]}{reg_index(encoded)}"


def format_instr(instr: DynInstr) -> str:
    """One assembly-like line for a dynamic instruction."""
    parts = [instr.op.name]
    operands = [format_operand(d) for d in instr.dsts]
    operands += [format_operand(s) for s in instr.srcs]
    if operands:
        parts.append(", ".join(operands))
    notes = []
    if instr.addr is not None:
        if instr.vl > 1:
            notes.append(f"@{instr.addr:#x}+{instr.stride}*{instr.vl}")
        else:
            notes.append(f"@{instr.addr:#x}/{instr.nbytes}")
    elif instr.vl > 1:
        notes.append(f"vl={instr.vl}")
    if instr.taken is not None:
        notes.append("taken" if instr.taken else "not-taken")
        notes.append(f"site={instr.site}")
    if notes:
        parts.append("; " + " ".join(notes))
    return "  ".join(parts)


@dataclass
class ParsedInstr:
    """The information one :func:`format_instr` line carries.

    Only what the listing renders round-trips: a strided access prints
    ``@addr+stride*vl`` (so ``nbytes`` is not recoverable), a unit access
    prints ``@addr/nbytes`` (so a dormant stride is not), and register
    operands print as one destination-then-source list.
    """

    name: str
    operands: tuple[str, ...] = ()
    addr: int | None = None
    nbytes: int | None = None
    stride: int | None = None
    vl: int = 1
    taken: bool | None = None
    site: int | None = None
    notes: tuple[str, ...] = field(default_factory=tuple)


_OPERAND_RE = re.compile(r"^(?:r|f|m|acc)\d+$")
_ADDR_UNIT_RE = re.compile(r"^@(0x[0-9a-f]+)/(\d+)$")
_ADDR_STRIDE_RE = re.compile(r"^@(0x[0-9a-f]+)\+(-?\d+)\*(\d+)$")


def parse_instr(line: str) -> ParsedInstr:
    """Parse one :func:`format_instr` line back into its fields.

    Inverse of the renderer up to the information it prints (see
    :class:`ParsedInstr`); raises ``ValueError`` on lines it cannot
    account for, so tests catch format drift in either direction.
    """
    line = line.strip()
    if not line:
        raise ValueError("empty disassembly line")
    body, _, notes_text = line.partition(";")
    fields = body.split()
    if not fields:
        raise ValueError(f"no mnemonic in disassembly line {line!r}")
    name = fields[0]
    operands = tuple(tok.rstrip(",") for tok in fields[1:])
    for tok in operands:
        if not _OPERAND_RE.match(tok):
            raise ValueError(f"bad operand {tok!r} in {line!r}")
    parsed = ParsedInstr(name=name, operands=operands,
                         notes=tuple(notes_text.split()))
    for note in parsed.notes:
        unit = _ADDR_UNIT_RE.match(note)
        strided = _ADDR_STRIDE_RE.match(note)
        if unit:
            parsed.addr = int(unit.group(1), 16)
            parsed.nbytes = int(unit.group(2))
        elif strided:
            parsed.addr = int(strided.group(1), 16)
            parsed.stride = int(strided.group(2))
            parsed.vl = int(strided.group(3))
        elif note.startswith("vl="):
            parsed.vl = int(note[3:])
        elif note == "taken":
            parsed.taken = True
        elif note == "not-taken":
            parsed.taken = False
        elif note.startswith("site="):
            parsed.site = int(note[5:])
        else:
            raise ValueError(f"unrecognized note {note!r} in {line!r}")
    return parsed


def disassemble(trace: Trace, start: int = 0, count: int | None = None) -> str:
    """Render a slice of a trace as a numbered listing."""
    end = len(trace) if count is None else min(len(trace), start + count)
    lines = [f"; trace: isa={trace.isa}, {len(trace)} instructions"]
    for i in range(start, end):
        lines.append(f"{i:6d}: {format_instr(trace[i])}")
    return "\n".join(lines)
