"""Functional units: scalar pipes and multi-lane media units.

Each family (INT, FP, MED) is a pool of units.  *Simple* units execute only
the simple instruction class of their family; *complex* units execute both
(a complex unit contains the simple datapath).  Units are fully pipelined
except integer/FP divide, which occupies its unit for the full latency.

A media unit has ``lanes`` parallel vector lanes: a MOM computation of
vector length VL occupies the unit for ``ceil(VL / lanes)`` cycles while one
packed element operation per lane retires per cycle -- "a MOM implementation
executes as many SIMD MMX-like computation operations per cycle as the
number of vector pipes of the MOM functional unit" (Section 2.1).
"""

from __future__ import annotations

from ..isa.model import InstrClass
from .config import FuConfig

#: Opcodes that occupy their unit for the full latency (not pipelined).
_NON_PIPELINED = {"divq", "divt"}


class FunctionalUnit:
    """One execution pipe with an occupancy horizon."""

    __slots__ = ("complex_capable", "lanes", "busy_until", "ops_executed")

    def __init__(self, complex_capable: bool, lanes: int = 1) -> None:
        self.complex_capable = complex_capable
        self.lanes = lanes
        self.busy_until = 0
        self.ops_executed = 0


class FuPool:
    """All functional units of one family (e.g. the media units)."""

    def __init__(self, config: FuConfig, lanes: int = 1) -> None:
        self.units = [FunctionalUnit(False, lanes) for _ in range(config.simple)]
        self.units += [FunctionalUnit(True, lanes) for _ in range(config.complex_)]

    def try_issue(self, needs_complex: bool, cycle: int, occupancy_rows: int,
                  op_name: str, latency: int) -> int | None:
        """Issue an operation if a capable unit is free.

        Args:
            needs_complex: instruction is of the complex class.
            cycle: current cycle.
            occupancy_rows: vector elements to stream (1 for scalar/MMX).
            op_name: opcode mnemonic (to detect non-pipelined divides).
            latency: execution latency of one element operation.

        Returns:
            The cycle at which the *result* is available, or ``None`` when
            every capable unit is busy this cycle.
        """
        for unit in self.units:
            if needs_complex and not unit.complex_capable:
                continue
            if unit.busy_until > cycle:
                continue
            if occupancy_rows == 1 and op_name not in _NON_PIPELINED:
                # Scalar pipelined op: occupies the unit for one cycle.
                unit.busy_until = cycle + 1
                unit.ops_executed += 1
                return cycle + latency
            occupancy = -(-occupancy_rows // unit.lanes)  # ceil division
            if op_name in _NON_PIPELINED:
                occupancy = max(occupancy, latency)
            occupancy = max(1, occupancy)
            unit.busy_until = cycle + occupancy
            unit.ops_executed += occupancy_rows
            return cycle + occupancy - 1 + latency
        return None

    @property
    def size(self) -> int:
        return len(self.units)


def fu_family(iclass: InstrClass) -> str | None:
    """Which FU family executes an instruction class (None for memory/ctrl)."""
    if iclass in (InstrClass.INT_SIMPLE, InstrClass.INT_COMPLEX):
        return "int"
    if iclass in (InstrClass.FP_SIMPLE, InstrClass.FP_COMPLEX):
        return "fp"
    if iclass in (InstrClass.MED_SIMPLE, InstrClass.MED_COMPLEX):
        return "med"
    return None


def needs_complex_unit(iclass: InstrClass) -> bool:
    return iclass in (
        InstrClass.INT_COMPLEX, InstrClass.FP_COMPLEX, InstrClass.MED_COMPLEX
    )
