"""``repro.analysis`` -- the static verification layer.

Zero-dependency passes proving the stack's correctness-critical
properties *before* anything executes:

* :mod:`~repro.analysis.ircheck` -- IR type/width verification plus an
  interval abstract interpreter proving every u8/i16 intermediate is
  in range or explicitly saturated, per kernel per ISA;
* :mod:`~repro.analysis.streamcheck` -- dataflow verification of the
  lowered instruction streams (def-before-use over all four register
  pools, dead writes, MOM VL/tile bounds, buffer bounds, accumulator
  chains, saturation discipline);
* :mod:`~repro.analysis.pressure` -- register-pressure reports feeding
  the register-file area model;
* :mod:`~repro.analysis.runner` -- the ``repro lint`` / CI driver over
  the whole kernel x ISA grid.

The package imports :mod:`repro.vc` and :mod:`repro.emulib` but nothing
imports it back; lowering hooks are plain attribute assignments, so
verified streams stay digest-identical to unverified ones.
"""

from __future__ import annotations

from .findings import (ALL_PASSES, Finding, PASS_DATAFLOW, PASS_IR,
                       PASS_RANGE, Report, Severity)
from .interval import Interval
from .ircheck import check_ir, check_ranges
from .pressure import pressure_report
from .runner import lint_grid, lint_kernel, verified_status
from .streamcheck import (check_acc_chains, check_bounds, check_dataflow,
                          check_saturation_discipline, check_stream,
                          check_vl)

__all__ = [
    "ALL_PASSES", "Finding", "Interval", "PASS_DATAFLOW", "PASS_IR",
    "PASS_RANGE", "Report", "Severity", "check_acc_chains",
    "check_bounds", "check_dataflow", "check_ir", "check_ranges",
    "check_saturation_discipline", "check_stream", "check_vl",
    "lint_grid", "lint_kernel", "pressure_report", "verified_status",
]
