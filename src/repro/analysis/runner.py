"""Lint driver: runs every analysis pass over the kernel x ISA grid.

For each registered kernel and ISA the stream is built exactly as the
experiment engine builds it, then verified:

* all kernels get the stream dataflow passes and a pressure report;
* compiler-lowered kernels additionally get the IR verifier and the
  saturation-range proof (the lowering hook carries the IR and binding
  into the built stream);
* hand-written kernels with a digest-pinned compiler mirror (addblock,
  motion1, motion2) get the mirror lowered and verified too -- the
  mirror is what new-ISA work will regenerate, so it must stay provable
  on its own.

Results are :class:`~repro.analysis.findings.Report` objects plus
machine-readable artifacts (range-proof checkpoints and pressure
reports) suitable for ``repro lint --json`` and the CI findings
artifact.
"""

from __future__ import annotations

from typing import Any

from .findings import Report
from .ircheck import check_ir, check_ranges
from .pressure import pressure_report
from .streamcheck import check_stream


def _registry() -> tuple[Any, Any]:
    # Importing the package populates the registry (side-effect imports).
    from .. import kernels  # noqa: F401
    from ..kernels.common import ISAS, KERNELS
    return KERNELS, ISAS


def kernel_names() -> list[str]:
    """Registered kernels in display order (hand order, then vc extras)."""
    KERNELS, _ = _registry()
    from ..kernels import KERNEL_ORDER
    order = [name for name in KERNEL_ORDER if name in KERNELS]
    order += sorted(set(KERNELS) - set(order))
    return order


def lint_kernel(name: str, isa: str,
                scale: int = 1) -> tuple[Report, dict[str, Any]]:
    """Run every applicable pass for one kernel on one ISA.

    Returns ``(report, artifacts)`` where artifacts carry the pressure
    report and, for compiler-lowered streams, the range-proof
    checkpoints (``checkpoints`` for the registered stream, plus
    ``mirror_checkpoints`` when a digest-pinned mirror was verified).
    """
    KERNELS, ISAS = _registry()
    if name not in KERNELS:
        raise KeyError(f"unknown kernel {name!r}; have {sorted(KERNELS)}")
    if isa not in ISAS:
        raise KeyError(f"unknown ISA {isa!r}; have {list(ISAS)}")
    spec = KERNELS[name]
    report = Report()
    artifacts: dict[str, Any] = {"kernel": name, "isa": isa}

    built = spec.builders[isa](spec.make_workload(scale))
    builder = built.builder
    report.extend(check_stream(builder, name, isa))
    artifacts["pressure"] = pressure_report(builder, name, isa)

    lowering = getattr(builder, "vc_lowering", None)
    if lowering is not None:
        report.extend(check_ir(lowering["ir"], name))
        range_findings, checkpoints = check_ranges(
            lowering["ir"], lowering["binding"], isa, name)
        report.extend(range_findings)
        artifacts["checkpoints"] = checkpoints
    else:
        from ..vc import COMPILED, compile_kernel
        record = COMPILED.get(name)
        if record is not None:
            mirror = compile_kernel(record.ir, isa,
                                    record.bind(spec.make_workload(scale)),
                                    record.output_key)
            report.extend(check_stream(mirror.builder, name, isa))
            report.extend(check_ir(record.ir, name))
            range_findings, checkpoints = check_ranges(
                record.ir, mirror.builder.vc_lowering["binding"], isa, name)
            report.extend(range_findings)
            artifacts["mirror_checkpoints"] = checkpoints
    return report, artifacts


def lint_grid(kernels: list[str] | None = None,
              isas: list[str] | None = None,
              scale: int = 1) -> tuple[Report, list[dict[str, Any]]]:
    """Lint a kernel x ISA sub-grid; returns merged report + artifacts."""
    _, all_isas = _registry()
    names = kernels if kernels is not None else kernel_names()
    targets = isas if isas is not None else list(all_isas)
    report = Report()
    artifacts: list[dict[str, Any]] = []
    for name in names:
        for isa in targets:
            sub_report, sub_artifacts = lint_kernel(name, isa, scale)
            report.extend(sub_report.findings)
            artifacts.append(sub_artifacts)
    return report, artifacts


#: One-shot verified-status cache for the ``repro kernels`` column
#: (kernel, isa) -> True when every pass is clean.
_VERIFIED_CACHE: dict[tuple[str, str], bool] = {}


def verified_status(name: str, isa: str) -> bool:
    """Cheap cached yes/no used by the ``repro kernels`` listing."""
    key = (name, isa)
    if key not in _VERIFIED_CACHE:
        try:
            report, _ = lint_kernel(name, isa)
            _VERIFIED_CACHE[key] = report.ok
        except Exception:
            _VERIFIED_CACHE[key] = False
    return _VERIFIED_CACHE[key]
