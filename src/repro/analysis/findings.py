"""Machine-readable findings shared by every analysis pass.

A finding is one violation: which pass saw it, on which kernel/ISA, at
which static location (instruction index into the lowered stream or IR
node path), and what rule was broken.
The CLI and CI serialise findings as JSON, so everything here is plain
data -- no behaviour beyond formatting.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """How bad a finding is.

    ERROR findings fail ``repro lint``; WARNING findings are reported but
    do not flip the verified bit (none of the shipped passes emit
    warnings yet -- the tier exists so later heuristics can).
    """

    ERROR = "error"
    WARNING = "warning"


#: Pass identifiers, used in findings and in the mutation harness to
#: assert a defect was caught by the *intended* pass.
PASS_IR = "ir"
PASS_DATAFLOW = "dataflow"
PASS_RANGE = "range"

ALL_PASSES = (PASS_IR, PASS_DATAFLOW, PASS_RANGE)


@dataclass(frozen=True)
class Finding:
    """One rule violation surfaced by a pass."""

    pass_name: str
    rule: str
    message: str
    kernel: str = ""
    isa: str = ""
    location: str = ""
    severity: Severity = Severity.ERROR

    def to_dict(self) -> dict[str, str]:
        return {
            "pass": self.pass_name,
            "rule": self.rule,
            "severity": self.severity.value,
            "kernel": self.kernel,
            "isa": self.isa,
            "location": self.location,
            "message": self.message,
        }

    def __str__(self) -> str:
        where = ":".join(p for p in (self.kernel, self.isa) if p)
        loc = f" @{self.location}" if self.location else ""
        head = f"[{self.pass_name}/{self.rule}]"
        if where:
            head = f"{head} {where}"
        return f"{head}{loc}: {self.message}"


@dataclass
class Report:
    """Accumulates findings across passes for one lint invocation."""

    findings: list[Finding] = field(default_factory=list)

    def add(self, finding: Finding) -> None:
        self.findings.append(finding)

    def extend(self, findings: list[Finding]) -> None:
        self.findings.extend(findings)

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def ok(self) -> bool:
        return not self.errors

    def to_dict(self) -> dict[str, object]:
        return {
            "ok": self.ok,
            "findings": [f.to_dict() for f in self.findings],
        }
