"""Findings and reports produced by the static-verification layer.

Every analysis in :mod:`repro.verify` returns :class:`Finding` objects
tagged with the *check* that produced them (``"guard-coverage"``,
``"p-invariant"`` ...).  A :class:`VerificationReport` aggregates
findings across checks, renders them for humans and serialises them to
the machine-readable JSON the ``repro verify --json`` CLI and the CI job
consume.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

#: checks in the order the driver runs them (used to sort reports)
CHECK_ORDER = (
    "structure", "p-invariant", "t-invariant", "guard-coverage",
    "reachability",
)


@dataclass(frozen=True)
class Finding:
    """One violated property.

    Attributes
    ----------
    check:
        Which analysis produced the finding (see :data:`CHECK_ORDER`).
    message:
        Human-readable statement of the violated property.
    location:
        Where: a place/transition name or a marking description; empty
        when global.
    severity:
        ``"error"`` (fails verification) or ``"warning"`` (reported,
        does not fail).
    """

    check: str
    message: str
    location: str = ""
    severity: str = "error"

    def sort_key(self) -> tuple:
        """The stable order: errors before warnings, then the canonical
        :data:`CHECK_ORDER` rank, so ``--json`` output diffs cleanly."""
        try:
            rank = CHECK_ORDER.index(self.check)
        except ValueError:
            rank = len(CHECK_ORDER)
        return (0 if self.severity == "error" else 1, rank, self.check,
                self.message)

    def render(self) -> str:
        """One display line, e.g. ``guard-coverage: gap at u=15 (...)``."""
        where = f" [{self.location}]" if self.location else ""
        return f"{self.check}: {self.message}{where}"

    def as_dict(self) -> dict[str, object]:
        """JSON-ready mapping."""
        return {"check": self.check, "severity": self.severity,
                "message": self.message, "location": self.location}


@dataclass
class VerificationReport:
    """Aggregated outcome of one verification run."""

    subject: str
    checks_run: list[str] = field(default_factory=list)
    findings: list[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether no error-severity finding was produced."""
        return not any(f.severity == "error" for f in self.findings)

    def extend(self, check: str, findings: list[Finding]) -> None:
        """Record that ``check`` ran and absorb its findings."""
        if check not in self.checks_run:
            self.checks_run.append(check)
        self.findings.extend(findings)

    def sorted_findings(self) -> list[Finding]:
        """Findings in the stable order of :meth:`Finding.sort_key`."""
        return sorted(self.findings, key=Finding.sort_key)

    def render(self) -> str:
        """Multi-line human-readable summary."""
        lines = [f"verify {self.subject}: "
                 f"{'ok' if self.ok else 'FAILED'} "
                 f"({len(self.checks_run)} checks, "
                 f"{len(self.findings)} findings)"]
        for name in self.checks_run:
            n = sum(1 for f in self.findings if f.check == name)
            lines.append(f"  {name}: {'ok' if n == 0 else f'{n} findings'}")
        for finding in self.sorted_findings():
            lines.append(f"  !! {finding.render()}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """JSON-ready mapping (the ``--json`` schema)."""
        return {
            "subject": self.subject,
            "ok": self.ok,
            "checks": list(self.checks_run),
            "findings": [f.as_dict() for f in self.sorted_findings()],
        }

    def to_json(self) -> str:
        """Serialise for ``repro verify --json``."""
        return json.dumps(self.as_dict(), indent=2)
