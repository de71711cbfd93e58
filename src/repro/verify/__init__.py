"""Static verification of the mechanism — checked, not just tested.

The paper's correctness argument rests on the 5-place / 8-transition PrT
net behaving well: the ``Checks`` token must always return, core tokens
must be conserved (``allocated + free == n_total``), and the guards on
``t0..t7`` must partition the metric range so no sample strands the
model.  Everything in this package proves those properties *offline*,
before a simulation runs:

* :mod:`repro.verify.structure` — numeric Pre/Post matrices, dead
  transitions, source/sink anomalies;
* :mod:`repro.verify.invariants` — exact P-/T-invariants (nullspace +
  Farkas) and the conservation/coverage checks built on them;
* :mod:`repro.verify.guards` — guard coverage over the metric domain and
  bounded reachability over the (metric x core count) state space.

Entry points: :func:`verify_performance_model` for one model (used by
``ElasticController(..., verify_model=True)``) and the ``repro verify``
CLI subcommand, which runs it over the shipped strategies' thresholds
(or a fixture model) and prints or serialises the reports.
"""

from __future__ import annotations

from ..errors import (GuardCoverageError, InvariantViolationError,
                      ReachabilityError, VerificationError)
from .guards import check_guard_coverage, check_reachability, metric_samples
from .invariants import (check_invariants, invariant_supports, is_invariant,
                         nullspace, p_invariants, t_invariants)
from .report import Finding, VerificationReport
from .structure import NetStructure, check_structure

#: the conservation laws the paper's model is expected to satisfy, as
#: place weightings (checked when the net has the canonical five places)
EXPECTED_P_INVARIANTS = (
    ("monitoring-token conservation",
     {"Checks": 1, "Idle": 1, "Stable": 1, "Overload": 1}),
    ("core-token conservation",
     {"Idle": 1, "Overload": 1, "Provision": 1}),
)


def verify_performance_model(model, grid: int | None = None,
                             subject: str | None = None
                             ) -> VerificationReport:
    """Run every static model check against a performance model.

    ``model`` is any object with the surface described in
    :mod:`repro.verify.guards` — the shipped
    :class:`~repro.core.model.PerformanceModel` or a test fixture.
    """
    grid = grid if grid is not None else 101
    if subject is None:
        subject = (f"model(th_min={model.th_min}, th_max={model.th_max}, "
                   f"n_total={model.n_total}, n_min={model.n_min})")
    report = VerificationReport(subject=subject)
    structure = NetStructure.from_net(model.net)
    report.extend("structure",
                  check_structure(structure, {"Checks", "Provision"}))
    invariant_findings = check_invariants(structure)
    if set(("Checks", "Idle", "Stable", "Overload", "Provision")) \
            <= set(structure.places):
        for label, weights in EXPECTED_P_INVARIANTS:
            if not is_invariant(structure, weights):
                invariant_findings.append(Finding(
                    "p-invariant",
                    f"expected {label} invariant "
                    f"{'+'.join(sorted(weights))} = const does not "
                    f"hold: some firing changes the weighted token "
                    f"count"))
    report.extend("p-invariant",
                  [f for f in invariant_findings
                   if f.check == "p-invariant"])
    report.extend("t-invariant",
                  [f for f in invariant_findings
                   if f.check == "t-invariant"])
    report.extend("guard-coverage", check_guard_coverage(model, grid))
    report.extend("reachability", check_reachability(model, grid))
    return report


#: which VerificationError subclass a check's findings escalate to
_ERROR_OF_CHECK = {
    "structure": InvariantViolationError,
    "p-invariant": InvariantViolationError,
    "t-invariant": InvariantViolationError,
    "guard-coverage": GuardCoverageError,
    "reachability": ReachabilityError,
}


def raise_on_findings(report: VerificationReport) -> None:
    """Escalate a failed report to the matching VerificationError."""
    if report.ok:
        return
    findings = [f for f in report.sorted_findings()
                if f.severity == "error"]
    error_class = _ERROR_OF_CHECK.get(findings[0].check,
                                      VerificationError)
    raise error_class(
        f"{report.subject}: "
        + "; ".join(finding.render() for finding in findings))


__all__ = [
    "Finding", "VerificationReport", "NetStructure",
    "check_structure", "check_invariants", "check_guard_coverage",
    "check_reachability", "metric_samples",
    "nullspace", "p_invariants", "t_invariants", "invariant_supports",
    "is_invariant", "verify_performance_model", "raise_on_findings",
    "EXPECTED_P_INVARIANTS",
]
