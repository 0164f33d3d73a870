"""Independent plan certification: the ``repro.verify`` audit layer.

Everything the planner claims — retiming legality, register counts,
clock-period feasibility, per-tile LAC area, repeater reservations,
routing congestion — is re-derived here from first principles, by code
that shares no caches or incremental state with the solvers that
produced the claims (translation validation, applied to a CAD flow).
Each re-derivation yields a :class:`Certificate`; an outcome's
certificates aggregate into a :class:`VerificationReport`:

* :mod:`repro.verify.timing` — independent arrival-time computation
  (``Δ(v) <= T_clk``) over the register-free subgraph;
* :mod:`repro.verify.retiming` — ``w_r(e) = w(e) + r(v) - r(u)``
  re-derivation, host-label pinning;
* :mod:`repro.verify.checkers` — the per-iteration certificate
  checkers and their exclusive-ownership contract;
* :mod:`repro.verify.sim` — bounded random-simulation equivalence
  (the behavioural belt to the structural braces);
* :mod:`repro.verify.plan` — outcome-level aggregation with trace
  spans (``plan --verify``);
* :mod:`repro.verify.audit` — offline audits of checkpoint
  directories and JSON snapshots (``python -m repro verify <target>``);
* :mod:`repro.verify.outcome_io` — the portable
  ``repro-verify-outcome/1`` JSON snapshot format;
* :mod:`repro.verify.fuzz` — differential fuzzing of the verifier
  itself against injected
  :class:`~repro.resilience.faults.ResultFault` corruptions.

The audit/fuzz entry points are imported lazily (via module
``__getattr__``) so that importing :mod:`repro.verify` from inside the
core planner never drags in the planner again.
"""

from repro.verify.certificate import (
    CHECKERS,
    Certificate,
    VerificationReport,
    failed_certificate,
    passed_certificate,
    skipped_certificate,
)
from repro.verify.checkers import iteration_certificates
from repro.verify.plan import verify_iteration, verify_outcome
from repro.verify.retiming import (
    check_retiming_labels,
    derived_total_flip_flops,
)
from repro.verify.sim import equivalence_certificate
from repro.verify.timing import combinational_arrivals, critical_period

_LAZY = {
    "audit_target": "repro.verify.audit",
    "discover_outcomes": "repro.verify.audit",
    "load_outcome": "repro.verify.audit",
    "load_outcome_checkpoint": "repro.verify.audit",
    "differential_fuzz": "repro.verify.fuzz",
    "FuzzCase": "repro.verify.fuzz",
    "fuzz_summary": "repro.verify.fuzz",
    "OUTCOME_SCHEMA": "repro.verify.outcome_io",
    "load_outcome_json": "repro.verify.outcome_io",
    "outcome_to_dict": "repro.verify.outcome_io",
    "save_outcome_json": "repro.verify.outcome_io",
}

__all__ = [
    "CHECKERS",
    "Certificate",
    "VerificationReport",
    "failed_certificate",
    "passed_certificate",
    "skipped_certificate",
    "iteration_certificates",
    "verify_iteration",
    "verify_outcome",
    "check_retiming_labels",
    "derived_total_flip_flops",
    "equivalence_certificate",
    "combinational_arrivals",
    "critical_period",
    *sorted(_LAZY),
]


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)
