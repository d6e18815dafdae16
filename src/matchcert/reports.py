"""Validation report structure shared by the batch and query certifiers."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Mapping

from .bounds import DeltaBudget, union_confidence

__all__ = [
    "ValidationReport",
    "SimultaneousReport",
    "build_report",
    "combine_reports",
    "digest_of",
]

VACUOUS_DENOMINATOR = "vacuous-denominator"


def digest_of(payload) -> str:
    """Short stable content hash of a JSON-serializable payload."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class ValidationReport:
    """One certified bound with its failure-probability budget.

    ``lower_bound`` is set for precision/recall certificates, and
    ``upper_bound`` for error-rate certificates. ``terms`` holds the named
    intermediate bounds the final value was assembled from, and
    ``term_methods`` the bound family actually used per term (a term may
    be downgraded, e.g. when the exact method is inapplicable to it).
    """

    bound_id: str
    quantity: str  # precision | recall | error-rate
    variant: str  # holdout | complete
    mode: str  # batch | query
    budget: DeltaBudget
    lower_bound: float | None = None
    upper_bound: float | None = None
    terms: Mapping[str, float] = field(default_factory=dict)
    term_methods: Mapping[str, str] = field(default_factory=dict)
    flags: tuple[str, ...] = ()
    inputs_digest: str = ""

    @property
    def delta_total(self) -> float:
        return self.budget.total

    @property
    def confidence(self) -> float:
        return 1.0 - self.budget.total

    @property
    def vacuous(self) -> bool:
        return any(f.startswith("vacuous") for f in self.flags)

    def to_json_dict(self) -> dict:
        return {
            "bound_id": self.bound_id,
            "quantity": self.quantity,
            "variant": self.variant,
            "mode": self.mode,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "delta_parts": [p.delta for p in self.budget.parts],
            "delta_total": self.delta_total,
            "confidence": self.confidence,
            "terms": dict(sorted(self.terms.items())),
            "term_methods": dict(sorted(self.term_methods.items())),
            "flags": list(self.flags),
            "inputs_digest": self.inputs_digest,
        }


def build_report(
    bound_id: str,
    budget: DeltaBudget,
    inputs: Mapping,
    terms: Mapping[str, float],
    term_methods: Mapping[str, str],
    value: float | Callable[[], float],
    flags: tuple[str, ...] = (),
    denominator: float | None = None,
    vacuous_eps: float = 0.0,
) -> ValidationReport:
    """The one place a certificate becomes a report.

    ``bound_id`` reads ``<variant>-<mode>-<quantity>``; error rates get an
    upper bound, precision and recall a lower one. ``value`` is clamped to
    [0, 1]. A ratio certificate passes its denominator's bound and ``value``
    as a function that divides by it: when the denominator is at most
    ``vacuous_eps`` the value is never computed, and the report carries 0
    and the vacuous-denominator flag instead. ``inputs`` is hashed, with
    the bound id, into ``inputs_digest``.
    """
    variant, mode, quantity = bound_id.split("-", 2)
    if denominator is not None:
        if denominator <= vacuous_eps:
            value = 0.0
            flags += (VACUOUS_DENOMINATOR,)
        else:
            value = value()
    value = min(1.0, max(0.0, value))
    upper = quantity == "error-rate"
    return ValidationReport(
        bound_id=bound_id,
        quantity=quantity,
        variant=variant,
        mode=mode,
        budget=budget,
        lower_bound=None if upper else value,
        upper_bound=value if upper else None,
        terms=terms,
        term_methods=term_methods,
        flags=flags,
        inputs_digest=digest_of({"bound_id": bound_id, **inputs}),
    )


@dataclass(frozen=True)
class SimultaneousReport:
    """Several certificates holding jointly, via the union bound."""

    reports: tuple[ValidationReport, ...]
    joint_confidence: float

    def to_json_dict(self) -> dict:
        return {
            "joint_confidence": self.joint_confidence,
            "reports": [r.to_json_dict() for r in self.reports],
        }


def combine_reports(reports) -> SimultaneousReport:
    reports = tuple(reports)
    parts = tuple(p for r in reports for p in r.budget.parts)
    joint = union_confidence(DeltaBudget(parts))
    return SimultaneousReport(reports, joint)
