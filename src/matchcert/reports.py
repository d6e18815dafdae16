"""Validation report structure shared by the batch and query certifiers.

A report's ``inputs_digest`` hashes one plain JSON object: the fields of
its certificate input's :class:`Payload`, built at most once per payload,
plus the bound id and the budget's deltas.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Callable, Mapping, Sequence

from .bounds import DeltaBudget, Term, union_confidence
from .errors import MatchcertError

__all__ = [
    "Payload",
    "ValidationReport",
    "SimultaneousReport",
    "build_report",
    "combine_reports",
    "digest_of",
    "require_distinct",
]

VACUOUS_DENOMINATOR = "vacuous-denominator"


def require_distinct(name: str, items: Sequence) -> None:
    """Raise ``duplicate-sample-item`` naming the first item of ``items``
    that repeats an earlier one: a without-replacement sample (the field
    ``name`` of a certificate input) has distinct items."""
    if len(set(items)) == len(items):
        return
    seen = set()
    for item in items:
        if item in seen:
            raise MatchcertError(f"duplicate-sample-item: {name} repeats {item!r}")
        seen.add(item)


def digest_of(payload) -> str:
    """Short stable content hash of a JSON-serializable payload: the
    sha256 of its sorted-key compact JSON."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class Payload:
    """A certificate input's digest fields, built on first use.

    ``build`` returns the fields; it runs at most once, when the first
    report built from this payload has its ``inputs_digest`` read, and all
    those reports share the result. ``build`` should close over the
    input's fields rather than the input, so that a report does not keep
    the input's networks alive.
    """

    def __init__(self, build: Callable[[], Mapping]):
        self._build = build

    @cached_property
    def fields(self) -> Mapping:
        """The fields ``build`` returns, built on first read."""
        return self._build()

    def __getstate__(self) -> dict:
        # a pickled report carries its fields, not the closure
        return {"fields": self.fields}


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """One certified bound with its failure-probability budget.

    ``lower_bound`` is set for precision/recall certificates, and
    ``upper_bound`` for error-rate certificates. ``terms`` holds the named
    intermediate bounds the final value was assembled from, and
    ``term_methods`` the bound family actually used per term (a term may
    be downgraded, e.g. when the exact method is inapplicable to it).

    ``inputs_digest`` hashes the bound id, the budget's deltas and
    ``payload``'s fields as one plain JSON object. It is computed when
    first read, so a caller that never reads it (a coverage trial) never
    builds the payload. Reports compare equal when their fields and their
    digests do.
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
    payload: Payload | None = field(default=None, repr=False, compare=False)

    @cached_property
    def inputs_digest(self) -> str:
        if self.payload is None:
            return ""
        return digest_of({
            **self.payload.fields,
            "bound_id": self.bound_id,
            "deltas": [p.delta for p in self.budget.parts],
        })

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ValidationReport):
            return NotImplemented
        return self._compared() == other._compared()

    def _compared(self) -> tuple:
        own = tuple(getattr(self, f.name) for f in fields(self) if f.compare)
        return (*own, self.inputs_digest)

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
    inputs: Payload,
    terms: Mapping[str, Term | float],
    value: float | Callable[[], float],
    flags: tuple[str, ...] = (),
    denominator: float | None = None,
) -> ValidationReport:
    """The one place a certificate becomes a report.

    ``bound_id`` reads ``<variant>-<mode>-<quantity>``; error rates get an
    upper bound, precision and recall a lower one. ``value`` is clamped to
    [0, 1]. A ratio certificate passes its denominator's bound and ``value``
    as a function that divides by it: when the denominator is at most 0
    the value is never computed, and the report carries 0 and the
    vacuous-denominator flag instead. ``terms`` names what the value was
    assembled from: each :class:`Term` gives the report's ``terms`` its
    bound and ``term_methods`` the method it used, and a plain number (a
    sample size, a count) passes through to ``terms``. ``inputs``, the
    certificate's input payload, is hashed with the bound id and the
    budget's deltas into the report's ``inputs_digest`` when that is first
    read, not here.
    """
    variant, mode, quantity = bound_id.split("-", 2)
    if denominator is not None:
        if denominator <= 0.0:
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
        terms={k: t.value if isinstance(t, Term) else t for k, t in terms.items()},
        term_methods={k: t.method for k, t in terms.items() if isinstance(t, Term)},
        flags=flags,
        payload=inputs,
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
