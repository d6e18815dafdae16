"""Validation report structure shared by the batch and query certifiers.

A report's ``inputs_digest`` hashes one plain JSON object: the fields of
its certificate's input, as plain JSON values that a callable returns
when the digest is first read, plus the bound id and the report's delta
parts. The sampled-node checks that both certifiers run on s_x
(and the query certifier on s_x') are :func:`sample_positions`;
:func:`verified_sample` adds the keys and the per-node counts of s_x's
verified matches, its rows of a ``MatchSet``, and :func:`terms_of` reads
a report's terms back.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import suppress
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from .bounds import Term
from .errors import MatchcertError
from .graphs import MatchSet

__all__ = [
    "ValidationReport",
    "SimultaneousReport",
    "build_report",
    "combine_reports",
    "digest_of",
    "require_distinct",
    "sample_positions",
    "terms_of",
    "verified_sample",
]

VACUOUS_DENOMINATOR = "vacuous-denominator"


def require_distinct(name: str, items: Sequence) -> None:
    """Raise ``duplicate-sample-item`` naming the first item of ``items``
    that repeats an earlier one: a without-replacement sample (the field
    ``name`` of a certificate input) has distinct items. An item that
    cannot be hashed is no node id (``unknown-node``): ids are strings.
    Only when one set of all the items shows a repeat or cannot be built
    does a walk in input order find the item to name."""
    with suppress(TypeError):
        if len(set(items)) == len(items):
            return
    seen = set()
    for item in items:
        try:
            if item in seen:
                raise MatchcertError(f"duplicate-sample-item: {name} repeats {item!r}")
            seen.add(item)
        except TypeError:
            raise MatchcertError(f"unknown-node: {item!r}") from None


def sample_positions(index, name: str, nodes: Sequence[str]) -> np.ndarray:
    """The positions in ``index`` (a network's ``NodeIndex``) of the
    sampled ``nodes``, the field ``name`` of a certificate input, after
    checking, in order: the sample is no string, which would read as its
    characters (``invalid-sample``), is non-empty (``empty-sample``),
    repeats no node (``duplicate-sample-item``) and holds only nodes of
    the network (``unknown-node``)."""
    if isinstance(nodes, str):
        raise MatchcertError(
            f"invalid-sample: {name} is the string {nodes!r}, not a sequence of ids"
        )
    if not nodes:
        raise MatchcertError(f"empty-sample: {name} has no nodes")
    require_distinct(name, nodes)
    at = index.positions(nodes)
    if (at < 0).any():
        raise MatchcertError(f"unknown-node: {nodes[int(np.argmax(at < 0))]!r}")
    return at


def verified_sample(pair, nodes: Sequence[str], actual_for: MatchSet) -> tuple:
    """The positions in X of the sampled ``nodes`` (s_x, checked by
    :func:`sample_positions`), the keys of their verified pairs, node after
    node and each node's in key order, and each node's count of them.

    Each node's verified matches are its row of ``actual_for``, a MatchSet
    over ``pair``'s universes that the certificate input has checked
    (``MatchSet.check_input``), found by binary search; a node with no
    pair in it has no verified match."""
    at = sample_positions(pair.x_net.index, "s_x", nodes)
    return (at, *actual_for.rows(at))


def digest_of(payload) -> str:
    """Short stable content hash of a JSON-serializable payload: the
    sha256 of its sorted-key compact JSON."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """One certified bound with the failure probabilities of its terms.

    ``lower_bound`` is set for precision/recall certificates, and
    ``upper_bound`` for error-rate certificates. ``terms`` holds the named
    intermediate bounds the final value was assembled from, and
    ``term_methods`` the bound family actually used per term (a term may
    be downgraded, e.g. when the exact method is inapplicable to it).

    ``delta_parts`` holds one delta per bound term, and ``delta_total``
    their sum, the report's failure probability by the union bound.
    ``inputs_digest`` hashes the bound id, the delta parts and the input
    fields that ``payload`` returns as plain JSON values, one plain JSON
    object: those each certifier's ``_payload`` lists, less the complete
    part in a holdout report. These are the input's match sets, samples
    and scalars, so inputs that certify different bounds get different
    digests; a matcher's training pairs enter through the identified set
    it outputs. It is computed when first read, so a caller that never reads
    it (a coverage trial) never builds the fields. A pickled report
    carries its digest, not ``payload``. Reports compare equal when their
    fields and their digests do.
    """

    bound_id: str
    quantity: str  # precision | recall | error-rate
    variant: str  # holdout | complete
    mode: str  # batch | query
    delta_parts: tuple[float, ...]
    lower_bound: float | None = None
    upper_bound: float | None = None
    terms: Mapping[str, float] = field(default_factory=dict)
    term_methods: Mapping[str, str] = field(default_factory=dict)
    flags: tuple[str, ...] = ()
    payload: Callable[[], Mapping] | None = field(
        default=None, repr=False, compare=False
    )

    @cached_property
    def inputs_digest(self) -> str:
        if self.payload is None:
            return ""
        return digest_of({
            **self.payload(),
            "bound_id": self.bound_id,
            "deltas": self.delta_parts,
        })

    def __getstate__(self) -> dict:
        return {**vars(self), "payload": None, "inputs_digest": self.inputs_digest}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ValidationReport):
            return NotImplemented
        return self._compared() == other._compared()

    def _compared(self) -> tuple:
        own = tuple(getattr(self, f.name) for f in fields(self) if f.compare)
        return (*own, self.inputs_digest)

    @property
    def delta_total(self) -> float:
        return sum(self.delta_parts)

    @property
    def confidence(self) -> float:
        return 1.0 - self.delta_total

    @property
    def vacuous(self) -> bool:
        return any(f.startswith("vacuous") for f in self.flags)

    def to_json_dict(self) -> dict:
        return {
            **{f.name: getattr(self, f.name) for f in fields(self) if f.compare},
            "delta_parts": list(self.delta_parts),
            "delta_total": self.delta_total,
            "confidence": self.confidence,
            "terms": dict(sorted(self.terms.items())),
            "term_methods": dict(sorted(self.term_methods.items())),
            "flags": list(self.flags),
            "inputs_digest": self.inputs_digest,
        }


def build_report(
    bound_id: str,
    delta_parts: tuple[float, ...],
    inputs: Callable[[], Mapping],
    terms: Mapping[str, Term | float],
    value: float | Callable[[], float],
    flags: tuple[str, ...] = (),
    denominator: float | None = None,
) -> ValidationReport:
    """The one place a certificate becomes a report.

    ``bound_id`` reads ``<variant>-<mode>-<quantity>``; error rates get an
    upper bound, precision and recall a lower one. ``value`` is clamped to
    [0, 1], and a value strictly inside is then stepped one float toward the
    safe side (an upper bound up, a lower bound down): float arithmetic can
    leave a composed bound just past the exact one, as 0.9000000000000001
    for a product of terms that sit at a truth of 0.9, and even one rounded
    ratio such as 88/100 lies above the exact 0.88. A ratio certificate
    passes its denominator's bound and ``value`` as a function that divides
    by it: when the denominator is at most 0 the value is never computed,
    and the report carries 0 and the vacuous-denominator flag instead.
    ``terms`` names what the value was
    assembled from: each :class:`Term` gives the report's ``terms`` its
    bound and ``term_methods`` the method it used, and a plain number (a
    sample size, a count) passes through to ``terms``. ``inputs`` returns
    the fields of the certificate's input as plain JSON values; it is
    called when the report's ``inputs_digest`` is first read, not here,
    and its result is hashed with the bound id and ``delta_parts``. It should close over the
    input's fields rather than the input, so that a report does not keep
    the input's networks alive.
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
    if 0.0 < value < 1.0:
        value = math.nextafter(value, 1.0 if upper else 0.0)
    return ValidationReport(
        bound_id=bound_id,
        quantity=quantity,
        variant=variant,
        mode=mode,
        delta_parts=delta_parts,
        lower_bound=None if upper else value,
        upper_bound=value if upper else None,
        terms={k: t.value if isinstance(t, Term) else t for k, t in terms.items()},
        term_methods={k: t.method for k, t in terms.items() if isinstance(t, Term)},
        flags=flags,
        payload=inputs,
    )


def terms_of(report: ValidationReport) -> dict:
    """A report's terms as ``build_report`` was given them."""
    how = report.term_methods
    return {k: Term(v, how[k]) if k in how else v for k, v in report.terms.items()}


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
    """The reports, holding jointly at 1 minus their delta parts' sum (in
    report order); ``budget-exhausted`` for none or a sum of 1 or more."""
    reports = tuple(reports)
    total = sum(p for r in reports for p in r.delta_parts)
    if not reports or total >= 1.0:
        raise MatchcertError(f"budget-exhausted: deltas sum to {total}")
    return SimultaneousReport(reports, 1.0 - total)
