"""Precision and recall certificates for batch matchers.

A batch matcher materializes its full identified-match set before
validation. From a verified sample of actual matches and a node sample
with known actual matches, these functions certify:

* holdout recall: the identified-membership rate over the verified match
  sample lower-bounds recall directly.
* holdout precision: recall times actual-match density, rescaled by the
  identified-set size (precision = recall * |M| / |identified|, with |M|
  lower-bounded through the per-node match-count mean).
* complete variants: the holdout certificate minus a correction for the
  pairs the holdout matcher identified but the complete matcher dropped.
  The complete matcher may have been trained on the validation samples;
  only the holdout matcher must be independent of them.

Every certificate consumes an explicit delta budget with one part per
bound term; the total failure probability is the sum of the parts.
:func:`batch_reports` runs every certificate an input supports from a
single delta.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

from .bounds import BoundMethod, Confidence, DeltaBudget, bound_term
# Unused here; the benchmark's self-test (perfbench/selftest.py) checks
# that tracing reaches this imported name.
from .bounds import bound_mean  # noqa: F401
from .errors import MatchcertError
from .graphs import MatchSet, NetworkPair
from .reports import ValidationReport, build_report

__all__ = [
    "BatchValidationInput",
    "holdout_batch_recall",
    "holdout_batch_precision",
    "complete_batch_recall",
    "complete_batch_precision",
    "batch_reports",
    "true_batch_metrics",
]


@dataclass(frozen=True)
class BatchValidationInput:
    """Inputs shared by the batch certificates.

    ``s_m`` is a sample drawn uniformly without replacement from the
    actual matches; ``s_x`` likewise from the x universe, with
    ``actual_for`` giving the verified actual matches for each sampled
    node. ``m_size`` is the actual-match count when known; when unknown,
    ``m_size_upper`` supplies a conservative stand-in (the exact method is
    then unavailable for the recall term and Hoeffding is used instead).
    """

    pair: NetworkPair
    m_hat_holdout: MatchSet
    s_m: tuple[tuple[str, str], ...]
    s_x: tuple[str, ...]
    actual_for: Mapping[str, frozenset[str]]
    method: BoundMethod
    budget: DeltaBudget
    k_y: int = 1
    m_hat_complete: MatchSet | None = None
    m_size: int | None = None
    m_size_upper: int | None = None
    vacuous_eps: float = 0.0

    def __post_init__(self) -> None:
        if self.k_y < 1:
            raise MatchcertError(f"invalid-ky: {self.k_y}")

    @property
    def n_x(self) -> int:
        return len(self.pair.x_net.nodes)


def _inputs(inp: BatchValidationInput) -> dict:
    return {
        "n_x": inp.n_x,
        "m_hat_holdout": sorted(map(list, inp.m_hat_holdout.pairs)),
        "m_hat_complete": (
            sorted(map(list, inp.m_hat_complete.pairs))
            if inp.m_hat_complete
            else None
        ),
        "s_m": sorted(map(list, inp.s_m)),
        "s_x": sorted(inp.s_x),
        "k_y": inp.k_y,
        "method": inp.method.value,
        "deltas": [p.delta for p in inp.budget.parts],
        "m_size": inp.m_size,
        "m_size_upper": inp.m_size_upper,
    }


def _recall_term(inp: BatchValidationInput, delta: Confidence) -> tuple[float, str]:
    """Lower-bound the identified rate over the actual matches."""
    if not inp.s_m:
        raise MatchcertError("empty-sample: s_m has no verified matches")
    values = [1.0 if p in inp.m_hat_holdout.pairs else 0.0 for p in inp.s_m]
    n = inp.m_size if inp.m_size is not None else inp.m_size_upper
    if n is None:
        raise MatchcertError(
            "missing-population: supply m_size or m_size_upper for the recall term"
        )
    exact = inp.m_size is not None
    return bound_term(n, values, inp.method, delta, "lower", exact=exact)


def _density_term(inp: BatchValidationInput, delta: Confidence) -> tuple[float, str]:
    """Lower-bound the mean per-node actual-match count over X.

    The population is X itself, whose size is always known; the counts
    lie in [0, k_y], so the exact method applies only when k_y = 1.
    """
    if not inp.s_x:
        raise MatchcertError("empty-sample: s_x has no nodes")
    values = []
    for x in inp.s_x:
        if x not in inp.actual_for:
            raise MatchcertError(f"missing-actual: no verified matches for {x!r}")
        values.append(float(len(inp.actual_for[x])))
    return bound_term(
        inp.n_x, values, inp.method, delta, "lower", hi=float(inp.k_y)
    )


def _two_terms(
    inp: BatchValidationInput, parts: tuple[Confidence, ...]
) -> tuple[dict, dict]:
    """The recall and match-density terms, on the budget's two parts."""
    d_recall, d_density = parts
    recall_lb, recall_method = _recall_term(inp, d_recall)
    density_lb, density_method = _density_term(inp, d_density)
    terms = {"recall_term": recall_lb, "match_density_term": density_lb}
    methods = {"recall_term": recall_method, "match_density_term": density_method}
    return terms, methods


def _precision_scale(n_x: int, m_hat_size: int, terms: dict) -> float:
    # shared by the holdout and complete precision certificates so that the
    # zero-disagreement case reduces to the holdout value bit-for-bit
    return n_x / m_hat_size * terms["recall_term"] * terms["match_density_term"]


def holdout_batch_recall(inp: BatchValidationInput) -> ValidationReport:
    (delta,) = inp.budget.parts_for(1)
    recall_lb, method = _recall_term(inp, delta)
    return build_report(
        "holdout-batch-recall",
        inp.budget,
        _inputs(inp),
        {"recall_term": recall_lb, "sample_size": float(len(inp.s_m))},
        {"recall_term": method},
        recall_lb,
    )


def holdout_batch_precision(inp: BatchValidationInput) -> ValidationReport:
    parts = inp.budget.parts_for(2)
    if not inp.m_hat_holdout.pairs:
        raise MatchcertError("no-identified-matches: holdout identified set is empty")
    terms, methods = _two_terms(inp, parts)
    identified = len(inp.m_hat_holdout.pairs)
    terms["identified_count"] = float(identified)
    value = _precision_scale(inp.n_x, identified, terms)
    return build_report(
        "holdout-batch-precision", inp.budget, _inputs(inp), terms, methods, value
    )


def _require_complete(inp: BatchValidationInput) -> MatchSet:
    if inp.m_hat_complete is None:
        raise MatchcertError("missing-complete: no complete identified set supplied")
    return inp.m_hat_complete


def complete_batch_recall(inp: BatchValidationInput) -> ValidationReport:
    parts = inp.budget.parts_for(2)
    m_hat = _require_complete(inp)
    terms, methods = _two_terms(inp, parts)
    disagreement = len(inp.m_hat_holdout.pairs - m_hat.pairs)
    terms["disagreement_count"] = float(disagreement)
    recall_lb, density_lb = terms["recall_term"], terms["match_density_term"]
    return build_report(
        "complete-batch-recall",
        inp.budget,
        _inputs(inp),
        terms,
        methods,
        lambda: recall_lb - disagreement / (inp.n_x * density_lb),
        denominator=density_lb,
        vacuous_eps=inp.vacuous_eps,
    )


def complete_batch_precision(inp: BatchValidationInput) -> ValidationReport:
    parts = inp.budget.parts_for(2)
    m_hat = _require_complete(inp)
    if not m_hat.pairs:
        raise MatchcertError("no-identified-matches: complete identified set is empty")
    terms, methods = _two_terms(inp, parts)
    disagreement = len(inp.m_hat_holdout.pairs - m_hat.pairs)
    terms["disagreement_count"] = float(disagreement)
    terms["identified_count"] = float(len(m_hat.pairs))
    value = (
        _precision_scale(inp.n_x, len(m_hat.pairs), terms)
        - disagreement / len(m_hat.pairs)
    )
    return build_report(
        "complete-batch-precision", inp.budget, _inputs(inp), terms, methods, value
    )


def batch_reports(inp: BatchValidationInput) -> list[ValidationReport]:
    """Every certificate the input supports: holdout recall and precision,
    then, when ``m_hat_complete`` is given, complete recall and precision.

    ``inp.budget`` holds one delta; each certificate spends it split
    equally over its own terms, so the reports hold jointly at the union
    bound of their budgets. The holdout certificates see the input without
    the complete set.
    """
    (delta,) = inp.budget.parts_for(1)
    holdout = replace(inp, m_hat_complete=None)

    def split(k: int, of: BatchValidationInput = inp) -> BatchValidationInput:
        return replace(of, budget=DeltaBudget.equal_split(delta.delta, k))

    reports = [
        holdout_batch_recall(split(1, holdout)),
        holdout_batch_precision(split(2, holdout)),
    ]
    if inp.m_hat_complete is not None:
        reports += [complete_batch_recall(split(2)), complete_batch_precision(split(2))]
    return reports


def true_batch_metrics(
    pair: NetworkPair, m_hat: MatchSet, m_true: MatchSet
) -> tuple[float | None, float | None]:
    """Exact (precision, recall) by set arithmetic; None on an empty
    denominator. Test and harness oracle only: requires full ground truth."""
    hit = len(m_hat.pairs & m_true.pairs)
    precision = hit / len(m_hat.pairs) if m_hat.pairs else None
    recall = hit / len(m_true.pairs) if m_true.pairs else None
    return precision, recall
