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

Every certificate spends the input's ``delta``, split equally over its
own bound terms, and reports one delta part per term.
:func:`batch_reports` runs every certificate an input supports. The
precision and complete certificates take an optional ``two_terms``, which
returns the recall and match-density terms; batch_reports passes one that
computes them when the first of those certificates asks. Each report's
digest fields come from the input its own certificate was given (see
:mod:`.reports`).

The terms read the match sets' int keys: ``s_m`` membership is a binary
search of the verified pairs' keys, and the set sizes and the
holdout-minus-complete count are key counts. The samples are drawn
without replacement, so a term that reads ``s_m`` or ``s_x`` rejects a
repeated pair or node (``duplicate-sample-item``). It also rejects a pair
with an endpoint outside X or Y, and a node outside X (``unknown-node``),
which would otherwise count as a miss or as a node with no matches; an
identity pair in self-match mode (``identity-pair-forbidden``), in s_m
and in the verified matches of s_x alike; and a sampled node with more
verified matches than ``k_y``, or an s_m with more pairs than k_y·|X|
(``ky-violated``). That k_y·|X| >= |M| is the recall term's population
size when ``m_size`` is not given (see ``bounds.bound_term``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from typing import Callable, Mapping

import numpy as np

from .bounds import BoundMethod, Confidence, Term, bound_term
# Unused here; the benchmark's self-test (perfbench/selftest.py) checks
# that tracing reaches this imported name.
from .bounds import bound_mean  # noqa: F401
from .errors import MatchcertError
from .graphs import MatchSet, NetworkPair, pair_keys
from .query import exact_metrics
from .reports import (
    ValidationReport,
    build_report,
    require_distinct,
    verified_sample,
)

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
    node. ``delta`` is each certificate's failure probability, split
    equally over its terms. ``k_y`` caps any x's actual matches, so
    |M| <= k_y·|X|. ``m_size`` is |M| when known; without it the recall
    term stands in k_y·|X| and uses Hoeffding for the exact method. Both
    identified sets must be over ``pair``'s node universes
    (``universe-mismatch`` otherwise).
    """

    pair: NetworkPair
    m_hat_holdout: MatchSet
    s_m: tuple[tuple[str, str], ...]
    s_x: tuple[str, ...]
    actual_for: Mapping[str, frozenset[str]]
    method: BoundMethod
    delta: float
    k_y: int = 1
    m_hat_complete: MatchSet | None = None
    m_size: int | None = None

    def __post_init__(self) -> None:
        Confidence(self.delta)
        if self.k_y < 1:
            raise MatchcertError(f"invalid-ky: {self.k_y}")
        universe = self.pair.x_net.index.ids, self.pair.y_net.index.ids
        for m_hat in (self.m_hat_holdout, self.m_hat_complete):
            if m_hat is not None:
                m_hat.check_universe(*universe)

    @property
    def n_x(self) -> int:
        return len(self.pair.x_net.index.ids)


def _payload(inp: BatchValidationInput) -> Callable[[], dict]:
    """``inp``'s digest fields but the bound id and deltas, which each
    report adds. They hold the input's match sets and samples, not the
    input and its networks."""
    holdout, complete = inp.m_hat_holdout, inp.m_hat_complete
    s_m, s_x = inp.s_m, inp.s_x
    scalars = {
        "n_x": inp.n_x,
        "k_y": inp.k_y,
        "method": inp.method.value,
        "m_size": inp.m_size,
    }
    return lambda: {
        **scalars,
        # a sorted tuple of pairs encodes as the sorted list of [x, y]
        "m_hat_holdout": holdout.sorted_pairs,
        "m_hat_complete": complete.sorted_pairs if complete else None,
        "s_m": sorted(map(list, s_m)),
        "s_x": sorted(s_x),
    }


def _recall_term(inp: BatchValidationInput, delta: Confidence) -> Term:
    """Lower-bound the identified rate over the actual matches."""
    if not inp.s_m:
        raise MatchcertError("empty-sample: s_m has no verified matches")
    require_distinct("s_m", inp.s_m)
    hits = inp.m_hat_holdout.contains(pair_keys(inp.pair, "s_m", inp.s_m))
    values = [1.0 if hit else 0.0 for hit in hits.tolist()]
    stand_in = inp.k_y * inp.n_x
    if len(values) > stand_in:
        raise MatchcertError(
            f"ky-violated: s_m has {len(values)} pairs, more than k_y={inp.k_y} allows"
        )
    exact = inp.m_size is not None
    n = inp.m_size if exact else stand_in
    return bound_term(n, values, inp.method, delta, "lower", exact=exact)


def _density_term(inp: BatchValidationInput, delta: Confidence) -> Term:
    """Lower-bound the mean per-node actual-match count over X.

    The population is X itself, whose size is always known; the counts
    lie in [0, k_y], so the exact method applies only when k_y = 1. A
    sampled node with more than k_y verified matches breaks that range
    (``ky-violated``, naming the first such node in sample order).
    """
    verified_sample(inp.pair, inp.s_x, inp.actual_for)
    values = [float(len(inp.actual_for[x])) for x in inp.s_x]
    over = [x for x, count in zip(inp.s_x, values) if count > inp.k_y]
    if over:
        raise MatchcertError(
            f"ky-violated: node {over[0]!r} has more than k_y={inp.k_y} actual matches"
        )
    return bound_term(inp.n_x, values, inp.method, delta, "lower", hi=float(inp.k_y))


def _two_terms(inp: BatchValidationInput) -> dict[str, Term]:
    """The recall and match-density terms, each at half the delta."""
    delta = Confidence(inp.delta / 2)
    return {
        "recall_term": _recall_term(inp, delta),
        "match_density_term": _density_term(inp, delta),
    }


def _precision_scale(n_x: int, m_hat_size: int, terms: Mapping) -> float:
    # shared by the holdout and complete precision certificates so that the
    # zero-disagreement case reduces to the holdout value bit-for-bit
    recall, density = terms["recall_term"].value, terms["match_density_term"].value
    return n_x / m_hat_size * recall * density


def holdout_batch_recall(inp: BatchValidationInput) -> ValidationReport:
    recall = _recall_term(inp, Confidence(inp.delta))
    return build_report(
        "holdout-batch-recall",
        (inp.delta,),
        _payload(inp),
        {"recall_term": recall, "sample_size": float(len(inp.s_m))},
        recall.value,
    )


def holdout_batch_precision(
    inp: BatchValidationInput, two_terms: Callable[[], Mapping] | None = None
) -> ValidationReport:
    identified = inp.m_hat_holdout.keys.size
    if not identified:
        raise MatchcertError("no-identified-matches: holdout identified set is empty")
    terms = two_terms() if two_terms else _two_terms(inp)
    terms = {**terms, "identified_count": float(identified)}
    return build_report(
        "holdout-batch-precision",
        (inp.delta / 2,) * 2,
        _payload(inp),
        terms,
        _precision_scale(inp.n_x, identified, terms),
    )


def _require_complete(inp: BatchValidationInput) -> MatchSet:
    if inp.m_hat_complete is None:
        raise MatchcertError("missing-complete: no complete identified set supplied")
    return inp.m_hat_complete


def _disagreement(inp: BatchValidationInput, m_hat: MatchSet) -> int:
    """How many holdout pairs the complete set ``m_hat`` lacks."""
    return int(np.count_nonzero(~inp.m_hat_holdout.found_in(m_hat)))


def complete_batch_recall(
    inp: BatchValidationInput, two_terms: Callable[[], Mapping] | None = None
) -> ValidationReport:
    m_hat = _require_complete(inp)
    terms = two_terms() if two_terms else _two_terms(inp)
    disagreement = _disagreement(inp, m_hat)
    recall, density = terms["recall_term"].value, terms["match_density_term"].value
    return build_report(
        "complete-batch-recall",
        (inp.delta / 2,) * 2,
        _payload(inp),
        {**terms, "disagreement_count": float(disagreement)},
        lambda: recall - disagreement / (inp.n_x * density),
        denominator=density,
    )


def complete_batch_precision(
    inp: BatchValidationInput, two_terms: Callable[[], Mapping] | None = None
) -> ValidationReport:
    m_hat = _require_complete(inp)
    identified = m_hat.keys.size
    if not identified:
        raise MatchcertError("no-identified-matches: complete identified set is empty")
    terms = two_terms() if two_terms else _two_terms(inp)
    disagreement = _disagreement(inp, m_hat)
    return build_report(
        "complete-batch-precision",
        (inp.delta / 2,) * 2,
        _payload(inp),
        {
            **terms,
            "disagreement_count": float(disagreement),
            "identified_count": float(identified),
        },
        _precision_scale(inp.n_x, identified, terms) - disagreement / identified,
    )


def batch_reports(inp: BatchValidationInput) -> list[ValidationReport]:
    """Every certificate the input supports: holdout recall and precision,
    then, when ``m_hat_complete`` is given, complete recall and precision.

    Each report fails with probability at most ``inp.delta``, so they hold
    jointly by the union bound. The holdout certificates see the input
    without the complete set. The three two-term certificates share one
    recall and one match-density term, computed when the first of them
    needs it, so the errors raised and their order are those of the
    certificates run one by one.
    """
    holdout = replace(inp, m_hat_complete=None)
    two_terms = cache(lambda: _two_terms(inp))
    reports = [
        holdout_batch_recall(holdout),
        holdout_batch_precision(holdout, two_terms),
    ]
    if inp.m_hat_complete is not None:
        reports += [
            complete_batch_recall(inp, two_terms),
            complete_batch_precision(inp, two_terms),
        ]
    return reports


def true_batch_metrics(
    pair: NetworkPair, m_hat: MatchSet, m_true: MatchSet
) -> tuple[float | None, float | None]:
    """Exact (precision, recall) (see ``query.exact_metrics``); None on an
    empty denominator. Test and harness oracle only: requires full ground
    truth."""
    exact = exact_metrics(pair, m_hat, m_true)
    return exact.batch_precision, exact.batch_recall
