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
own bound terms, and reports one delta part per term. A certificate's
optional arguments are what :func:`batch_reports`, which runs every
certificate an input supports, has already computed: s_m's ``hits`` for
a holdout certificate's recall term, and, for a complete certificate,
``held``, the holdout-batch-precision report, whose recall and
match-density terms it reads back (``reports.terms_of``). A certificate
called without them computes them itself. Each report's digest fields
come from the input its own certificate was given (see :mod:`.reports`).

The terms read the match sets' int keys: ``s_m`` membership is a binary
search of the verified pairs' keys, and the set sizes and the
holdout-minus-complete count are key counts. An s_m or ``actual_for``
given as a MatchSet (as a coverage trial gives the truth's keys) is read
as keys; string pairs and ids are checked and encoded. The samples are
drawn without replacement, so a term that reads ``s_m`` or ``s_x``
rejects a repeated pair or node (``duplicate-sample-item``; a MatchSet's
keys are distinct). It also rejects a pair
with an endpoint outside X or Y, and a node outside X (``unknown-node``),
which would otherwise count as a miss or as a node with no matches; an
identity pair in self-match mode (``identity-pair-forbidden``), in s_m
and in the verified matches of s_x alike; and a sampled node with more
verified matches than ``k_y``, or an s_m that gives some x more than
k_y pairs (``ky-violated``, naming the first such x in id order). No x
has more than k_y actual matches, so k_y·|X| >= |M| is the recall term's
population size when ``m_size`` is not given (see ``bounds.bound_term``);
the per-x check also implies that s_m has at most k_y·|X| pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    terms_of,
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
    actual matches: (x, y) id pairs, or a MatchSet of them. ``s_x`` is
    drawn likewise from the x universe, with ``actual_for`` giving the
    verified actual matches of each sampled node: a mapping from each to
    its ids, or a MatchSet whose rows are them (see
    ``reports.verified_sample``). ``delta`` is each certificate's failure
    probability, split equally over its terms. ``k_y`` caps any x's
    actual matches, so |M| <= k_y·|X|. ``m_size`` is |M| when known;
    without it the recall term stands in k_y·|X| and uses Hoeffding for
    the exact method. Both identified sets, and s_m and ``actual_for``
    when they are MatchSets, must be over ``pair``'s node universes
    (``universe-mismatch`` otherwise).
    """

    pair: NetworkPair
    m_hat_holdout: MatchSet
    s_m: tuple[tuple[str, str], ...] | MatchSet
    s_x: tuple[str, ...]
    actual_for: Mapping[str, frozenset[str]] | MatchSet
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
        for ms in (self.m_hat_holdout, self.m_hat_complete, self.s_m):
            if isinstance(ms, MatchSet):
                ms.check_universe(*universe)

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
        "s_m": (
            s_m.sorted_pairs if isinstance(s_m, MatchSet) else sorted(map(list, s_m))
        ),
        "s_x": sorted(s_x),
    }


def _recall_hits(inp: BatchValidationInput) -> list[float]:
    """Whether the holdout matcher identifies each pair of s_m, as 1.0 or
    0.0, after checking s_m: in s_m's order, or key order for a MatchSet.
    The values are 0/1, so their order changes no bound."""
    s_m, is_set = inp.s_m, isinstance(inp.s_m, MatchSet)
    if not (s_m.keys.size if is_set else s_m):
        raise MatchcertError("empty-sample: s_m has no verified matches")
    if is_set:  # its keys are distinct and over the pair's universes
        keys = s_m.keys
    else:
        keys = pair_keys(inp.pair, "s_m", s_m)
        require_distinct("s_m", list(map(tuple, s_m)))  # a pair may be a list
    over = np.bincount(keys // len(inp.pair.y_net.index.ids)) > inp.k_y
    if over.any():
        x = inp.pair.x_net.index.ids[int(np.argmax(over))]
        raise MatchcertError(
            f"ky-violated: s_m gives node {x!r} more than k_y={inp.k_y} actual matches"
        )
    return [1.0 if hit else 0.0 for hit in inp.m_hat_holdout.contains(keys).tolist()]


def _recall_term(inp: BatchValidationInput, delta: Confidence, hits: list) -> Term:
    """Lower-bound the identified rate over the actual matches."""
    exact = inp.m_size is not None
    n = inp.m_size if exact else inp.k_y * inp.n_x
    return bound_term(n, hits, inp.method, delta, "lower", exact=exact)


def _density_term(inp: BatchValidationInput, delta: Confidence) -> Term:
    """Lower-bound the mean per-node actual-match count over X.

    The population is X itself, whose size is always known; the counts
    lie in [0, k_y], so the exact method applies only when k_y = 1. A
    sampled node with more than k_y verified matches breaks that range
    (``ky-violated``, naming the first such node in sample order).
    """
    counts = verified_sample(inp.pair, inp.s_x, inp.actual_for)[2]
    over = counts > inp.k_y
    if over.any():
        x = inp.s_x[int(np.argmax(over))]
        raise MatchcertError(
            f"ky-violated: node {x!r} has more than k_y={inp.k_y} actual matches"
        )
    values = counts.tolist()
    return bound_term(inp.n_x, values, inp.method, delta, "lower", hi=float(inp.k_y))


def _precision_scale(n_x: int, m_hat_size: int, terms: Mapping) -> float:
    # shared by the holdout and complete precision certificates so that the
    # zero-disagreement case reduces to the holdout value bit-for-bit
    recall, density = terms["recall_term"].value, terms["match_density_term"].value
    return n_x / m_hat_size * recall * density


def holdout_batch_recall(
    inp: BatchValidationInput, hits: list | None = None
) -> ValidationReport:
    hits = hits or _recall_hits(inp)
    recall = _recall_term(inp, Confidence(inp.delta), hits)
    return build_report(
        "holdout-batch-recall",
        (inp.delta,),
        _payload(inp),
        {"recall_term": recall, "sample_size": float(len(hits))},
        recall.value,
    )


def holdout_batch_precision(
    inp: BatchValidationInput, hits: list | None = None
) -> ValidationReport:
    identified = inp.m_hat_holdout.keys.size
    if not identified:
        raise MatchcertError("no-identified-matches: holdout identified set is empty")
    delta = Confidence(inp.delta / 2)
    terms = {
        "recall_term": _recall_term(inp, delta, hits or _recall_hits(inp)),
        "match_density_term": _density_term(inp, delta),
        "identified_count": float(identified),
    }
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
    inp: BatchValidationInput, held: ValidationReport | None = None
) -> ValidationReport:
    m_hat = _require_complete(inp)
    terms = terms_of(held or holdout_batch_precision(inp))
    del terms["identified_count"]
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
    inp: BatchValidationInput, held: ValidationReport | None = None
) -> ValidationReport:
    m_hat = _require_complete(inp)
    identified = m_hat.keys.size
    if not identified:
        raise MatchcertError("no-identified-matches: complete identified set is empty")
    terms = terms_of(held or holdout_batch_precision(inp))
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
    without the complete set. s_m is checked, encoded and matched once,
    for the recall terms at the full and at half the delta, and the
    complete certificates read their terms from the holdout-batch-precision
    report, so the errors raised and their order are those of the
    certificates run one by one.
    """
    holdout = replace(inp, m_hat_complete=None)
    hits = _recall_hits(inp)
    reports = [
        holdout_batch_recall(holdout, hits),
        held := holdout_batch_precision(holdout, hits),
    ]
    if inp.m_hat_complete is not None:
        reports += [
            complete_batch_recall(inp, held),
            complete_batch_precision(inp, held),
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
