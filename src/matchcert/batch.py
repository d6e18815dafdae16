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
single delta. Each certificate takes an optional ``shared`` record, built
by ``_shared``, that batch_reports builds once for all its certificates:
the digest payload, and the recall and match-density terms of the
precision and complete certificates, computed when the first of them
needs them. The payload's fields are built when a report's digest is
first read, and the digest hashes them as plain JSON (see :mod:`.reports`).

The terms read the match sets' int keys: ``s_m`` membership is a binary
search of the verified pairs' keys, and the set sizes and the
holdout-minus-complete count are key counts. The samples are drawn
without replacement, so a term that reads ``s_m`` or ``s_x`` rejects a
repeated pair or node (``duplicate-sample-item``). It also rejects a pair
with an endpoint outside X or Y, and a node outside X (``unknown-node``),
which would otherwise count as a miss or as a node with no matches.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .bounds import BoundMethod, Confidence, DeltaBudget, Term, bound_term
# Unused here; the benchmark's self-test (perfbench/selftest.py) checks
# that tracing reaches this imported name.
from .bounds import bound_mean  # noqa: F401
from .errors import MatchcertError
from .graphs import MatchSet, NetworkPair, pair_keys
from .reports import Payload, ValidationReport, build_report, require_distinct

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
    Both identified sets must be over ``pair``'s node universes
    (``universe-mismatch`` otherwise).
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

    def __post_init__(self) -> None:
        if self.k_y < 1:
            raise MatchcertError(f"invalid-ky: {self.k_y}")
        universe = self.pair.x_net.index.ids, self.pair.y_net.index.ids
        for m_hat in (self.m_hat_holdout, self.m_hat_complete):
            if m_hat is not None:
                m_hat.check_universe(*universe)

    @property
    def n_x(self) -> int:
        return len(self.pair.x_net.index.ids)


def _payload(inp: BatchValidationInput) -> Payload:
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
        "m_size_upper": inp.m_size_upper,
    }
    return Payload(lambda: {
        **scalars,
        # a sorted tuple of pairs encodes as the sorted list of [x, y]
        "m_hat_holdout": holdout.sorted_pairs,
        "m_hat_complete": complete.sorted_pairs if complete else None,
        "s_m": sorted(map(list, s_m)),
        "s_x": sorted(s_x),
    })


class Shared(NamedTuple):
    """What the certificates of one input share: its digest payload, and
    ``two_terms``, which returns the recall and match-density terms (see
    ``_two_terms``), computed on its first call."""

    payload: Payload
    two_terms: Callable[[], Mapping[str, Term]]


def _shared(inp: BatchValidationInput) -> Shared:
    return Shared(_payload(inp), cache(lambda: _two_terms(inp)))


def _recall_term(inp: BatchValidationInput, delta: Confidence) -> Term:
    """Lower-bound the identified rate over the actual matches."""
    if not inp.s_m:
        raise MatchcertError("empty-sample: s_m has no verified matches")
    require_distinct("s_m", inp.s_m)
    keys = pair_keys(inp.pair, inp.s_m)
    if (keys < 0).any():
        x, y = inp.s_m[int(np.argmax(keys < 0))]
        raise MatchcertError(f"unknown-node: s_m pair ({x!r}, {y!r})")
    hits = inp.m_hat_holdout.contains(keys)
    values = [1.0 if hit else 0.0 for hit in hits.tolist()]
    n = inp.m_size if inp.m_size is not None else inp.m_size_upper
    if n is None:
        raise MatchcertError(
            "missing-population: supply m_size or m_size_upper for the recall term"
        )
    exact = inp.m_size is not None
    return bound_term(n, values, inp.method, delta, "lower", exact=exact)


def _density_term(inp: BatchValidationInput, delta: Confidence) -> Term:
    """Lower-bound the mean per-node actual-match count over X.

    The population is X itself, whose size is always known; the counts
    lie in [0, k_y], so the exact method applies only when k_y = 1.
    """
    if not inp.s_x:
        raise MatchcertError("empty-sample: s_x has no nodes")
    require_distinct("s_x", inp.s_x)
    values = []
    for x in inp.s_x:
        if x not in inp.actual_for:
            raise MatchcertError(f"missing-actual: no verified matches for {x!r}")
        values.append(float(len(inp.actual_for[x])))
    at = inp.pair.x_net.index.positions(inp.s_x)
    if (at < 0).any():
        raise MatchcertError(f"unknown-node: {inp.s_x[int(np.argmax(at < 0))]!r}")
    return bound_term(
        inp.n_x, values, inp.method, delta, "lower", hi=float(inp.k_y)
    )


def _two_terms(inp: BatchValidationInput) -> dict[str, Term]:
    """The recall and match-density terms, on the budget's two parts."""
    d_recall, d_density = inp.budget.parts_for(2)
    return {
        "recall_term": _recall_term(inp, d_recall),
        "match_density_term": _density_term(inp, d_density),
    }


def _precision_scale(n_x: int, m_hat_size: int, terms: Mapping) -> float:
    # shared by the holdout and complete precision certificates so that the
    # zero-disagreement case reduces to the holdout value bit-for-bit
    recall, density = terms["recall_term"].value, terms["match_density_term"].value
    return n_x / m_hat_size * recall * density


def holdout_batch_recall(
    inp: BatchValidationInput, shared: Shared | None = None
) -> ValidationReport:
    (delta,) = inp.budget.parts_for(1)
    recall = _recall_term(inp, delta)
    return build_report(
        "holdout-batch-recall",
        inp.budget,
        (shared or _shared(inp)).payload,
        {"recall_term": recall, "sample_size": float(len(inp.s_m))},
        recall.value,
    )


def holdout_batch_precision(
    inp: BatchValidationInput, shared: Shared | None = None
) -> ValidationReport:
    inp.budget.parts_for(2)
    identified = inp.m_hat_holdout.keys.size
    if not identified:
        raise MatchcertError("no-identified-matches: holdout identified set is empty")
    shared = shared or _shared(inp)
    terms = {**shared.two_terms(), "identified_count": float(identified)}
    return build_report(
        "holdout-batch-precision",
        inp.budget,
        shared.payload,
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
    inp: BatchValidationInput, shared: Shared | None = None
) -> ValidationReport:
    inp.budget.parts_for(2)
    m_hat = _require_complete(inp)
    shared = shared or _shared(inp)
    terms = shared.two_terms()
    disagreement = _disagreement(inp, m_hat)
    recall, density = terms["recall_term"].value, terms["match_density_term"].value
    return build_report(
        "complete-batch-recall",
        inp.budget,
        shared.payload,
        {**terms, "disagreement_count": float(disagreement)},
        lambda: recall - disagreement / (inp.n_x * density),
        denominator=density,
    )


def complete_batch_precision(
    inp: BatchValidationInput, shared: Shared | None = None
) -> ValidationReport:
    inp.budget.parts_for(2)
    m_hat = _require_complete(inp)
    identified = m_hat.keys.size
    if not identified:
        raise MatchcertError("no-identified-matches: complete identified set is empty")
    shared = shared or _shared(inp)
    terms = shared.two_terms()
    disagreement = _disagreement(inp, m_hat)
    return build_report(
        "complete-batch-precision",
        inp.budget,
        shared.payload,
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

    ``inp.budget`` holds one delta; each certificate spends it split
    equally over its own terms, so the reports hold jointly at the union
    bound of their budgets. The holdout certificates see the input without
    the complete set. The three two-term certificates share one recall and
    one match-density term, computed when the first of them needs it, so
    the errors raised and their order are those of the certificates run
    one by one.
    """
    (delta,) = inp.budget.parts_for(1)
    holdout = replace(inp, m_hat_complete=None)

    def split(k: int, of: BatchValidationInput = inp) -> BatchValidationInput:
        return replace(of, budget=DeltaBudget.equal_split(delta.delta, k))

    shared = _shared(split(2))
    held = shared._replace(payload=_payload(holdout))
    reports = [
        holdout_batch_recall(split(1, holdout), held),
        holdout_batch_precision(split(2, holdout), held),
    ]
    if inp.m_hat_complete is not None:
        reports += [
            complete_batch_recall(split(2), shared),
            complete_batch_precision(split(2), shared),
        ]
    return reports


def true_batch_metrics(
    pair: NetworkPair, m_hat: MatchSet, m_true: MatchSet
) -> tuple[float | None, float | None]:
    """Exact (precision, recall) by key arithmetic; None on an empty
    denominator. Test and harness oracle only: requires full ground truth."""
    hit = int(np.count_nonzero(m_hat.found_in(m_true)))
    identified, actual = m_hat.keys.size, m_true.keys.size
    precision = hit / identified if identified else None
    recall = hit / actual if actual else None
    return precision, recall
