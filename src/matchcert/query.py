"""Precision, recall, and error-rate certificates for query matchers.

A query matcher answers for one node at a time, so certification works
on per-node statistics of sampled nodes:

* single-node precision p(x): fraction of x's identified matches that are
  actual (undefined when x has no identified matches);
* single-node recall r(x): fraction of x's actual matches identified
  (undefined when x has no actual matches);
* single-node error w(x): 1 when identified and actual match sets differ.

Query precision/recall are means of p(x) and r(x) over the nodes where
they are defined. The holdout certificates bound these means from the
verified node sample directly. The complete matcher may have been built
from the verified samples, so its certificates bound how far it can
drift from the holdout matcher. The input holds both matchers' identified
sets over all of X, so the drift is counted exactly, never sampled: d_r(x) flags nodes where the
holdout matcher found something the complete one dropped, d_p(x)
additionally charges for partial overlap, and the disagreement indicator
is 1 where the two sets of x differ. With D_H and D_C the nodes each
matcher identifies anything for and D_a the nodes with actual matches,
three inequalities hold for every pair of matchers:

* P_C >= (|D_H| * P_H - sum_X d_p) / |D_C|;
* R_C >= R_H - sum_X d_r / |D_a|;
* E_C <= E_H + mean_X 1[H_x != C_x].

So only the holdout terms are random: complete-query-precision and
complete-query-error-rate bound one term, P_H or E_H, at the full delta,
and complete-query-recall two, R_H and the matched fraction of X (a
lower bound on |D_a| / |X|), at delta / 2 each.

No certificate runs a matcher: the input holds the identified sets, as
``matchers.run_batch`` gives them. One stage, :func:`query_columns`,
checks the samples and counts; the input's ``columns`` attribute runs it
on its first read. It takes s_x's positions and actual-match counts from
``reports.verified_sample`` and counts, per node, from the match sets'
keys (``np.bincount`` over ``key // n_y``, membership by binary search):
the identified matches, the hits, and the holdout-only and complete-only
matches. From these it builds float columns: p, r, w and the matched
indicator over s_x, in s_x order, and d_r, d_p and the disagreement
indicator over all of X. Every certificate and ``compute_node_stats``
reads these columns. A complete set equal to the holdout one has zero
census columns, so its certificates give the holdout bounds. The second
sample s_x' feeds only ``compute_node_stats`` and the digest; it is
checked like s_x. A node repeated in s_x or s_x' would count as several
independent draws (``duplicate-sample-item``). The one optional
argument, of the complete precision and error rate, is ``held``, the
holdout report whose term they read back (``reports.terms_of``) instead
of bounding it again. So a certificate run alone gives the report that
:func:`query_reports` gives, and ``validate query`` builds the columns
once for its reports and ``compute_node_stats``. A holdout report's
digest fields leave out the complete set (see :mod:`.reports`).

The truth oracle, :func:`exact_metrics`, reads keys too: one binary
search of each set's keys in the other's gives every exact batch and
query metric, with per-node rates from ``np.bincount`` and means by
``math.fsum``; ``true_query_metrics``, ``true_error_rate`` and
``batch.true_batch_metrics`` are projections of it.

The holdout precision and recall terms bound means over a subset D of X
from the sampled nodes in D, which, given their number, are a uniform
sample of D. For precision, D is D_H; its size is known once the matcher
has run, so the precision terms of holdout-query-precision and
complete-query-precision are bounded at n = |D| by the requested method
and record it as ``identified_nodes``. The exact method also needs p(x)
to be 0 or 1 on all of D, which holds when the holdout matcher gives
every x at most one match; this is read from its whole identified set,
never from s_x, and otherwise the precision terms get Hoeffding. For
recall, D is D_a, whose size is unknown. The recall terms of
holdout-query-recall and complete-query-recall use the stand-in |X| with
``exact=False``: the exact inversion is not monotone in n and may
under-cover there, so it becomes Hoeffding, whose slack ignores the
size; EBS is kept, as its sampling-fraction factor only grows with the
size. tests/test_bounds.py checks both families exhaustively under
stand-in sizes, and ``tests/test_query.py::TestTermPopulationSize`` both
terms by exact sums. Every other term is a mean over X, bounded at |X|.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .bounds import BoundMethod, Confidence, bound_term
from .errors import MatchcertError
from .graphs import MatchSet, NetworkPair
from .reports import ValidationReport, build_report
from .reports import sample_positions, terms_of, verified_sample

__all__ = [
    "PerNodeStats",
    "QueryValidationInput",
    "holdout_query_bounds",
    "complete_query_recall",
    "complete_query_precision",
    "error_rate_bounds",
    "query_columns",
    "query_reports",
    "compute_node_stats",
    "ExactMetrics",
    "exact_metrics",
    "true_query_metrics",
    "true_error_rate",
]

@dataclass(frozen=True)
class PerNodeStats:
    node: str
    p: float | None = None
    r: float | None = None
    w: int | None = None
    d_r: float | None = None
    d_p: float | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class QueryValidationInput:
    """Inputs for the query certificates.

    ``m_hat_holdout`` and ``m_hat_complete`` are the holdout and complete
    matchers' identified sets over all of X, as ``matchers.run_batch``
    gives them. ``s_x`` is a uniform without-replacement node sample whose
    verified actual matches are its rows of ``actual_for`` (see
    ``reports.verified_sample``). ``s_x_prime`` is an optional second
    sample whose actual matches are never read: no certificate uses it,
    and it feeds only ``compute_node_stats`` and the digest. ``delta`` is
    each certificate's failure probability, split equally over its terms.
    Every set must be a MatchSet over ``pair``'s universes with valid keys
    (``invalid-keys``, ``universe-mismatch``, see ``MatchSet.check_input``).
    """

    pair: NetworkPair
    m_hat_holdout: MatchSet
    s_x: tuple[str, ...]
    actual_for: MatchSet
    method: BoundMethod
    delta: float
    m_hat_complete: MatchSet | None = None
    s_x_prime: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        Confidence(self.delta)
        if not isinstance(self.method, BoundMethod):
            raise MatchcertError(f"unknown-method: {self.method!r}")
        for name in ("m_hat_holdout", "m_hat_complete", "actual_for"):
            value = getattr(self, name)
            if isinstance(value, MatchSet):
                value.check_input(self.pair, name)
            elif value is not None or name != "m_hat_complete":
                raise MatchcertError(f"invalid-keys: {name} is {value!r}, not a MatchSet")

    @property
    def n_x(self) -> int:
        return len(self.pair.x_net.index.ids)

    @cached_property
    def columns(self) -> Columns:
        """:func:`query_columns` of the input, computed on the first read."""
        return query_columns(self)


class Columns(NamedTuple):
    """The per-node statistics of one input, as float arrays (see
    :func:`query_columns`).

    ``p``, ``r``, ``w`` and ``matched`` (1.0 where x has actual matches)
    hold one entry per node of s_x; ``p`` and ``r`` are NaN where
    undefined. ``identified`` counts the x of X for which the holdout
    matcher identifies anything, |D_H|, and ``most`` is the largest number
    of matches it identifies for any x of X; when that is at most 1, p(x)
    is 0 or 1 on all of D_H whatever s_x is drawn. The complete matcher's
    census: ``complete`` counts the x of X it identifies anything for,
    |D_C|, and ``d_r``, ``d_p`` and ``diff`` (1.0 where the two matchers'
    sets of x differ) hold one entry per node of X, in id order; they are
    None without a complete matcher.
    """

    identified: int
    most: int
    p: np.ndarray
    r: np.ndarray
    w: np.ndarray
    matched: np.ndarray
    complete: int = 0
    d_r: np.ndarray | None = None
    d_p: np.ndarray | None = None
    diff: np.ndarray | None = None


def _per_x(keys: np.ndarray, n_x: int, n_y: int) -> np.ndarray:
    """How many of the pair ``keys`` each x of X has."""
    return np.bincount(keys // max(n_y, 1), minlength=n_x)


def query_columns(inp: QueryValidationInput) -> Columns:
    """Check the samples and return the columns of the identified sets.

    The samples are checked first (see ``reports.verified_sample``): s_x
    with its ``actual_for``, then s_x' when it is non-empty or a string.
    """
    at, verified, n_actual = verified_sample(inp.pair, inp.s_x, inp.actual_for)
    if inp.s_x_prime or isinstance(inp.s_x_prime, str):
        sample_positions(inp.pair.x_net.index, "s_x_prime", inp.s_x_prime)
    m_hat = inp.m_hat_holdout
    n, n_x, n_y = len(inp.s_x), inp.n_x, len(inp.pair.y_net.index.ids)

    # the verified nodes: identified, actual and both, per node
    owner = np.repeat(np.arange(n), n_actual)
    hits = np.bincount(owner, weights=m_hat.contains(verified), minlength=n)
    h = _per_x(m_hat.keys, n_x, n_y)
    h_at = h[at]
    same = (h_at == n_actual) & (hits == n_actual)
    columns = Columns(
        identified=int(np.count_nonzero(h)),
        most=int(h.max()),
        p=np.divide(hits, h_at, out=np.full(n, np.nan), where=h_at > 0),
        r=np.divide(hits, n_actual, out=np.full(n, np.nan), where=n_actual > 0),
        w=(~same).astype(float),
        matched=(n_actual > 0).astype(float),
    )
    complete = inp.m_hat_complete
    if complete is None:
        return columns

    # the complete matcher, per node of X
    c = _per_x(complete.keys, n_x, n_y)
    both = _per_x(m_hat.keys[m_hat.found_in(complete)], n_x, n_y)
    h_only, differ = h - both, (h != both) | (c != both)
    # 0 when x's holdout set is empty or equals its complete one, 1 when
    # only the holdout matcher speaks, else 1 + |holdout-only| / |complete|
    ratio = np.divide(h_only, c, out=np.zeros(n_x), where=c > 0)
    return columns._replace(
        complete=int(np.count_nonzero(c)),
        d_r=(h_only > 0).astype(float),
        d_p=np.where((h > 0) & differ, 1.0 + ratio, 0.0),
        diff=differ.astype(float),
    )


def _payload(inp: QueryValidationInput, complete: MatchSet | None) -> Callable[[], dict]:
    """``inp``'s digest fields, with ``complete`` for the complete set (None
    in a holdout report), but the bound id and deltas, which each report
    adds: match sets and samples, not the input and its networks."""
    holdout, actual = inp.m_hat_holdout, inp.actual_for
    s_x, s_x_prime = inp.s_x, inp.s_x_prime
    scalars = {"n_x": inp.n_x, "method": inp.method.value}
    return lambda: {
        **scalars,
        # each set by its digest, hashed once per set
        "m_hat_holdout": holdout.digest,
        "m_hat_complete": complete.digest if complete else None,
        "actual_for": actual.digest,
        "s_x": sorted(s_x),
        "s_x_prime": sorted(s_x_prime),
    }


def _holdout_term(inp: QueryValidationInput, quantity: str, delta: Confidence) -> dict:
    """The report terms of a lower bound on the mean of p(x) or r(x)
    (``quantity`` precision or recall) over the nodes D where it is
    defined: the number of usable nodes, the sampled nodes in D, and the
    bound, ``<quantity>_term``, when some node is usable. Precision is
    bounded at |D|, recorded as ``identified_nodes``, with the exact method
    only when p(x) is 0/1 on all of D (``most`` <= 1); recall, whose |D| is
    unknown, at the stand-in |X| with ``exact=False`` (see the module
    docstring). A certificate passes ``usable_nodes`` to ``build_report``
    as a denominator, so with no usable node it reads 0, flagged
    vacuous-denominator."""
    column = inp.columns.p if quantity == "precision" else inp.columns.r
    sample = column[~np.isnan(column)].tolist()
    terms = {"usable_nodes": float(len(sample))}
    n, exact = inp.n_x, False
    if quantity == "precision":
        n, exact = inp.columns.identified, inp.columns.most <= 1
        terms["identified_nodes"] = float(n)
    if sample:
        terms[f"{quantity}_term"] = bound_term(
            n, sample, inp.method, delta, "lower", exact=exact
        )
    return terms


def holdout_query_bounds(
    inp: QueryValidationInput,
) -> tuple[ValidationReport, ValidationReport]:
    """Certify holdout query precision and recall, each at ``inp.delta``
    (``reports.combine_reports`` gives the confidence that both hold)."""
    reports = []
    for quantity in ("precision", "recall"):
        terms = _holdout_term(inp, quantity, Confidence(inp.delta))
        reports.append(
            build_report(
                f"holdout-query-{quantity}",
                (inp.delta,),
                _payload(inp, None),
                terms,
                lambda: terms[f"{quantity}_term"].value,
                denominator=terms["usable_nodes"],
            )
        )
    precision, recall = reports
    return precision, recall


def _require_complete(inp: QueryValidationInput) -> None:
    if inp.m_hat_complete is None:
        raise MatchcertError("missing-complete: no complete matcher supplied")


def complete_query_recall(inp: QueryValidationInput) -> ValidationReport:
    """Holdout recall minus the census d_r mean rescaled by a lower bound
    on the matched fraction of X, R_C >= R_H - sum_X d_r / |D_a|; each
    term at half the delta. With no d_r the value is the holdout bound,
    whatever the matched fraction; it is vacuous without a usable node or,
    with d_r, without a matched fraction above 0."""
    delta = Confidence(inp.delta / 2)
    _require_complete(inp)
    terms = _holdout_term(inp, "recall", delta)
    frac = terms["matched_fraction_term"] = bound_term(
        inp.n_x, inp.columns.matched.tolist(), inp.method, delta, "lower"
    )
    dropped = terms["disagreement"] = math.fsum(inp.columns.d_r.tolist()) / inp.n_x
    usable = terms["usable_nodes"]
    return build_report(
        "complete-query-recall",
        (delta.delta,) * 2,
        _payload(inp, inp.m_hat_complete),
        terms,
        lambda: terms["recall_term"].value - (dropped and dropped / frac.value),
        denominator=min(usable, frac.value) if dropped else usable,
    )


def complete_query_precision(
    inp: QueryValidationInput, held: ValidationReport | None = None
) -> ValidationReport:
    """P_C >= (|D_H| * P_H - sum_X d_p) / |D_C|, with P_H's bound at the
    full delta and the rest counted over X. The value is written
    ``precision * (|D_H| / |D_C|) - sum d_p / |D_C|``, so an equal complete
    matcher gives the holdout bound bit for bit. ``held``, the input's
    holdout-query-precision report, gives the precision terms when given.
    """
    _require_complete(inp)
    columns = inp.columns
    terms = terms_of(held) if held else _holdout_term(inp, "precision", Confidence(inp.delta))
    damage = math.fsum(columns.d_p.tolist())
    d_h, d_c = columns.identified, columns.complete
    terms.update(
        holdout_fraction=d_h / inp.n_x,
        complete_fraction=d_c / inp.n_x,
        dp=damage / inp.n_x,
    )
    return build_report(
        "complete-query-precision",
        (inp.delta,),
        _payload(inp, inp.m_hat_complete),
        terms,
        lambda: terms["precision_term"].value * (d_h / d_c) - damage / d_c,
        denominator=min(d_c, terms["usable_nodes"]),
    )


def _error_rate(inp: QueryValidationInput, complete, held) -> ValidationReport:
    """:func:`error_rate_bounds` with ``complete`` (a set or None) as its complete set."""
    error = terms_of(held)["error_term"] if held else bound_term(
        inp.n_x, inp.columns.w.tolist(), inp.method, Confidence(inp.delta), "upper"
    )
    terms, value, variant = {"error_term": error}, error.value, "holdout"
    if complete is not None:
        variant = "complete"
        terms["disagreement"] = math.fsum(inp.columns.diff.tolist()) / inp.n_x
        value += terms["disagreement"]
    return build_report(
        f"{variant}-query-error-rate",
        (inp.delta,),
        _payload(inp, complete),
        terms,
        value,
    )


def error_rate_bounds(
    inp: QueryValidationInput, held: ValidationReport | None = None
) -> ValidationReport:
    """Upper-bound the mean single-node error over X at the full delta.

    Holdout variant (no complete matcher supplied): one upper bound over
    the verified sample. Complete variant: that bound, or ``held``'s, the
    input's holdout report, plus the census disagreement rate, E_C <= E_H
    + mean_X 1[H_x != C_x], since a complete-matcher error needs the
    holdout matcher to err or the two matchers to differ.
    """
    return _error_rate(inp, inp.m_hat_complete, held)


def query_reports(inp: QueryValidationInput) -> list[ValidationReport]:
    """Every certificate the input supports: holdout precision, recall and
    error rate, then, when a complete matcher is given, complete recall,
    precision and error rate.

    Each report fails with probability at most ``inp.delta``, so they hold
    jointly by the union bound. The columns are computed once per input and
    the complete precision and error rate read their holdout term from the
    one optional argument, ``held``, so each report is what its certificate
    run alone on ``inp`` gives; the holdout error rate's certificate, given
    a complete matcher, is ``error_rate_bounds`` of ``inp`` without it.
    """
    precision, recall = holdout_query_bounds(inp)
    reports = [precision, recall, error := _error_rate(inp, None, None)]
    if inp.m_hat_complete is not None:
        reports += [
            complete_query_recall(inp),
            complete_query_precision(inp, precision),
            error_rate_bounds(inp, error),
        ]
    return reports


def compute_node_stats(inp: QueryValidationInput) -> list[PerNodeStats]:
    """Per-node statistics for reporting.

    Verified-sample nodes carry p, r, w against the holdout matcher (plus
    d_r, d_p when a complete matcher is present); nodes only in s_x' carry
    d_r, d_p alone, never touching actual matches.
    """
    columns = inp.columns
    p, r = (
        [None if math.isnan(v) else v for v in column.tolist()]
        for column in (columns.p, columns.r)
    )
    w = columns.w.astype(int).tolist()
    if columns.d_r is None:
        return [PerNodeStats(x, p[i], r[i], w[i]) for i, x in enumerate(inp.s_x)]
    seen = set(inp.s_x)
    nodes = [*inp.s_x, *(x for x in inp.s_x_prime if x not in seen)]
    at = inp.pair.x_net.index.positions(nodes)
    d_r, d_p = columns.d_r[at].tolist(), columns.d_p[at].tolist()
    out = [
        PerNodeStats(x, p[i], r[i], w[i], d_r[i], d_p[i])
        for i, x in enumerate(inp.s_x)
    ]
    n = len(inp.s_x)
    return out + [
        PerNodeStats(x, d_r=d_r[n + j], d_p=d_p[n + j])
        for j, x in enumerate(nodes[n:])
    ]


class ExactMetrics(NamedTuple):
    """The exact value of each certified quantity of an identified set,
    by the name its bound ids end in; None on an empty denominator."""

    batch_precision: float | None
    batch_recall: float | None
    query_precision: float | None
    query_recall: float | None
    query_error_rate: float


def exact_metrics(pair: NetworkPair, m_hat: MatchSet, m_true: MatchSet) -> ExactMetrics:
    """The exact metrics of ``m_hat`` against ``m_true`` from one membership
    pass each way: batch precision and recall are the shares of the common
    pairs, query precision and recall the means of p(x) and r(x) over the
    nodes where they are defined, and the error rate the share of X whose
    two match sets differ. Test and harness oracle only: requires full
    ground truth."""
    hat_in_true, true_in_hat = m_hat.found_in(m_true), m_true.found_in(m_hat)
    hit = int(np.count_nonzero(hat_in_true))
    identified, actual = m_hat.keys.size, m_true.keys.size
    n_x, n_y = len(pair.x_net.index.ids), max(len(m_hat.y_ids), 1)
    # x errs when some pair of x is in exactly one of the two sets
    wrong = np.zeros(n_x, dtype=bool)
    wrong[m_hat.keys[~hat_in_true] // n_y] = True
    wrong[m_true.keys[~true_in_hat] // n_y] = True
    return ExactMetrics(
        batch_precision=hit / identified if identified else None,
        batch_recall=hit / actual if actual else None,
        query_precision=_mean_rate(m_hat.keys, hat_in_true, n_y),
        query_recall=_mean_rate(m_true.keys, true_in_hat, n_y),
        query_error_rate=int(np.count_nonzero(wrong)) / n_x,
    )


def _mean_rate(keys: np.ndarray, hits: np.ndarray, n_y: int) -> float | None:
    """The mean, over the x with a pair in ``keys``, of the fraction of x's
    pairs that ``hits`` marks; None when ``keys`` is empty."""
    if not keys.size:
        return None
    x = keys // n_y
    size = np.bincount(x)
    if size.max() == 1:  # each rate is 0 or 1: fsum would give this count
        return int(np.count_nonzero(hits)) / keys.size
    hit = np.bincount(x, weights=hits)
    rows = size > 0
    return math.fsum((hit[rows] / size[rows]).tolist()) / int(np.count_nonzero(rows))


def true_query_metrics(
    pair: NetworkPair, m_hat: MatchSet, m_true: MatchSet
) -> tuple[float | None, float | None]:
    """Exact query precision/recall (see :func:`exact_metrics`). Test and
    harness oracle only."""
    exact = exact_metrics(pair, m_hat, m_true)
    return exact.query_precision, exact.query_recall


def true_error_rate(pair: NetworkPair, m_hat: MatchSet, m_true: MatchSet) -> float:
    """Exact mean single-node error over all of X (see
    :func:`exact_metrics`). Oracle only."""
    return exact_metrics(pair, m_hat, m_true).query_error_rate
