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
verified node sample directly. The complete-matcher certificates add a
correction bounded from a second, independent node sample on which only
matcher outputs are observed, never actual matches: d_r(x) flags nodes
where the holdout matcher found something the complete one dropped, and
d_p(x) additionally charges for partial overlap. The d_p bound's range,
(0, 1 + the most matches the holdout matcher gives any x of X), is read
from its whole identified set, so it is fixed before s_x' is read.

One stage, ``_columns``, checks the samples and runs each matcher once.
It maps s_x and s_x' to positions and counts, per sampled node, from the
match sets' keys (``np.bincount`` over ``key // n_y``, membership by
binary search): the identified and actual matches, the hits, and the
holdout-only and complete-only matches. From these it builds float
columns, in s_x and s_x' order: p, r, w and the matched indicator over
s_x, and the holdout and complete indicators, d_r, d_p and the
disagreement indicator over s_x'. Every certificate and
``compute_node_stats`` reads these columns. When the complete matcher
computes the same function as the holdout one, its columns are the
holdout's and it never runs. The samples are drawn without replacement,
so a node repeated in s_x or s_x' (or a pair in a batch input's s_m) is
rejected with ``duplicate-sample-item``: it would be counted as several
independent draws. A verified match outside Y, or an identity pair in
self-match mode, fails (``unknown-node``, ``identity-pair-forbidden``)
rather than count as an actual match that was missed. Each certificate
takes optional ``columns``, which :func:`query_reports` builds once for
all its certificates; a certificate called on its own builds them
itself. Each report's digest fields come from the input its own
certificate was given (see :mod:`.reports`).

The truth oracle, :func:`exact_metrics`, reads keys too: one binary
search of each set's keys in the other's gives every exact batch and
query metric, with per-node rates from ``np.bincount`` and means by
``math.fsum``; ``true_query_metrics``, ``true_error_rate`` and
``batch.true_batch_metrics`` are projections of it.

The holdout precision and recall terms bound means over a subset D of X
from the sampled nodes in D, which, given their number, are a uniform
sample of D. For precision, D is the nodes the holdout matcher identifies
anything for; its size is known once the matcher has run, so the
precision terms of holdout-query-precision and complete-query-precision
are bounded at n = |D| by the requested method and record it as
``identified_nodes``. The exact method also needs p(x) to be 0 or 1 on
all of D, which holds when the holdout matcher gives every x at most one
match; this is read from its whole identified set, never from s_x, and
otherwise the precision terms get Hoeffding. For recall, D is the nodes
with actual matches, whose size is unknown. The recall terms of holdout-query-recall and
complete-query-recall use the stand-in |X| with ``exact=False``: the exact
inversion is not monotone in n and may under-cover there, so it becomes
Hoeffding, whose slack ignores the size; EBS is kept, as its
sampling-fraction factor only grows with the size. tests/test_bounds.py
checks both families exhaustively under stand-in sizes, and
``tests/test_query.py::TestTermPopulationSize`` both terms by exact sums.
Every other term is a mean over X, bounded at |X|.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .bounds import BoundMethod, Confidence, bound_term
from .errors import MatchcertError
from .graphs import MatchSet, NetworkPair
from .matchers import MatcherHandle, run_batch
from .reports import ValidationReport, build_report
from .reports import sample_positions, verified_sample

__all__ = [
    "PerNodeStats",
    "QueryValidationInput",
    "holdout_query_bounds",
    "complete_query_recall",
    "complete_query_precision",
    "error_rate_bounds",
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

    ``s_x`` is a uniform without-replacement node sample with verified
    actual matches in ``actual_for``. ``s_x_prime`` is a second sample,
    drawn independently of ``s_x``, for which actual matches are NOT
    required (and are never read): it only feeds matcher-vs-matcher
    disagreement terms. ``delta`` is each certificate's failure
    probability, split equally over its terms.
    """

    pair: NetworkPair
    holdout: MatcherHandle
    s_x: tuple[str, ...]
    actual_for: Mapping[str, frozenset[str]]
    method: BoundMethod
    delta: float
    complete: MatcherHandle | None = None
    s_x_prime: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        Confidence(self.delta)

    @property
    def n_x(self) -> int:
        return len(self.pair.x_net.index.ids)


class Columns(NamedTuple):
    """The per-node statistics of one input's sampled nodes, as float
    arrays (see ``_columns``).

    ``p``, ``r``, ``w`` and ``matched`` (1.0 where x has actual matches)
    hold one entry per node of s_x; ``p`` and ``r`` are NaN where
    undefined. The matcher columns hold one entry per node of s_x, then
    one per node of s_x' (from index ``n`` on); the certificates read the
    s_x' part, ``compute_node_stats`` both. ``h_ind`` and ``c_ind`` are 1.0
    where the holdout or complete matcher identifies anything, and
    ``diff`` where the two differ. ``identified`` counts the x of X for
    which the holdout matcher identifies anything, and ``most`` is the
    largest number of matches it identifies for any x of X; when that is at
    most 1, p(x) is 0 or 1 on all of D whatever s_x is drawn. The complete
    matcher's columns are None without one. ``reduced`` is set when it
    computes the holdout matcher's function; its columns are then the
    holdout's, and d_r, d_p and diff are 0.
    """

    n: int
    identified: int
    most: int
    p: np.ndarray
    r: np.ndarray
    w: np.ndarray
    matched: np.ndarray
    h_ind: np.ndarray
    c_ind: np.ndarray | None = None
    d_r: np.ndarray | None = None
    d_p: np.ndarray | None = None
    diff: np.ndarray | None = None
    reduced: bool = False


def _per_x(keys: np.ndarray, n_x: int, n_y: int) -> np.ndarray:
    """How many of the pair ``keys`` each x of X has."""
    return np.bincount(keys // max(n_y, 1), minlength=n_x)


def _columns(inp: QueryValidationInput) -> Columns:
    """Check the samples, run each matcher once and return the columns.

    The samples are checked first (see ``reports.verified_sample``): s_x
    with its ``actual_for``, then s_x' when a complete matcher is given or
    s_x' is non-empty. The complete matcher
    does not run when it computes the same function as the holdout one.
    """
    ix = inp.pair.x_net.index
    at, verified = verified_sample(inp.pair, inp.s_x, inp.actual_for)
    if inp.complete is not None or inp.s_x_prime:
        at = np.concatenate([at, sample_positions(ix, "s_x_prime", inp.s_x_prime)])
    m_hat = run_batch(inp.holdout, inp.pair)
    n, n_x, n_y = len(inp.s_x), len(ix.ids), len(inp.pair.y_net.index.ids)

    # the verified nodes: identified, actual and both, per node
    n_actual = np.fromiter((len(inp.actual_for[x]) for x in inp.s_x), np.int64, n)
    owner = np.repeat(np.arange(n), n_actual)
    hits = np.bincount(owner, weights=m_hat.contains(verified), minlength=n)
    per_x = _per_x(m_hat.keys, n_x, n_y)
    h = per_x[at]
    same = (h[:n] == n_actual) & (hits == n_actual)
    columns = Columns(
        n=n,
        identified=int(np.count_nonzero(per_x)),
        most=int(per_x.max()),
        p=np.divide(hits, h[:n], out=np.full(n, np.nan), where=h[:n] > 0),
        r=np.divide(hits, n_actual, out=np.full(n, np.nan), where=n_actual > 0),
        w=(~same).astype(float),
        matched=(n_actual > 0).astype(float),
        h_ind=(h > 0).astype(float),
    )
    if inp.complete is None:
        return columns

    # the complete matcher, per node of s_x and s_x'
    reduced = inp.complete == inp.holdout
    if reduced:
        c = both = h
    else:
        complete = run_batch(inp.complete, inp.pair)
        c = _per_x(complete.keys, n_x, n_y)[at]
        both = _per_x(m_hat.keys[m_hat.found_in(complete)], n_x, n_y)[at]
    h_only, differ = h - both, (h != both) | (c != both)
    # 0 when x's holdout set is empty or equals its complete one, 1 when
    # only the holdout matcher speaks, else 1 + |holdout-only| / |complete|
    ratio = np.divide(h_only, c, out=np.zeros(h.size), where=c > 0)
    d_p = np.where((h > 0) & differ, 1.0 + ratio, 0.0)
    return columns._replace(
        c_ind=(c > 0).astype(float),
        d_r=(h_only > 0).astype(float),
        d_p=d_p,
        diff=differ.astype(float),
        reduced=reduced,
    )


def _payload(inp: QueryValidationInput) -> Callable[[], dict]:
    """``inp``'s digest fields but the bound id and deltas, which each
    report adds. They hold the matchers' configs, not the handles and the
    networks."""
    s_x, s_x_prime = inp.s_x, inp.s_x_prime
    holdout = inp.holdout.config
    complete = inp.complete.config if inp.complete else None
    scalars = {"n_x": inp.n_x, "method": inp.method.value}
    return lambda: {
        **scalars,
        "s_x": sorted(s_x),
        "s_x_prime": sorted(s_x_prime),
        "holdout": holdout.to_json_dict(),
        "complete": complete.to_json_dict() if complete else None,
    }


def _holdout_term(
    inp: QueryValidationInput, columns: Columns, quantity: str, delta: Confidence
) -> dict:
    """The report terms of a lower bound on the mean of p(x) or r(x)
    (``quantity`` precision or recall) over the nodes D where it is
    defined: the bound and the number of usable nodes, the sampled nodes in
    D. Precision is bounded at |D|, recorded as ``identified_nodes``, with
    the exact method only when p(x) is 0/1 on all of D (``most`` <= 1);
    recall, whose |D| is unknown, at the stand-in |X| with ``exact=False``
    (see the module docstring)."""
    column = columns.p if quantity == "precision" else columns.r
    sample = column[~np.isnan(column)].tolist()
    if not sample:
        side = "identified" if quantity == "precision" else "actual"
        raise MatchcertError(f"no-usable-sample: no sampled node has {side} matches")
    if quantity == "recall":
        term = bound_term(inp.n_x, sample, inp.method, delta, "lower", exact=False)
        return {"recall_term": term, "usable_nodes": float(len(sample))}
    term = bound_term(
        columns.identified, sample, inp.method, delta, "lower", exact=columns.most <= 1
    )
    return {
        "precision_term": term,
        "usable_nodes": float(len(sample)),
        "identified_nodes": float(columns.identified),
    }


def holdout_query_bounds(
    inp: QueryValidationInput, columns: Columns | None = None
) -> tuple[ValidationReport, ValidationReport]:
    """Certify holdout query precision and recall, each at ``inp.delta``
    (``reports.combine_reports`` gives the confidence that both hold)."""
    columns = columns or _columns(inp)
    reports = []
    for quantity in ("precision", "recall"):
        terms = _holdout_term(inp, columns, quantity, Confidence(inp.delta))
        reports.append(
            build_report(
                f"holdout-query-{quantity}",
                (inp.delta,),
                _payload(inp),
                terms,
                terms[f"{quantity}_term"].value,
            )
        )
    precision, recall = reports
    return precision, recall


def _require_complete(inp: QueryValidationInput) -> None:
    if inp.complete is None:
        raise MatchcertError("missing-complete: no complete matcher supplied")


def complete_query_recall(
    inp: QueryValidationInput, columns: Columns | None = None
) -> ValidationReport:
    """Holdout recall minus the disagreement rate rescaled by the matched
    fraction of X; reduces exactly to the holdout certificate when the
    complete matcher is the same function as the holdout one."""
    delta = Confidence(inp.delta / 3)
    _require_complete(inp)
    columns = columns or _columns(inp)
    terms = {**_holdout_term(inp, columns, "recall", delta), "disagreement_term": 0.0}
    recall = terms["recall_term"]
    value, denominator, flags = recall.value, None, ("reduced-to-holdout",)
    if not columns.reduced:
        d_ub = terms["disagreement_term"] = bound_term(
            inp.n_x, columns.d_r[columns.n :].tolist(), inp.method, delta, "upper"
        )
        frac_lb = terms["matched_fraction_term"] = bound_term(
            inp.n_x, columns.matched.tolist(), inp.method, delta, "lower"
        )
        value, denominator, flags = (
            (lambda: recall.value - d_ub.value / frac_lb.value), frac_lb.value, ()
        )
    return build_report(
        "complete-query-recall",
        (delta.delta,) * 3,
        _payload(inp),
        terms,
        value,
        flags=flags,
        denominator=denominator,
    )


def complete_query_precision(
    inp: QueryValidationInput, columns: Columns | None = None
) -> ValidationReport:
    """[lower(holdout-matched fraction) * lower(holdout precision) -
    upper(d_p mean)] / upper(complete-matched fraction).

    d_p(x) is at most 1 + |holdout matches of x|, so the d_p term's range
    is (0, 1 + ``most``), read from the holdout matcher's whole identified
    set and so fixed before s_x' is read, as Hoeffding's bound requires.
    The range used is recorded in the terms.
    """
    delta = Confidence(inp.delta / 4)
    _require_complete(inp)
    columns = columns or _columns(inp)
    n = columns.n

    terms = _holdout_term(inp, columns, "precision", delta)
    precision = terms["precision_term"]
    h_frac = bound_term(inp.n_x, columns.h_ind[n:].tolist(), inp.method, delta, "lower")
    c_frac = bound_term(inp.n_x, columns.c_ind[n:].tolist(), inp.method, delta, "upper")
    terms.update(
        holdout_fraction_term=h_frac, complete_fraction_term=c_frac, dp_term=0.0
    )
    dp_ub, flags = 0.0, ()
    if columns.reduced:
        flags = ("reduced-to-holdout",)
    else:
        hi = 1.0 + columns.most
        dp = terms["dp_term"] = bound_term(
            inp.n_x, columns.d_p[n:].tolist(), inp.method, delta, "upper", hi=hi
        )
        terms.update(dp_range_lo=0.0, dp_range_hi=hi)
        dp_ub = dp.value
    return build_report(
        "complete-query-precision",
        (delta.delta,) * 4,
        _payload(inp),
        terms,
        lambda: (h_frac.value * precision.value - dp_ub) / c_frac.value,
        flags=flags,
        denominator=c_frac.value,
    )


def error_rate_bounds(
    inp: QueryValidationInput, columns: Columns | None = None
) -> ValidationReport:
    """Upper-bound the mean single-node error over X.

    Holdout variant (no complete matcher supplied): one upper bound over
    the verified sample. Complete variant: the holdout bound plus an upper
    bound on the holdout/complete disagreement rate from the independent
    sample, since a complete-matcher error needs the holdout matcher to
    err or the two matchers to differ.
    """
    k = 1 if inp.complete is None else 2
    delta = Confidence(inp.delta / k)
    columns = columns or _columns(inp)
    error = bound_term(inp.n_x, columns.w.tolist(), inp.method, delta, "upper")
    terms = {"error_term": error}
    disagreement, flags = 0.0, ()
    if inp.complete is None:
        variant = "holdout"
    else:
        variant = "complete"
        if columns.reduced:
            terms["disagreement_term"] = 0.0
            flags = ("reduced-to-holdout",)
        else:
            diff = terms["disagreement_term"] = bound_term(
                inp.n_x, columns.diff[columns.n :].tolist(), inp.method, delta, "upper"
            )
            disagreement = diff.value
    return build_report(
        f"{variant}-query-error-rate",
        (delta.delta,) * k,
        _payload(inp),
        terms,
        error.value + disagreement,
        flags=flags,
    )


def query_reports(inp: QueryValidationInput) -> list[ValidationReport]:
    """Every certificate the input supports: holdout precision, recall and
    error rate, then, when a complete matcher is given, complete recall,
    precision and error rate.

    Each report fails with probability at most ``inp.delta``, so they hold
    jointly by the union bound. The holdout certificates see the input
    without the complete matcher. The columns are built once for all the
    certificates.
    """
    holdout = replace(inp, complete=None)
    columns = _columns(inp)
    reports = [
        *holdout_query_bounds(holdout, columns),
        error_rate_bounds(holdout, columns),
    ]
    if inp.complete is not None:
        reports += [
            complete_query_recall(inp, columns),
            complete_query_precision(inp, columns),
            error_rate_bounds(inp, columns),
        ]
    return reports


def compute_node_stats(inp: QueryValidationInput) -> list[PerNodeStats]:
    """Per-node statistics for reporting.

    Verified-sample nodes carry p, r, w against the holdout matcher (plus
    d_r, d_p when a complete matcher is present); independent-sample-only
    nodes carry d_r, d_p alone, never touching actual matches.
    """
    columns = _columns(inp)
    n = columns.n
    p, r = (
        [None if math.isnan(v) else v for v in column.tolist()]
        for column in (columns.p, columns.r)
    )
    w = columns.w.astype(int).tolist()
    if columns.d_r is None:
        return [PerNodeStats(x, p[i], r[i], w[i]) for i, x in enumerate(inp.s_x)]
    d_r, d_p = columns.d_r.tolist(), columns.d_p.tolist()
    out = [
        PerNodeStats(x, p[i], r[i], w[i], d_r[i], d_p[i])
        for i, x in enumerate(inp.s_x)
    ]
    seen = set(inp.s_x)
    out += [
        PerNodeStats(x, d_r=d_r[n + j], d_p=d_p[n + j])
        for j, x in enumerate(inp.s_x_prime)
        if x not in seen
    ]
    return out


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
