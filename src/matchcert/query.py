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
(-1, 2) or (0, 1 + k_cap), is fixed by ``k_cap`` before s_x' is read.

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
independent draws. Each certificate takes an optional ``shared`` record,
built by ``_shared``, that :func:`query_reports` builds once for all its
certificates: the digest payload and the columns. A certificate called on
its own builds the record itself. The payload's fields are built when a
report's digest is first read, and the digest hashes them as plain JSON
(see :mod:`.reports`).

The truth oracles read keys too: numpy set arithmetic over the sorted
keys, with per-node rates from ``np.bincount`` and means by ``math.fsum``.

Population sizes of the defined-node subsets are unknowable without full
enumeration, so the stand-in |X| is used where a size is needed. That is
conservative for Hoeffding, whose slack ignores the size, and for EBS,
whose sampling-fraction factor only grows with it; tests/test_bounds.py
checks both exhaustively on small populations. It is not conservative for
the exact hypergeometric inversion, whose bound lies on the m/n lattice
and is not monotone in n, yet the exact method is still used under the
stand-in: ROADMAP open item 1.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Mapping, NamedTuple

import numpy as np

from .bounds import BoundMethod, Confidence, DeltaBudget, Term, bound_term
from .errors import MatchcertError
from .graphs import MatchSet, NetworkPair
from .matchers import MatcherHandle, run_batch
from .reports import Payload, ValidationReport, build_report, require_distinct

__all__ = [
    "PerNodeStats",
    "QueryValidationInput",
    "single_node_precision",
    "single_node_recall",
    "single_node_error",
    "disagreement_recall",
    "disagreement_precision",
    "holdout_query_bounds",
    "complete_query_recall",
    "complete_query_precision",
    "error_rate_bounds",
    "query_reports",
    "compute_node_stats",
    "true_query_metrics",
    "true_error_rate",
]

DP_DEFAULT_RANGE = (-1.0, 2.0)


def single_node_precision(m_hat: frozenset, actual: frozenset) -> float | None:
    """|identified ∩ actual| / |identified|; None when nothing identified."""
    if not m_hat:
        return None
    return len(m_hat & actual) / len(m_hat)


def single_node_recall(m_hat: frozenset, actual: frozenset) -> float | None:
    """|identified ∩ actual| / |actual|; None when no actual matches."""
    if not actual:
        return None
    return len(m_hat & actual) / len(actual)


def single_node_error(m_hat: frozenset, actual: frozenset) -> int:
    """1 when the identified and actual sets differ at all, else 0."""
    return int(m_hat != actual)


def disagreement_recall(holdout: frozenset, complete: frozenset) -> float:
    """d_r(x): 1 when the holdout matcher found a pair the complete one lost."""
    return 1.0 if holdout - complete else 0.0


def disagreement_precision(holdout: frozenset, complete: frozenset) -> float:
    """d_p(x): per-node precision damage of switching holdout -> complete.

    Zero when both matchers are silent for x or agree exactly; 1 when only
    the holdout matcher speaks; 1 + |holdout-only| / |complete| when both
    speak but differ.
    """
    if not holdout or holdout == complete:
        return 0.0
    if not complete:
        return 1.0
    return 1.0 + len(holdout - complete) / len(complete)


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
    disagreement terms. ``k_cap`` caps identified matches per node and
    sets the widened d_p range.
    """

    pair: NetworkPair
    holdout: MatcherHandle
    s_x: tuple[str, ...]
    actual_for: Mapping[str, frozenset[str]]
    method: BoundMethod
    budget: DeltaBudget
    complete: MatcherHandle | None = None
    s_x_prime: tuple[str, ...] = ()
    k_cap: int = 1

    def __post_init__(self) -> None:
        if self.k_cap < 1:
            raise MatchcertError(f"invalid-kcap: {self.k_cap}")

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
    ``diff`` where the two differ. The complete
    matcher's columns are None without one. ``reduced`` is set when it
    computes the holdout matcher's function; its columns are then the
    holdout's, and d_r, d_p and diff are 0.
    """

    n: int
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

    Checks, in order: s_x is non-empty, s_x' is non-empty when a complete
    matcher is given, neither repeats a node, every node of s_x and s_x'
    is a node of X, and every node of s_x is in ``actual_for``. The
    complete matcher does not run when it computes the same function as
    the holdout one.
    """
    if not inp.s_x:
        raise MatchcertError("empty-sample: s_x has no nodes")
    if inp.complete is not None and not inp.s_x_prime:
        raise MatchcertError("empty-sample: s_x_prime has no nodes")
    require_distinct("s_x", inp.s_x)
    require_distinct("s_x_prime", inp.s_x_prime)
    m_hat = run_batch(inp.holdout, inp.pair)
    ix, iy = inp.pair.x_net.index, inp.pair.y_net.index
    nodes = (*inp.s_x, *inp.s_x_prime)
    at = ix.positions(nodes)
    if (at < 0).any():
        raise MatchcertError(f"unknown-node: {nodes[int(np.argmax(at < 0))]!r}")
    missing = [x for x in inp.s_x if x not in inp.actual_for]
    if missing:
        raise MatchcertError(f"missing-actual: no verified matches for {missing[0]!r}")
    n, n_x, n_y = len(inp.s_x), len(ix.ids), len(iy.ids)

    # the verified nodes: identified, actual and both, per node
    actual = [inp.actual_for[x] for x in inp.s_x]
    ys = [y for matches in actual for y in matches]
    n_actual = np.fromiter(map(len, actual), np.int64, n)
    owner = np.repeat(np.arange(n), n_actual)
    y_at = iy.positions(ys)  # an actual id that is not a node of Y is no hit
    hit = m_hat.contains(at[owner] * n_y + y_at) & (y_at >= 0)
    hits = np.bincount(owner, weights=hit, minlength=n)
    h = _per_x(m_hat.keys, n_x, n_y)[at]
    same = (h[:n] == n_actual) & (hits == n_actual)
    columns = Columns(
        n=n,
        p=np.divide(hits, h[:n], out=np.full(n, np.nan), where=h[:n] > 0),
        r=np.divide(hits, n_actual, out=np.full(n, np.nan), where=n_actual > 0),
        w=(~same).astype(float),
        matched=(n_actual > 0).astype(float),
        h_ind=(h > 0).astype(float),
    )
    if inp.complete is None:
        return columns

    # the complete matcher, per node of s_x and s_x'
    reduced = inp.complete.same_function(inp.holdout)
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


def _payload(inp: QueryValidationInput) -> Payload:
    """``inp``'s digest fields but the bound id and deltas, which each
    report adds. They hold the matchers' configs, not the handles and the
    networks."""
    s_x, s_x_prime = inp.s_x, inp.s_x_prime
    holdout = inp.holdout.config
    complete = inp.complete.config if inp.complete else None
    scalars = {"n_x": inp.n_x, "method": inp.method.value, "k_cap": inp.k_cap}
    return Payload(lambda: {
        **scalars,
        "s_x": sorted(s_x),
        "s_x_prime": sorted(s_x_prime),
        "holdout": holdout.to_json_dict(),
        "complete": complete.to_json_dict() if complete else None,
    })


class Shared(NamedTuple):
    """What the certificates of one input share: its digest payload and
    its columns (see ``_columns``)."""

    payload: Payload
    columns: Columns


def _shared(inp: QueryValidationInput) -> Shared:
    return Shared(_payload(inp), _columns(inp))


def _holdout_term(
    inp: QueryValidationInput, columns: Columns, quantity: str, delta: Confidence
) -> tuple[Term, int]:
    """Lower-bound the mean of p(x) or r(x) (``quantity`` precision or
    recall) over the verified nodes where it is defined; returns the term
    and the number of usable nodes."""
    column = columns.p if quantity == "precision" else columns.r
    sample = column[~np.isnan(column)].tolist()
    if not sample:
        side = "identified" if quantity == "precision" else "actual"
        raise MatchcertError(f"no-usable-sample: no sampled node has {side} matches")
    return bound_term(inp.n_x, sample, inp.method, delta, "lower"), len(sample)


def holdout_query_bounds(
    inp: QueryValidationInput, shared: Shared | None = None
) -> tuple[ValidationReport, ValidationReport]:
    """Certify holdout query precision and recall, each at the budget's
    single delta (combine with union_confidence to hold both jointly)."""
    (delta,) = inp.budget.parts_for(1)
    payload, columns = shared or _shared(inp)
    reports = []
    for quantity in ("precision", "recall"):
        term, n = _holdout_term(inp, columns, quantity, delta)
        reports.append(
            build_report(
                f"holdout-query-{quantity}",
                inp.budget,
                payload,
                {f"{quantity}_term": term, "usable_nodes": float(n)},
                term.value,
            )
        )
    precision, recall = reports
    return precision, recall


def _require_complete(inp: QueryValidationInput) -> None:
    if inp.complete is None:
        raise MatchcertError("missing-complete: no complete matcher supplied")


def complete_query_recall(
    inp: QueryValidationInput, shared: Shared | None = None
) -> ValidationReport:
    """Holdout recall minus the disagreement rate rescaled by the matched
    fraction of X; reduces exactly to the holdout certificate when the
    complete matcher is the same function as the holdout one."""
    d_r, d_x, d_frac = inp.budget.parts_for(3)
    _require_complete(inp)
    payload, columns = shared or _shared(inp)
    recall, n = _holdout_term(inp, columns, "recall", d_r)
    terms = {"recall_term": recall, "disagreement_term": 0.0, "usable_nodes": float(n)}
    value, denominator, flags = recall.value, None, ("reduced-to-holdout",)
    if not columns.reduced:
        d_ub = terms["disagreement_term"] = bound_term(
            inp.n_x, columns.d_r[columns.n :].tolist(), inp.method, d_x, "upper"
        )
        frac_lb = terms["matched_fraction_term"] = bound_term(
            inp.n_x, columns.matched.tolist(), inp.method, d_frac, "lower"
        )
        value, denominator, flags = (
            (lambda: recall.value - d_ub.value / frac_lb.value), frac_lb.value, ()
        )
    return build_report(
        "complete-query-recall",
        inp.budget,
        payload,
        terms,
        value,
        flags=flags,
        denominator=denominator,
    )


def complete_query_precision(
    inp: QueryValidationInput, shared: Shared | None = None
) -> ValidationReport:
    """[lower(holdout-matched fraction) * lower(holdout precision) -
    upper(d_p mean)] / upper(complete-matched fraction).

    The d_p term's range is fixed by ``k_cap`` before s_x' is read, as
    Hoeffding's bound requires: (-1, 2) when k_cap is 1, else (0, 1 +
    k_cap), flagged ``dp-range-widened``. A d_p above 2 needs a node with
    several identified matches, so only k_cap >= 2 can produce one. The
    range used is recorded in the terms.
    """
    d1, d2, d3, d4 = inp.budget.parts_for(4)
    _require_complete(inp)
    payload, columns = shared or _shared(inp)
    n = columns.n

    precision, p_n = _holdout_term(inp, columns, "precision", d2)
    h_frac = bound_term(inp.n_x, columns.h_ind[n:].tolist(), inp.method, d1, "lower")
    c_frac = bound_term(inp.n_x, columns.c_ind[n:].tolist(), inp.method, d4, "upper")
    terms = {
        "holdout_fraction_term": h_frac,
        "precision_term": precision,
        "complete_fraction_term": c_frac,
        "usable_nodes": float(p_n),
        "dp_term": 0.0,
    }
    dp_ub, flags = 0.0, ()
    if columns.reduced:
        flags = ("reduced-to-holdout",)
    else:
        lo, hi = DP_DEFAULT_RANGE
        if inp.k_cap > 1:
            lo, hi, flags = 0.0, 1.0 + inp.k_cap, ("dp-range-widened",)
        dp = terms["dp_term"] = bound_term(
            inp.n_x, columns.d_p[n:].tolist(), inp.method, d3, "upper", lo=lo, hi=hi
        )
        terms.update(dp_range_lo=lo, dp_range_hi=hi)
        dp_ub = dp.value
    return build_report(
        "complete-query-precision",
        inp.budget,
        payload,
        terms,
        lambda: (h_frac.value * precision.value - dp_ub) / c_frac.value,
        flags=flags,
        denominator=c_frac.value,
    )


def error_rate_bounds(
    inp: QueryValidationInput, shared: Shared | None = None
) -> ValidationReport:
    """Upper-bound the mean single-node error over X.

    Holdout variant (no complete matcher supplied): one upper bound over
    the verified sample. Complete variant: the holdout bound plus an upper
    bound on the holdout/complete disagreement rate from the independent
    sample, since a complete-matcher error needs the holdout matcher to
    err or the two matchers to differ.
    """
    parts = inp.budget.parts_for(1 if inp.complete is None else 2)
    payload, columns = shared or _shared(inp)
    error = bound_term(inp.n_x, columns.w.tolist(), inp.method, parts[0], "upper")
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
                inp.n_x, columns.diff[columns.n :].tolist(), inp.method, parts[1],
                "upper",
            )
            disagreement = diff.value
    return build_report(
        f"{variant}-query-error-rate",
        inp.budget,
        payload,
        terms,
        error.value + disagreement,
        flags=flags,
    )


def query_reports(inp: QueryValidationInput) -> list[ValidationReport]:
    """Every certificate the input supports: holdout precision, recall and
    error rate, then, when a complete matcher is given, complete recall,
    precision and error rate.

    ``inp.budget`` holds one delta; each certificate spends it split
    equally over its own terms, so the reports hold jointly at the union
    bound of their budgets. The holdout certificates see the input without
    the complete matcher. The shared record (the payload and the columns)
    is built once for all the certificates.
    """
    (delta,) = inp.budget.parts_for(1)
    holdout = replace(inp, complete=None)
    shared = _shared(inp)
    held = shared._replace(payload=_payload(holdout))

    def split(k: int, of: QueryValidationInput = inp) -> QueryValidationInput:
        return replace(of, budget=DeltaBudget.equal_split(delta.delta, k))

    precision, recall = holdout_query_bounds(split(1, holdout), held)
    reports = [
        precision,
        recall,
        error_rate_bounds(split(1, holdout), held),
    ]
    if inp.complete is not None:
        reports += [
            complete_query_recall(split(3), shared),
            complete_query_precision(split(4), shared),
            error_rate_bounds(split(2), shared),
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


def _mean_rate(a: MatchSet, b: MatchSet) -> float | None:
    """The mean, over the x with a pair in ``a``, of the fraction of x's
    pairs in ``a`` that ``b`` holds; None when ``a`` is empty."""
    if not a.keys.size:
        return None
    x = a.keys // len(a.y_ids)
    size = np.bincount(x)
    hit = np.bincount(x, weights=a.found_in(b))
    rows = size > 0
    return math.fsum((hit[rows] / size[rows]).tolist()) / int(np.count_nonzero(rows))


def true_query_metrics(
    pair: NetworkPair, m_hat: MatchSet, m_true: MatchSet
) -> tuple[float | None, float | None]:
    """Exact query precision/recall: means of p(x) and r(x) over the nodes
    where they are defined. Test and harness oracle only."""
    return _mean_rate(m_hat, m_true), _mean_rate(m_true, m_hat)


def true_error_rate(pair: NetworkPair, m_hat: MatchSet, m_true: MatchSet) -> float:
    """Exact mean single-node error over all of X. Oracle only."""
    # x errs when some pair of x is in exactly one of the two sets
    only = np.concatenate([
        m_hat.keys[~m_hat.found_in(m_true)], m_true.keys[~m_true.found_in(m_hat)]
    ])
    n_x = len(pair.x_net.index.ids)
    wrong = np.zeros(n_x, dtype=bool)
    wrong[only // max(len(m_hat.y_ids), 1)] = True
    return int(np.count_nonzero(wrong)) / n_x
