"""Precision, recall, and error-rate certificates for query matchers.

A query matcher produces identified matches per node on demand; its full
identified set is never materialized. Certification therefore works on
per-node statistics:

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
d_p(x) additionally charges for partial overlap.

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

from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

from .bounds import BoundMethod, Confidence, DeltaBudget, bound_term
from .errors import MatchcertError
from .graphs import MatchSet, NetworkPair, by_x
from .matchers import MatcherHandle, run_batch
from .reports import ValidationReport, build_report
from .sampling import stream_without_replacement

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
    "sample_until_usable",
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
    if complete and holdout:
        if holdout != complete:
            return 1.0 + len(holdout - complete) / len(complete)
        return 0.0
    if holdout and not complete:
        return 1.0
    return 0.0


@dataclass(frozen=True)
class PerNodeStats:
    node: str
    p: float | None = None
    r: float | None = None
    w: int | None = None
    d_r: float | None = None
    d_p: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "node": self.node,
            "p": self.p,
            "r": self.r,
            "w": self.w,
            "d_r": self.d_r,
            "d_p": self.d_p,
        }


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
    vacuous_eps: float = 0.0

    def __post_init__(self) -> None:
        if self.k_cap < 1:
            raise MatchcertError(f"invalid-kcap: {self.k_cap}")

    @property
    def n_x(self) -> int:
        return len(self.pair.x_net.nodes)


def _actual(inp: QueryValidationInput, x: str) -> frozenset:
    if x not in inp.actual_for:
        raise MatchcertError(f"missing-actual: no verified matches for {x!r}")
    return inp.actual_for[x]


def _views(
    inp: QueryValidationInput, handle: MatcherHandle, nodes: Sequence[str]
) -> dict[str, frozenset[str]]:
    """The identified matches of each sampled node, from one pass over the
    handle's identified set."""
    per_x = by_x(run_batch(handle, inp.pair))
    views = {}
    for x in nodes:
        if x not in inp.pair.x_net.nodes:
            raise MatchcertError(f"unknown-node: {x!r}")
        views[x] = per_x.get(x, frozenset())
    return views


def _inputs(inp: QueryValidationInput) -> dict:
    return {
        "n_x": inp.n_x,
        "s_x": sorted(inp.s_x),
        "s_x_prime": sorted(inp.s_x_prime),
        "method": inp.method.value,
        "deltas": [p.delta for p in inp.budget.parts],
        "k_cap": inp.k_cap,
        "holdout": inp.holdout.config.to_json_dict(),
        "complete": inp.complete.config.to_json_dict() if inp.complete else None,
    }


def _holdout_precision_term(
    inp: QueryValidationInput, hv: Mapping[str, frozenset], delta: Confidence
) -> tuple[float, str, int]:
    values = [
        single_node_precision(hv[x], _actual(inp, x)) for x in inp.s_x if hv[x]
    ]
    if not values:
        raise MatchcertError(
            "no-usable-sample: no sampled node has identified matches"
        )
    lb, used = bound_term(inp.n_x, values, inp.method, delta, "lower")
    return lb, used, len(values)


def _holdout_recall_term(
    inp: QueryValidationInput, hv: Mapping[str, frozenset], delta: Confidence
) -> tuple[float, str, int]:
    values = []
    for x in inp.s_x:
        actual = _actual(inp, x)
        if actual:
            values.append(single_node_recall(hv[x], actual))
    if not values:
        raise MatchcertError("no-usable-sample: no sampled node has actual matches")
    lb, used = bound_term(inp.n_x, values, inp.method, delta, "lower")
    return lb, used, len(values)


def holdout_query_bounds(
    inp: QueryValidationInput,
) -> tuple[ValidationReport, ValidationReport]:
    """Certify holdout query precision and recall, each at the budget's
    single delta (combine with union_confidence to hold both jointly)."""
    (delta,) = inp.budget.parts_for(1)
    if not inp.s_x:
        raise MatchcertError("empty-sample: s_x has no nodes")
    hv = _views(inp, inp.holdout, inp.s_x)
    p_lb, p_used, p_n = _holdout_precision_term(inp, hv, delta)
    r_lb, r_used, r_n = _holdout_recall_term(inp, hv, delta)
    precision = build_report(
        "holdout-query-precision",
        inp.budget,
        _inputs(inp),
        {"precision_term": p_lb, "usable_nodes": float(p_n)},
        {"precision_term": p_used},
        p_lb,
    )
    recall = build_report(
        "holdout-query-recall",
        inp.budget,
        _inputs(inp),
        {"recall_term": r_lb, "usable_nodes": float(r_n)},
        {"recall_term": r_used},
        r_lb,
    )
    return precision, recall


def _require_complete(inp: QueryValidationInput) -> MatcherHandle:
    if inp.complete is None:
        raise MatchcertError("missing-complete: no complete matcher supplied")
    if not inp.s_x_prime:
        raise MatchcertError("empty-sample: s_x_prime has no nodes")
    return inp.complete


def complete_query_recall(inp: QueryValidationInput) -> ValidationReport:
    """Holdout recall minus the disagreement rate rescaled by the matched
    fraction of X; reduces exactly to the holdout certificate when the
    complete matcher is the same function as the holdout one."""
    d_r, d_x, d_frac = inp.budget.parts_for(3)
    complete = _require_complete(inp)
    reduced = complete.same_function(inp.holdout)
    hv = _views(
        inp, inp.holdout, inp.s_x if reduced else (*inp.s_x, *inp.s_x_prime)
    )
    r_lb, r_used, r_n = _holdout_recall_term(inp, hv, d_r)
    terms = {"recall_term": r_lb, "disagreement_term": 0.0, "usable_nodes": float(r_n)}
    methods = {"recall_term": r_used}
    if reduced:
        return build_report(
            "complete-query-recall", inp.budget, _inputs(inp), terms, methods, r_lb,
            flags=("reduced-to-holdout",),
        )
    cv = _views(inp, complete, inp.s_x_prime)
    d_values = [disagreement_recall(hv[x], cv[x]) for x in inp.s_x_prime]
    d_ub, methods["disagreement_term"] = bound_term(
        inp.n_x, d_values, inp.method, d_x, "upper"
    )
    matched_ind = [1.0 if _actual(inp, x) else 0.0 for x in inp.s_x]
    frac_lb, methods["matched_fraction_term"] = bound_term(
        inp.n_x, matched_ind, inp.method, d_frac, "lower"
    )
    terms["disagreement_term"] = d_ub
    terms["matched_fraction_term"] = frac_lb
    return build_report(
        "complete-query-recall",
        inp.budget,
        _inputs(inp),
        terms,
        methods,
        lambda: r_lb - d_ub / frac_lb,
        denominator=frac_lb,
        vacuous_eps=inp.vacuous_eps,
    )


def complete_query_precision(inp: QueryValidationInput) -> ValidationReport:
    """[lower(holdout-matched fraction) * lower(holdout precision) -
    upper(d_p mean)] / upper(complete-matched fraction).

    The d_p term uses the documented default range (-1, 2), widened to
    (0, 1 + k_cap) when an observed value exceeds 2 (possible as soon as a
    node has several identified matches); the range actually used is
    recorded in the terms.
    """
    d1, d2, d3, d4 = inp.budget.parts_for(4)
    complete = _require_complete(inp)
    hv = _views(inp, inp.holdout, (*inp.s_x, *inp.s_x_prime))
    cv = _views(inp, complete, inp.s_x_prime)

    p_lb, p_used, p_n = _holdout_precision_term(inp, hv, d2)
    h_ind = [1.0 if hv[x] else 0.0 for x in inp.s_x_prime]
    h_frac_lb, h_frac_used = bound_term(inp.n_x, h_ind, inp.method, d1, "lower")
    c_ind = [1.0 if cv[x] else 0.0 for x in inp.s_x_prime]
    c_frac_ub, c_frac_used = bound_term(inp.n_x, c_ind, inp.method, d4, "upper")

    methods = {
        "holdout_fraction_term": h_frac_used,
        "precision_term": p_used,
        "complete_fraction_term": c_frac_used,
    }
    terms = {
        "holdout_fraction_term": h_frac_lb,
        "precision_term": p_lb,
        "complete_fraction_term": c_frac_ub,
        "usable_nodes": float(p_n),
        "dp_term": 0.0,
    }
    flags: tuple[str, ...] = ()
    if complete.same_function(inp.holdout):
        flags = ("reduced-to-holdout",)
    else:
        dp_values = [disagreement_precision(hv[x], cv[x]) for x in inp.s_x_prime]
        lo, hi = DP_DEFAULT_RANGE
        if max(dp_values, default=0.0) > hi:
            lo, hi = 0.0, 1.0 + inp.k_cap
            flags = ("dp-range-widened",)
        terms["dp_term"], methods["dp_term"] = bound_term(
            inp.n_x, dp_values, inp.method, d3, "upper", lo=lo, hi=hi
        )
        terms["dp_range_lo"] = lo
        terms["dp_range_hi"] = hi
    dp_ub = terms["dp_term"]
    return build_report(
        "complete-query-precision",
        inp.budget,
        _inputs(inp),
        terms,
        methods,
        lambda: (h_frac_lb * p_lb - dp_ub) / c_frac_ub,
        flags=flags,
        denominator=c_frac_ub,
        vacuous_eps=inp.vacuous_eps,
    )


def error_rate_bounds(inp: QueryValidationInput) -> ValidationReport:
    """Upper-bound the mean single-node error over X.

    Holdout variant (no complete matcher supplied): one upper bound over
    the verified sample. Complete variant: the holdout bound plus an upper
    bound on the holdout/complete disagreement rate from the independent
    sample, since a complete-matcher error needs the holdout matcher to
    err or the two matchers to differ.
    """
    if not inp.s_x:
        raise MatchcertError("empty-sample: s_x has no nodes")
    complete = inp.complete
    reduced = complete is None or complete.same_function(inp.holdout)
    hv = _views(
        inp, inp.holdout, inp.s_x if reduced else (*inp.s_x, *inp.s_x_prime)
    )
    w_values = [float(single_node_error(hv[x], _actual(inp, x))) for x in inp.s_x]
    if complete is None:
        (delta,) = inp.budget.parts_for(1)
        w_ub, w_used = bound_term(inp.n_x, w_values, inp.method, delta, "upper")
        return build_report(
            "holdout-query-error-rate", inp.budget, _inputs(inp),
            {"error_term": w_ub}, {"error_term": w_used}, w_ub,
        )
    d1, d2 = inp.budget.parts_for(2)
    _require_complete(inp)
    w_ub, w_used = bound_term(inp.n_x, w_values, inp.method, d1, "upper")
    terms = {"error_term": w_ub, "disagreement_term": 0.0}
    methods = {"error_term": w_used}
    if reduced:
        return build_report(
            "complete-query-error-rate", inp.budget, _inputs(inp), terms, methods,
            w_ub, flags=("reduced-to-holdout",),
        )
    cv = _views(inp, complete, inp.s_x_prime)
    diff_values = [1.0 if hv[x] != cv[x] else 0.0 for x in inp.s_x_prime]
    diff_ub, methods["disagreement_term"] = bound_term(
        inp.n_x, diff_values, inp.method, d2, "upper"
    )
    terms["disagreement_term"] = diff_ub
    return build_report(
        "complete-query-error-rate", inp.budget, _inputs(inp), terms, methods,
        w_ub + diff_ub,
    )


def query_reports(inp: QueryValidationInput) -> list[ValidationReport]:
    """Every certificate the input supports: holdout precision, recall and
    error rate, then, when a complete matcher is given, complete recall,
    precision and error rate.

    ``inp.budget`` holds one delta; each certificate spends it split
    equally over its own terms, so the reports hold jointly at the union
    bound of their budgets. The holdout certificates see the input without
    the complete matcher.
    """
    (delta,) = inp.budget.parts_for(1)
    holdout = replace(inp, complete=None)

    def split(k: int, of: QueryValidationInput = inp) -> QueryValidationInput:
        return replace(of, budget=DeltaBudget.equal_split(delta.delta, k))

    precision, recall = holdout_query_bounds(split(1, holdout))
    reports = [precision, recall, error_rate_bounds(split(1, holdout))]
    if inp.complete is not None:
        reports += [
            complete_query_recall(split(3)),
            complete_query_precision(split(4)),
            error_rate_bounds(split(2)),
        ]
    return reports


def compute_node_stats(inp: QueryValidationInput) -> list[PerNodeStats]:
    """Per-node statistics for reporting.

    Verified-sample nodes carry p, r, w against the holdout matcher (plus
    d_r, d_p when a complete matcher is present); independent-sample-only
    nodes carry d_r, d_p alone, never touching actual matches.
    """
    prime_only: tuple[str, ...] = ()
    if inp.complete is not None:
        seen = set(inp.s_x)
        prime_only = tuple(x for x in inp.s_x_prime if x not in seen)
    nodes = (*inp.s_x, *prime_only)
    hv = _views(inp, inp.holdout, nodes)
    cv = _views(inp, inp.complete, nodes) if inp.complete is not None else None
    out = []
    for x in inp.s_x:
        actual = _actual(inp, x)
        out.append(
            PerNodeStats(
                node=x,
                p=single_node_precision(hv[x], actual),
                r=single_node_recall(hv[x], actual),
                w=single_node_error(hv[x], actual),
                d_r=disagreement_recall(hv[x], cv[x]) if cv is not None else None,
                d_p=disagreement_precision(hv[x], cv[x]) if cv is not None else None,
            )
        )
    for x in prime_only:
        out.append(
            PerNodeStats(
                node=x,
                d_r=disagreement_recall(hv[x], cv[x]),
                d_p=disagreement_precision(hv[x], cv[x]),
            )
        )
    return out


def sample_until_usable(
    universe: Sequence[str],
    predicate: Callable[[str], bool],
    target: int,
    seed_or_rng,
) -> list[str]:
    """Extend a without-replacement draw until ``target`` drawn items
    satisfy the predicate; returns the full drawn prefix.

    The bounds stay valid on samples grown this way: the usable subset of
    a longer uniform draw is still a uniform draw from the usable part of
    the population.
    """
    drawn: list[str] = []
    usable = 0
    for item in stream_without_replacement(universe, seed_or_rng):
        drawn.append(item)
        if predicate(item):
            usable += 1
            if usable >= target:
                return drawn
    raise MatchcertError(
        f"no-usable-sample: universe exhausted with {usable} usable < {target}"
    )


def true_query_metrics(
    pair: NetworkPair, m_hat: MatchSet, m_true: MatchSet
) -> tuple[float | None, float | None]:
    """Exact query precision/recall: means of p(x) and r(x) over the nodes
    where they are defined. Test and harness oracle only."""
    hat = by_x(m_hat)
    true = by_x(m_true)
    p_vals = [
        len(ys & true.get(x, frozenset())) / len(ys) for x, ys in hat.items()
    ]
    r_vals = [
        len(ys & hat.get(x, frozenset())) / len(ys) for x, ys in true.items()
    ]
    precision = sum(p_vals) / len(p_vals) if p_vals else None
    recall = sum(r_vals) / len(r_vals) if r_vals else None
    return precision, recall


def true_error_rate(pair: NetworkPair, m_hat: MatchSet, m_true: MatchSet) -> float:
    """Exact mean single-node error over all of X. Oracle only."""
    hat = by_x(m_hat)
    true = by_x(m_true)
    wrong = sum(
        1
        for x in pair.x_net.nodes
        if hat.get(x, frozenset()) != true.get(x, frozenset())
    )
    return wrong / len(pair.x_net.nodes)
