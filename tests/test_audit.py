"""Exact audit of the holdout certificates on tiny worlds.

Each world has 12 nodes a side and a fixed holdout set, so the only
randomness is the verified sample. Every s_x (every s_m for batch recall)
of a given size is equally likely, so a certificate's failure probability
is the share of samples whose report lies on the wrong side of the true
value: a lower bound above ``true_*`` or an upper bound below it. The
audit enumerates every sample of sizes 4, 6 and 8 under all three methods
and asserts that share is at most the report's ``delta_total``.

The one-to-many world gives x0 and x1 the matches {y0, y1} each, so p(x)
is not 0/1 on the identified nodes: the exact method's binary premise
fails on the population even where a sample's values happen to be 0/1.

Batch recall is also audited without ``m_size``, where the recall term
stands in k_y·|X| for |M|: 12 at k_y = 1 and 24 at k_y = 2, against 10.

Holdout batch precision draws two independent samples, s_m and s_x. Its
report reads s_m only through the hit count and s_x only through the
verified-match count, so the audit groups each sample's enumeration by
that count, certifies one pair of samples per pair of classes, and
weights it by the classes' sizes; a second member of each class must give
an equal report. It adds a "near" world, with precision and recall 0.9.

The complete certificates are not audited here.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

from matchcert.batch import (
    BatchValidationInput,
    holdout_batch_precision,
    holdout_batch_recall,
    true_batch_metrics,
)
from matchcert.bounds import BoundMethod
from matchcert.errors import MatchcertError
from matchcert.graphs import NetworkPair, by_x, make_match_set, make_network
from matchcert.query import (
    QueryValidationInput,
    error_rate_bounds,
    holdout_query_bounds,
    true_error_rate,
    true_query_metrics,
)

N = 12
DELTA = 0.05
SIZES = (4, 6, 8)
# x_i matches y_i for i < 10; x10 and x11 have no actual match
TRUTH = [(f"x{i}", f"y{i}") for i in range(10)]
# right on x0..x5, wrong on x6, x7 (swapped) and x10; x8, x9, x11 get nothing
ONE_TO_ONE = [(f"x{i}", f"y{i}") for i in range(6)] + [
    ("x6", "y7"), ("x7", "y6"), ("x10", "y10"),
]
ONE_TO_MANY = [(x, y) for x in ("x0", "x1") for y in ("y0", "y1")] + ONE_TO_ONE[2:]


def _world(identified):
    """The pair, the holdout set ``identified`` and the truth."""
    pair = NetworkPair(*(
        make_network([f"{v}{i}" for i in range(N)], []) for v in "xy"
    ))
    return pair, make_match_set(identified, pair), make_match_set(TRUTH, pair)


WORLDS = {"one-to-one": ONE_TO_ONE, "one-to-many": ONE_TO_MANY}


@pytest.fixture(scope="module", params=sorted(WORLDS))
def world(request):
    return _world(WORLDS[request.param])


def _wrong_side(report, truth: float) -> bool:
    if report.lower_bound is not None:
        return report.lower_bound > truth
    return report.upper_bound < truth


def _audit(certify, samples, truths):
    """The failure share of each bound id over ``samples`` and the tokens
    of the samples that raise. ``certify(sample)`` returns reports."""
    failed, seen, raised = Counter(), Counter(), Counter()
    for sample in samples:
        try:
            reports = certify(sample)
        except MatchcertError as e:
            raised[str(e).split(":")[0]] += 1
            continue
        for r in reports:
            assert r.delta_total == pytest.approx(DELTA)
            seen[r.bound_id] += 1
            failed[r.bound_id] += _wrong_side(r, truths[r.bound_id])
    shares = {b: Fraction(failed[b], len(samples)) for b in seen}
    return shares, raised


@pytest.mark.parametrize("method", list(BoundMethod), ids=lambda m: m.value)
@pytest.mark.parametrize("size", SIZES)
def test_holdout_query_certificates_hold_exactly(world, method, size):
    pair, m_hat, truth = world
    precision, recall = true_query_metrics(pair, m_hat, truth)
    truths = {
        "holdout-query-precision": precision,
        "holdout-query-recall": recall,
        "holdout-query-error-rate": true_error_rate(pair, m_hat, truth),
    }

    def certify(s_x):
        inp = QueryValidationInput(pair, m_hat, s_x, truth, method, DELTA)
        return [*holdout_query_bounds(inp), error_rate_bounds(inp)]

    samples = list(itertools.combinations(pair.x_net.index.ids, size))
    shares, raised = _audit(certify, samples, truths)
    assert not raised, raised  # in particular, no method-requires-binary
    assert set(shares) == set(truths)
    assert all(share <= DELTA for share in shares.values()), shares


def _audit_batch_recall(world, method, size, **population):
    pair, m_hat, truth = world
    truths = {"holdout-batch-recall": true_batch_metrics(pair, m_hat, truth)[1]}

    def certify(s_m):
        inp = BatchValidationInput(
            pair, m_hat, make_match_set(s_m, pair), ("x0",), truth, method, DELTA,
            **population,
        )
        return [holdout_batch_recall(inp)]

    shares, raised = _audit(certify, list(itertools.combinations(TRUTH, size)), truths)
    assert not raised, raised
    assert all(share <= DELTA for share in shares.values()), shares


@pytest.mark.parametrize("method", list(BoundMethod), ids=lambda m: m.value)
@pytest.mark.parametrize("size", SIZES)
def test_holdout_batch_recall_holds_exactly(world, method, size):
    _audit_batch_recall(world, method, size, m_size=len(TRUTH))


@pytest.mark.parametrize("k_y", [1, 2])
@pytest.mark.parametrize("method", list(BoundMethod), ids=lambda m: m.value)
@pytest.mark.parametrize("size", SIZES)
def test_holdout_batch_recall_holds_exactly_without_m_size(world, method, size, k_y):
    # the recall term stands in k_y·|X|, 12 or 24, for |M| = 10
    _audit_batch_recall(world, method, size, k_y=k_y)


# right on x0..x8, wrong on x10, nothing for x9 and x11
NEAR = [(f"x{i}", f"y{i}") for i in range(9)] + [("x10", "y10")]
PRECISION_WORLDS = {**WORLDS, "near": NEAR}


def _classes(population, size, count):
    """The samples of ``size`` from ``population``, grouped by
    ``count(sample)``: {count: [class size, first member, last member]}."""
    classes = {}
    for sample in itertools.combinations(population, size):
        group = classes.setdefault(count(sample), [0, sample, sample])
        group[0] += 1
        group[2] = sample
    return classes


def _read(report) -> dict:
    """A report's fields but its digest, which hashes the samples."""
    return {k: v for k, v in report.to_json_dict().items() if k != "inputs_digest"}


@pytest.mark.parametrize("method", list(BoundMethod), ids=lambda m: m.value)
@pytest.mark.parametrize("name", sorted(PRECISION_WORLDS))
def test_holdout_batch_precision_holds_exactly(name, method):
    pair, m_hat, truth = _world(PRECISION_WORLDS[name])
    precision = true_batch_metrics(pair, m_hat, truth)[0]
    identified, per_x = m_hat.pairs, by_x(truth)

    def certify(s_m, s_x):
        inp = BatchValidationInput(
            pair, m_hat, make_match_set(s_m, pair), s_x, truth, method, DELTA,
            m_size=len(TRUTH),
        )
        return holdout_batch_precision(inp)

    def share(size_m, size_x):
        """The exact share of (s_m, s_x) whose report lies above the truth,
        and every class pair's report."""
        by_hits = _classes(TRUTH, size_m, lambda s: len(identified.intersection(s)))
        by_found = _classes(
            pair.x_net.index.ids, size_x, lambda s: sum(len(per_x.get(x, ())) for x in s)
        )
        failed, reports = Fraction(0), []
        for n_m, first_m, last_m in by_hits.values():
            for n_x, first_x, last_x in by_found.values():
                report = certify(first_m, first_x)
                assert _read(certify(last_m, last_x)) == _read(report)
                assert report.delta_total == pytest.approx(DELTA)
                reports.append(report)
                failed += (report.lower_bound > precision) * n_m * n_x
        total = math.comb(len(TRUTH), size_m) * math.comb(N, size_x)
        return failed / total, reports

    shares = {(m, x): share(m, x)[0] for m in SIZES for x in SIZES}
    assert all(s <= DELTA for s in shares.values()), shares
    # At census sizes every term may sit exactly at its truth, and the
    # product of the terms can then exceed the truth by rounding alone;
    # the report's step toward the safe side keeps it at or below.
    _, census = share(len(TRUTH), N)
    assert all(r.lower_bound <= precision for r in census)
