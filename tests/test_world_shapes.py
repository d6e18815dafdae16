"""Every world shape of 6 nodes keeps each holdout query certificate's
exact failure share at most delta (ROADMAP item 1(b)); see
``world_shapes`` for the enumeration, and run it there for up to 10
nodes."""

import itertools

import pytest

from matchcert.bounds import BoundMethod
from matchcert.graphs import make_match_set
from matchcert.matchers import run_batch
from matchcert.query import true_error_rate, true_query_metrics
from world_shapes import (
    BOUND_IDS,
    DELTA,
    build_world,
    classes,
    compositions,
    exact_truths,
    world_shares,
)

N = 6
SIZES = (2, 3, 4)
WORLDS = list(compositions(N))


def test_every_world_shape_is_enumerated():
    assert len(WORLDS) == len(set(WORLDS)) == 210
    assert all(len(c) == 5 and sum(c) == N and min(c) >= 0 for c in WORLDS)
    # the classes of a size partition its samples
    for counts in ((6, 0, 0, 0, 0), (1, 2, 0, 3, 0), (2, 1, 1, 1, 1)):
        for size in range(N + 1):
            total = sum(weight for _, weight in classes(counts, size))
            assert total == len(list(itertools.combinations(range(N), size)))


@pytest.mark.parametrize(
    "counts", [(1, 1, 1, 1, 2), (0, 2, 0, 3, 1), (3, 0, 2, 0, 1), (0, 0, 0, 2, 4), (0, 0, 3, 0, 3)]
)
def test_worlds_and_truths_are_as_declared(counts):
    pair, holdout, actual_for, by_type = build_world(counts)
    m_hat = run_batch(holdout, pair)
    truth = make_match_set([(x, y) for x, ys in actual_for.items() for y in ys], pair)
    assert [len(nodes) for nodes in by_type] == list(counts)
    assert len(m_hat.pairs) == sum(counts[:3])
    precision, recall = true_query_metrics(pair, m_hat, truth)
    oracle = {
        "holdout-query-precision": precision,
        "holdout-query-recall": recall,
        "holdout-query-error-rate": true_error_rate(pair, m_hat, truth),
    }
    # the oracle's float truths are the exact ones, correctly rounded
    assert {b: float(t) for b, t in exact_truths(counts).items()} == {
        b: t for b, t in oracle.items() if t is not None
    }


@pytest.mark.parametrize("method", list(BoundMethod), ids=lambda m: m.value)
def test_every_world_shape_holds_exactly(method):
    worst = {}
    for counts in WORLDS:
        shares = world_shares(counts, SIZES, (method,), check=True)
        for (bound_id, _, _), share in shares.items():
            worst[bound_id] = max(worst.get(bound_id, share), share)
    assert set(worst) == set(BOUND_IDS)
    assert all(share <= DELTA for share in worst.values()), worst
