"""Every one-to-one world shape of 6 nodes, and of 7 nodes at every sample
size under the exact method, and every world of 4 nodes with a two-match
holdout node, and of 7 nodes with only such nodes, at every sample size,
keeps each holdout query certificate's exact failure share at most delta
(ROADMAP item 1(b)); see ``world_shapes`` for the enumeration, and run it
there for up to 8 nodes."""

import itertools

import pytest

from matchcert.bounds import BoundMethod
from matchcert.graphs import make_match_set
from matchcert.matchers import run_batch
from matchcert.query import (
    QueryValidationInput,
    query_reports,
    true_error_rate,
    true_query_metrics,
)
from world_shapes import (
    BOUND_IDS,
    DELTA,
    ONE_TO_ONE,
    TYPES,
    build_world,
    classes,
    compositions,
    exact_truths,
    member,
    statements,
    world_shares,
)

N = 6
SIZES = (2, 3, 4)
WORLDS = list(compositions(N, ONE_TO_ONE))
# every world of 4 nodes with a node of type 5, 6 or 7, and every world
# of 7 nodes that has only such nodes
TWO_MATCH = [c for c in compositions(4) if any(c[ONE_TO_ONE:])]
ONLY_TWO_MATCH = [(0,) * ONE_TO_ONE + c for c in compositions(7, len(TYPES) - ONE_TO_ONE)]


def test_every_world_shape_is_enumerated():
    assert len(WORLDS) == len(set(WORLDS)) == 210
    assert all(len(c) == 5 and sum(c) == N and min(c) >= 0 for c in WORLDS)
    assert len(TWO_MATCH) == 330 - 70  # C(11, 7) less the one-to-one ones
    # the classes of a size partition its samples
    for counts in ((6, 0, 0, 0, 0), (1, 2, 0, 3, 0), (2, 1, 1, 1, 1)):
        for size in range(N + 1):
            total = sum(weight for _, weight in classes(counts, size))
            assert total == len(list(itertools.combinations(range(N), size)))


@pytest.mark.parametrize(
    "counts",
    [
        (1, 1, 1, 1, 2),
        (0, 2, 0, 3, 1),
        (3, 0, 2, 0, 1),
        (0, 0, 0, 2, 4),
        (0, 0, 3, 0, 3),
        (1, 0, 0, 1, 0, 2, 1, 1),
        (0, 0, 0, 0, 1, 3, 0, 0),
        (0, 1, 0, 0, 0, 0, 2, 2),
    ],
)
def test_worlds_and_truths_are_as_declared(counts):
    pair, holdout, actual_for, by_type = build_world(counts)
    m_hat = run_batch(holdout, pair)
    truth = make_match_set([(x, y) for x, ys in actual_for.items() for y in ys], pair)
    assert [len(nodes) for nodes in by_type] == list(counts)
    assert len(m_hat.pairs) == sum(len(TYPES[t][0]) * c for t, c in enumerate(counts))
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


def test_every_seven_node_world_holds_exactly_at_every_size():
    # n = 7 is the least n at which a recall term that kept the exact
    # method at the stand-in |X| fails (world (5, 0, 0, 1, 1), s = 6)
    method = BoundMethod.HYPERGEOMETRIC
    worst = {}
    for counts in compositions(7, ONE_TO_ONE):
        for (bound_id, _, _), share in world_shares(counts, range(1, 8), (method,)).items():
            worst[bound_id] = max(worst.get(bound_id, share), share)
    assert set(worst) == set(BOUND_IDS)
    assert all(share <= DELTA for share in worst.values()), worst


@pytest.mark.parametrize(
    "worlds, n, check", [(TWO_MATCH, 4, True), (ONLY_TWO_MATCH, 7, False)], ids=["4", "7"]
)
def test_every_two_match_world_holds_exactly_at_every_size(worlds, n, check):
    # at 7 nodes a sample's bounds are tight enough that reading p(x) = 1
    # for a node with its actual match and a wrong one under-covers
    worst = {}
    for counts in worlds:
        shares = world_shares(counts, range(1, n + 1), check=check)
        for (bound_id, method, _), share in shares.items():
            key = bound_id, method
            worst[key] = max(worst.get(key, share), share)
    assert {bound_id for bound_id, _ in worst} == set(BOUND_IDS)
    assert all(share <= DELTA for share in worst.values()), worst


def test_sample_with_no_identified_node_gets_every_holdout_report():
    # three nodes with an actual match the matcher misses, three with
    # neither: precision has no usable node, and recall and the error rate
    # still certify
    pair, holdout, actual_for, by_type = build_world((0, 0, 0, 3, 3))
    for k in ((0, 0, 0, 2, 1), (0, 0, 0, 0, 3)):
        inp = QueryValidationInput(
            pair, holdout, member(by_type, k), actual_for, BoundMethod.HOEFFDING, DELTA
        )
        precision, recall, error = query_reports(inp)
        assert [r.bound_id for r in (precision, recall, error)] == list(BOUND_IDS)
        assert (precision.lower_bound, precision.flags) == (0.0, ("vacuous-denominator",))
        assert error.flags == () and 0.0 < error.upper_bound <= 1.0
        assert statements(inp) == {
            "holdout-query-precision": 0.0,
            "holdout-query-recall": recall.lower_bound,
            "holdout-query-error-rate": error.upper_bound,
        }
    # the last sample has no usable node for recall either
    assert (recall.lower_bound, recall.flags) == (0.0, ("vacuous-denominator",))
