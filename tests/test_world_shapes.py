"""Every one-to-one world shape of 6 nodes, and of 7 nodes at every sample
size under the exact method, and every world of 4 nodes with a two-match
holdout node, and of 7 nodes with only such nodes, at every sample size,
keeps each holdout query certificate's exact failure share at most delta,
and every world of up to 10 actual matches keeps the batch s_m recall
term's at most its delta (ROADMAP item 1(b)); see ``world_shapes`` for the
enumeration, and run it there for up to 8 nodes."""

import itertools

import pytest

from matchcert.batch import true_batch_metrics
from matchcert.bounds import BoundMethod
from matchcert.graphs import make_match_set
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
    RECALL_DELTAS,
    STAND_IN_EXTRA,
    TYPES,
    batch_recall_shares,
    batch_truths,
    build_world,
    classes,
    compositions,
    exact_truths,
    member,
    recall_world,
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
    pair, m_hat, truth, by_type = build_world(counts)
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
    pair, m_hat, truth, by_type = build_world((0, 0, 0, 3, 3))
    for k in ((0, 0, 0, 2, 1), (0, 0, 0, 0, 3)):
        inp = QueryValidationInput(
            pair, m_hat, member(by_type, k), truth, BoundMethod.HOEFFDING, DELTA
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


def test_batch_recall_term_holds_exactly_in_every_world_of_ten_matches():
    worst = batch_recall_shares(10)
    populations = 1 + len(STAND_IN_EXTRA)
    assert len(worst) == populations * len(BoundMethod) * len(RECALL_DELTAS)
    assert all(share <= delta for (_, _, delta), (share, *_) in worst.items()), worst
    # with the true |M| the exact method comes within a factor 2 of delta,
    # so a bound that over-reached would show
    for delta in RECALL_DELTAS:
        assert worst["m_size", BoundMethod.HYPERGEOMETRIC, delta][0] > delta / 2


def test_batch_precision_is_recall_times_density_over_identified():
    # precision = recall·|M| / |M̂| and |M| = |X|·density, so the precision
    # and complete certificates compose their recall and density terms
    checked = 0
    for n_x in range(1, 7):
        for m in range(1, n_x + 1):
            pair, actual = recall_world(n_x, m)
            xs, ys = pair.x_net.index.ids, pair.y_net.index.ids
            # the first j actual matches, pairs of the nodes without one, and
            # a pair that gives x0 a wrong match
            for j, extra, swap in itertools.product(
                range(m + 1), range(n_x - m + 1), (False, True)
            ):
                identified = actual[:j] + list(zip(xs[m:], ys[m:]))[:extra]
                identified += [(xs[0], ys[-1])] if swap and n_x > 1 else []
                if not identified:
                    continue
                exact = batch_truths(n_x, actual, identified)
                recall, precision, density = (
                    exact[k] for k in ("recall", "precision", "density")
                )
                assert precision == recall * n_x * density / len(identified)
                assert m == n_x * density
                m_hat = make_match_set(identified, pair)
                truth = make_match_set(actual, pair)
                assert true_batch_metrics(pair, m_hat, truth) == (
                    float(precision), float(recall)
                )
                checked += 1
    assert checked > 150
