import gc
import itertools
import math
import random
import weakref
from dataclasses import fields, replace
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    disagreement_precision,
    disagreement_recall,
    single_node_error,
    single_node_precision,
    single_node_recall,
    true_batch_metrics_reference,
    true_error_rate_reference,
    true_query_metrics_reference,
)

from matchcert.batch import BatchValidationInput, batch_reports, true_batch_metrics
from matchcert.bounds import BoundMethod, Confidence, bound_term
from matchcert.errors import MatchcertError
from matchcert.graphs import (
    NetworkPair,
    by_x,
    make_match_set,
    make_network,
)
from matchcert.matchers import (
    VERIFIED_SAMPLE,
    MatcherConfig,
    build_matcher,
    run_batch,
)
from matchcert.query import (
    PerNodeStats,
    QueryValidationInput,
    complete_query_precision,
    complete_query_recall,
    compute_node_stats,
    error_rate_bounds,
    exact_metrics,
    holdout_query_bounds,
    query_reports,
    true_error_rate,
    true_query_metrics,
)
from matchcert.reports import ValidationReport, digest_of
from matchcert.synth import ErdosRenyi, GeneratorConfig, generate_pair

HG = BoundMethod.HYPERGEOMETRIC
HOEFF = BoundMethod.HOEFFDING


def view(*ys):
    return frozenset(ys)


class TestPerNodeStats:
    def test_precision_single_correct(self):
        assert single_node_precision(view("y1"), view("y1")) == 1.0

    def test_precision_half(self):
        assert single_node_precision(view("y1", "y2"), view("y1")) == 0.5

    def test_precision_undefined(self):
        assert single_node_precision(view(), view("y1")) is None

    def test_recall_single_correct(self):
        assert single_node_recall(view("y1"), view("y1")) == 1.0

    def test_recall_half(self):
        assert single_node_recall(view("y1"), view("y1", "y2")) == 0.5

    def test_recall_undefined(self):
        assert single_node_recall(view("y1"), view()) is None

    def test_error_cases(self):
        assert single_node_error(view("y1"), view("y1")) == 0
        assert single_node_error(view(), view()) == 0
        assert single_node_error(view("y1", "y2"), view("y1")) == 1

    def test_disagreement_recall(self):
        assert disagreement_recall(frozenset({"a"}), frozenset()) == 1.0
        assert disagreement_recall(frozenset({"a"}), frozenset({"a", "b"})) == 0.0
        assert disagreement_recall(frozenset(), frozenset({"b"})) == 0.0

    def test_disagreement_precision_values(self):
        # holdout-only node
        assert disagreement_precision(frozenset({"y1"}), frozenset()) == 1.0
        # both speak, one extra holdout match over a single complete match
        assert (
            disagreement_precision(frozenset({"y1", "y2"}), frozenset({"y1"})) == 2.0
        )
        # agreement and silence are free
        assert disagreement_precision(frozenset({"y1"}), frozenset({"y1"})) == 0.0
        assert disagreement_precision(frozenset(), frozenset()) == 0.0
        # complete-only node costs nothing for precision damage
        assert disagreement_precision(frozenset(), frozenset({"y9"})) == 0.0


def fixed_matcher(pairs):
    """A matcher that outputs exactly `pairs`, which give each x and each y
    at most one match: explicit seeds, a threshold no count can reach, one
    iteration."""
    return build_matcher(
        MatcherConfig("percolation", seeds=tuple(pairs), threshold=99, max_iters=1)
    )


def fixed_world(pair, *sets):
    """``pair`` with node attributes under which the i-th of the returned
    matchers, attribute-exact on the key ``m<i>``, identifies exactly
    ``sets[i]``, where an x may have several matches. Each set is a union
    of complete bipartite blocks, whose nodes share one value."""
    attrs_x, attrs_y = {}, {}
    handles = []
    for i, pairs in enumerate(sets):
        key = f"m{i}"
        block = {y: min(x for x, b in pairs if b == y) for _, y in pairs}
        for x, y in pairs:
            attrs_x.setdefault(x, {})[key] = block[y]
            attrs_y.setdefault(y, {})[key] = block[y]
        handles.append(build_matcher(MatcherConfig("attribute-exact", attr_key=key)))
    world = NetworkPair(
        make_network(pair.x_net.nodes, pair.x_net.edges, attrs_x),
        make_network(pair.y_net.nodes, pair.y_net.edges, attrs_y),
    )
    for pairs, handle in zip(sets, handles):
        assert run_batch(handle, world).pairs == set(pairs)
    return world, handles


@pytest.fixture(scope="module")
def tiny():
    x = make_network([f"x{i}" for i in range(8)], [("x0", "x1")])
    y = make_network([f"y{i}" for i in range(8)], [("y0", "y1")])
    return NetworkPair(x, y)


def tiny_input(pair, holdout, s_x, actual_for, delta, complete=None,
               s_x_prime=(), method=HOEFF):
    return QueryValidationInput(
        pair=pair,
        holdout=holdout,
        s_x=tuple(s_x),
        actual_for=actual_for,
        method=method,
        delta=delta,
        complete=complete,
        s_x_prime=tuple(s_x_prime),
    )


class TestHoldoutQuery:
    def test_perfect_matcher_closed_form(self, tiny):
        actual = {f"x{i}": frozenset({f"y{i}"}) for i in range(8)}
        holdout = fixed_matcher([(f"x{i}", f"y{i}") for i in range(8)])
        s_x = [f"x{i}" for i in range(8)]
        inp = tiny_input(tiny, holdout, s_x, actual, 0.05)
        p_rep, r_rep = holdout_query_bounds(inp)
        want = 1.0 - math.sqrt(math.log(1 / 0.05) / (2 * 8))
        assert p_rep.lower_bound == pytest.approx(want, abs=1e-12)
        assert r_rep.lower_bound == pytest.approx(want, abs=1e-12)

    def test_half_wrong_closed_form(self, tiny):
        # four sampled nodes fully right, four fully wrong: mean 0.5 and
        # Hoeffding slack sqrt(ln 20 / 16)
        actual = {f"x{i}": frozenset({f"y{i}"}) for i in range(8)}
        pairs = [(f"x{i}", f"y{i}") for i in range(4)]
        pairs += [(f"x{i}", f"y{(i + 1) % 8}") for i in range(4, 8)]
        world, (holdout,) = fixed_world(tiny, pairs)  # x0 and x7 match y0
        s_x = [f"x{i}" for i in range(8)]
        inp = tiny_input(world, holdout, s_x, actual, 0.05)
        p_rep, r_rep = holdout_query_bounds(inp)
        want = 0.5 - math.sqrt(math.log(20) / 16)
        assert p_rep.lower_bound == pytest.approx(max(0.0, want), abs=1e-12)
        assert r_rep.lower_bound == pytest.approx(max(0.0, want), abs=1e-12)

    def test_no_usable_sample(self, tiny):
        # no sampled node has identified or actual matches: both bounds
        # read 0, flagged, and the error rate still certifies
        actual = {f"x{i}": frozenset() for i in range(8)}
        holdout = fixed_matcher([])
        inp = tiny_input(tiny, holdout, ["x0", "x1"], actual, 0.05)
        precision, recall, error = query_reports(inp)
        for rep in (precision, recall):
            assert rep.lower_bound == 0.0
            assert rep.flags == ("vacuous-denominator",)
            assert rep.terms["usable_nodes"] == 0.0
            assert not rep.term_methods
        assert precision.terms == {"usable_nodes": 0.0, "identified_nodes": 0.0}
        assert recall.terms == {"usable_nodes": 0.0}
        assert (precision, recall) == holdout_query_bounds(inp)
        assert error.flags == () and error.upper_bound < 1.0

    def test_unknown_sampled_node(self, tiny):
        actual = {"x0": frozenset({"y0"}), "zzz": frozenset()}
        holdout = fixed_matcher([("x0", "y0")])
        for s_x, s_x_prime in ((["x0", "zzz"], ()), (["x0"], ["zzz"])):
            inp = tiny_input(tiny, holdout, s_x, actual, 0.05,
                             s_x_prime=s_x_prime)
            with pytest.raises(MatchcertError, match="unknown-node"):
                holdout_query_bounds(inp)

    def test_fractional_values_downgrade_exact_method(self, tiny):
        # the holdout matcher gives x0 two matches, so p(x) need not be 0/1
        # on D = {x0, x1}: the precision term gets Hoeffding whatever s_x
        # holds, p(x0) = 0.5 or p(x1) = 1.0
        actual = {"x0": frozenset({"y0"}), "x1": frozenset({"y2"})}
        world, (holdout,) = fixed_world(
            tiny, [("x0", "y0"), ("x0", "y1"), ("x1", "y2")]
        )
        for s_x, p in ((["x0"], 0.5), (["x1"], 1.0)):
            inp = tiny_input(world, holdout, s_x, actual, 0.05, method=HG)
            precision, recall = holdout_query_bounds(inp)
            assert precision.term_methods["precision_term"] == "hoeffding"
            want = bound_term(2, [p], HOEFF, Confidence(0.05), "lower")
            assert precision.terms["precision_term"] == want.value
            assert recall.term_methods["recall_term"] == "hoeffding"


class TestCompleteQueryRecall:
    def test_reduces_to_holdout(self, tiny):
        actual = {f"x{i}": frozenset({f"y{i}"}) for i in range(8)}
        holdout = fixed_matcher([(f"x{i}", f"y{i}") for i in range(6)])
        complete = build_matcher(holdout.config, holdout.training_matches)
        s_x = [f"x{i}" for i in range(8)]
        # the complete certificate's recall term at 0.04 / 2, as the holdout's
        inp2 = tiny_input(tiny, holdout, s_x, actual, 0.04,
                          complete=complete, s_x_prime=("x0",))
        inp1 = tiny_input(tiny, holdout, s_x, actual, 0.02)
        rep = complete_query_recall(inp2)
        _, holdout_rep = holdout_query_bounds(inp1)
        assert rep.lower_bound == holdout_rep.lower_bound
        assert rep.terms["disagreement"] == 0.0
        assert rep.flags == ()

    def test_total_disagreement_clamps_to_zero(self, tiny):
        actual = {f"x{i}": frozenset({f"y{i}"}) for i in range(8)}
        holdout = fixed_matcher([(f"x{i}", f"y{i}") for i in range(8)])
        complete = fixed_matcher([])  # drops everything
        s_x = [f"x{i}" for i in range(4)]
        inp = tiny_input(tiny, holdout, s_x, actual, 0.06, complete=complete)
        rep = complete_query_recall(inp)
        assert rep.lower_bound == 0.0
        assert rep.terms["disagreement"] == 1.0  # every x of X, counted

    def test_prime_sample_not_needed(self, tiny):
        # a complete input without s_x' certifies, with the same bounds as
        # with one: no certificate reads s_x'
        actual = {"x0": frozenset({"y0"}), "x1": frozenset({"y1"})}
        holdout = fixed_matcher([("x0", "y0"), ("x1", "y1")])
        complete = fixed_matcher([("x0", "y1")])
        inp = tiny_input(tiny, holdout, ["x0", "x1"], actual, 0.06, complete=complete)
        with_prime = replace(inp, s_x_prime=("x0", "x5", "x7"))
        reports, reports_prime = query_reports(inp), query_reports(with_prime)
        assert len(reports) == 6
        for a, b in zip(reports, reports_prime):
            assert (a.bound_id, a.lower_bound, a.upper_bound) == (
                b.bound_id, b.lower_bound, b.upper_bound
            )
            assert (a.terms, a.term_methods, a.flags) == (b.terms, b.term_methods, b.flags)

    def test_complete_matcher_required(self, tiny):
        actual = {"x0": frozenset({"y0"})}
        holdout = fixed_matcher([("x0", "y0")])
        for certify in (complete_query_recall, complete_query_precision):
            inp = tiny_input(tiny, holdout, ["x0"], actual,
                             0.05, s_x_prime=("x1",))
            with pytest.raises(MatchcertError) as info:
                certify(inp)
            assert str(info.value) == "missing-complete: no complete matcher supplied"


def _dp_scan(holdout_pairs, complete_pairs, method=HOEFF):
    """complete-query-precision at delta 0.2 on a 10-node X whose matchers
    identify the given pairs, over all 252 samples s_x' of size 5: the set
    of (dp, flags) the reports carry."""
    n = 10
    pair, (holdout, complete) = fixed_world(
        NetworkPair(
            make_network([f"x{i}" for i in range(n)], []),
            make_network([f"y{i}" for i in range(2 * n)], []),
        ),
        holdout_pairs,
        complete_pairs,
    )
    s_x = [f"x{i}" for i in range(n)]
    actual = {x: frozenset({f"y{i}"}) for i, x in enumerate(s_x)}
    reports = [
        complete_query_precision(
            tiny_input(pair, holdout, s_x, actual, 0.2, complete=complete,
                       s_x_prime=s_prime, method=method)
        )
        for s_prime in itertools.combinations(s_x, 5)
    ]
    return {(rep.terms["dp"], rep.flags) for rep in reports}


class TestCompleteQueryPrecision:
    def test_reduces_to_holdout(self, tiny):
        actual = {f"x{i}": frozenset({f"y{i}"}) for i in range(8)}
        holdout = fixed_matcher([(f"x{i}", f"y{i}") for i in range(6)])
        complete = build_matcher(holdout.config, holdout.training_matches)
        s_x = [f"x{i}" for i in range(8)]
        inp = tiny_input(tiny, holdout, s_x, actual, 0.05,
                         complete=complete, s_x_prime=s_x)
        rep = complete_query_precision(inp)
        assert rep.flags == ()
        assert rep.terms["dp"] == 0.0
        assert rep.terms["holdout_fraction"] == rep.terms["complete_fraction"] == 6 / 8
        holdout_rep, _ = holdout_query_bounds(replace(inp, complete=None))
        assert 0.0 < holdout_rep.lower_bound < 1.0  # so both step one float down
        assert rep.lower_bound == holdout_rep.lower_bound
        assert rep.delta_parts == holdout_rep.delta_parts == (0.05,)

    def test_dp_above_two_counts_in_full(self, tiny):
        actual = {f"x{i}": frozenset({f"y{i}"}) for i in range(8)}
        world, (holdout, complete) = fixed_world(
            tiny,
            [("x0", "y0"), ("x0", "y1"), ("x0", "y2"), ("x1", "y3")],
            [("x0", "y0"), ("x1", "y3")],
        )
        # d_p(x0) = 1 + 2/1 = 3 > 2, and 0 elsewhere
        s_x = [f"x{i}" for i in range(8)]
        inp = tiny_input(world, holdout, s_x, actual,
                         0.05,
                         complete=complete, s_x_prime=s_x)
        rep = complete_query_precision(inp)
        assert rep.flags == ()
        assert rep.terms["dp"] == 3.0 / 8
        assert set(rep.term_methods) == {"precision_term"}

    @pytest.mark.parametrize("method", [HOEFF, HG])
    def test_dp_counts_nodes_outside_the_samples(self, tiny, method):
        # the holdout matcher gives x0 three matches and the complete one
        # one of them: d_p(x0) = 1 + 2/1 = 3, and x0 is in no sample. The
        # census counts it all the same.
        world, (holdout, complete) = fixed_world(
            tiny,
            [("x0", "y0"), ("x0", "y1"), ("x0", "y2")]
            + [(f"x{i}", f"y{i}") for i in range(3, 6)],
            [("x0", "y0")] + [(f"x{i}", f"y{i}") for i in range(3, 6)],
        )
        s_x = ["x3", "x4", "x5"]
        actual = {x: frozenset({f"y{x[1:]}"}) for x in s_x}
        inp = tiny_input(world, holdout, s_x, actual,
                         0.05,
                         complete=complete, s_x_prime=("x6", "x7"),
                         method=method)
        rep = complete_query_precision(inp)
        assert rep.terms["dp"] == 3.0 / 8
        assert (rep.terms["holdout_fraction"], rep.terms["complete_fraction"]) == (
            4 / 8, 4 / 8
        )
        # P_C >= (4 * P_H - 3) / 4, with P_H's bound at the full delta
        precision = rep.terms["precision_term"]
        assert precision == bound_term(
            4, [1.0, 1.0, 1.0], HOEFF, Confidence(0.05), "lower"
        ).value
        assert rep.lower_bound == max(0.0, precision * (4 / 4) - 3.0 / 4)

    def test_dp_mean_is_exact_on_every_sample(self):
        # d_p is 6 on x0 and x1 (five holdout-only matches over one complete
        # match) and 2 on x2..x9 (one match each, never the same), so its
        # mean over X is 2.8. A d_p bound from s_x' needed a range fixed
        # before the sample was read; the census reads 2.8 on every sample.
        wide = [(x, f"y{j}") for x in ("x0", "x1") for j in range(1, 6)]
        seen = _dp_scan(
            wide + [(f"x{i}", f"y{i + 4}") for i in range(2, 10)],
            [("x0", "y0"), ("x1", "y0")]
            + [(f"x{i}", f"y{10 + i}") for i in range(2, 10)],
        )
        assert seen == {((6.0 + 6.0 + 2.0 * 8) / 10, ())}

    @pytest.mark.parametrize("method", list(BoundMethod))
    def test_one_to_one_dp_mean_is_exact(self, method):
        # a one-to-one holdout matcher: d_p is 2 on x0 and x1 (the complete
        # matcher picks another y), 1 on x2 (it picks none) and 0 on x3..x9
        # (it agrees), so its mean over X is 0.5
        pairs = [(f"x{i}", f"y{i}") for i in range(10)]
        seen = _dp_scan(
            pairs, [("x0", "y10"), ("x1", "y11")] + pairs[3:], method=method
        )
        assert seen == {(0.5, ())}

    def test_no_usable_precision_sample_is_vacuous(self, tiny):
        actual = {f"x{i}": frozenset({f"y{i}"}) for i in range(8)}
        holdout = fixed_matcher([])
        complete = fixed_matcher([("x0", "y0")])
        inp = tiny_input(tiny, holdout, ["x1", "x2"], actual,
                         0.05,
                         complete=complete, s_x_prime=("x0",))
        rep = complete_query_precision(inp)
        assert rep.lower_bound == 0.0
        assert rep.flags == ("vacuous-denominator",)
        assert rep.terms["usable_nodes"] == 0.0
        assert "precision_term" not in rep.terms
        # the recall certificates have usable nodes and still certify
        by_id = {r.bound_id: r for r in query_reports(inp)}
        assert by_id["complete-query-precision"] == rep
        for bound_id in ("holdout-query-recall", "complete-query-recall"):
            assert by_id[bound_id].flags == ()
            assert by_id[bound_id].terms["usable_nodes"] == 2.0


def _sized_world(n: int, d: int) -> tuple[NetworkPair, object]:
    """n nodes a side; the holdout matcher pairs x_i with y_i for i < d, so
    the nodes it identifies anything for are D = {x_0, ..., x_(d-1)}."""
    pair = NetworkPair(
        make_network([f"x{i}" for i in range(n)], []),
        make_network([f"y{i}" for i in range(n)] + ["y-wrong"], []),
    )
    return pair, fixed_matcher([(f"x{i}", f"y{i}") for i in range(d)])


class TestTermPopulationSize:
    """The holdout precision term is bounded at |D|, the number of nodes
    the holdout matcher identifies anything for, and the recall term, whose
    D has no known size, with a size-free family."""

    def test_precision_term_at_identified_size(self, tiny):
        holdout = fixed_matcher([(f"x{i}", f"y{i}") for i in range(5)])
        complete = fixed_matcher([(f"x{i}", f"y{i}") for i in range(4)])
        s_x = ["x0", "x1", "x2", "x6"]
        actual = {x: frozenset({f"y{x[1:]}"}) for x in s_x}
        inp = tiny_input(tiny, holdout, s_x, actual, 0.05,
                         method=HG)
        precision, recall = holdout_query_bounds(inp)
        want = bound_term(5, [1.0, 1.0, 1.0], HG, Confidence(0.05), "lower")
        assert precision.terms["precision_term"] == want.value
        assert precision.term_methods["precision_term"] == "hypergeometric-exact"
        assert precision.terms["identified_nodes"] == 5.0
        assert recall.term_methods["recall_term"] == "hoeffding"
        assert "identified_nodes" not in recall.terms

        full = query_reports(replace(inp, complete=complete,
                                     s_x_prime=("x3", "x4", "x7")))
        by_id = {rep.bound_id: rep for rep in full}
        prec_c = by_id["complete-query-precision"]
        want_c = bound_term(5, [1.0, 1.0, 1.0], HG, Confidence(0.05), "lower")
        assert prec_c.terms["precision_term"] == want_c.value
        assert prec_c.terms["identified_nodes"] == 5.0
        assert by_id["complete-query-recall"].term_methods["recall_term"] == "hoeffding"

    @pytest.mark.parametrize("method", [HG, HOEFF])
    def test_exact_scan_holds_at_delta(self, method):
        # s_x is a uniform s-subset of X (|X| = n); the s' sampled nodes in
        # D (|D| = d) carry k correct of the m correct nodes of D. The
        # precision (and recall) certificate's bound depends on (s', k)
        # only, so the failure probability of each term is an exact sum
        # over (s', k), here in integers over C(n, s). At s' = 0 no node is
        # usable and no bound is reported, so nothing can fail.
        delta = 0.05
        worst = {}
        for n in (20, 30):
            for d in range(1, n + 1):
                pair, holdout = _sized_world(n, d)
                for s in (5, 10, 15):
                    bounds = {}
                    for s_in in range(max(1, s - (n - d)), min(s, d) + 1):
                        s_x = [f"x{i}" for i in range(s_in)]
                        s_x += [f"x{i}" for i in range(d, d + s - s_in)]
                        for k in range(s_in + 1):
                            # outside D no actual matches, so D is also
                            # the set the recall term averages over
                            actual = {x: frozenset() for x in s_x}
                            actual.update(
                                {f"x{i}": frozenset({"y-wrong"}) for i in range(s_in)}
                            )
                            actual.update(
                                {f"x{i}": frozenset({f"y{i}"}) for i in range(k)}
                            )
                            inp = QueryValidationInput(
                                pair, holdout, tuple(s_x), actual, method, delta,
                            )
                            precision, recall = holdout_query_bounds(inp)
                            bounds[s_in, k] = (precision.lower_bound,
                                               recall.lower_bound)
                    total = math.comb(n, s)
                    for m in range(d + 1):
                        failed = [0, 0]
                        for (s_in, k), lbs in bounds.items():
                            ways = (math.comb(n - d, s - s_in) * math.comb(m, k)
                                    * math.comb(d - m, s_in - k))
                            for which, lb in enumerate(lbs):
                                if ways and lb > m / d:
                                    failed[which] += ways
                        for which, count in enumerate(failed):
                            if count * 20 > total:  # above delta = 1/20
                                worst[which, n, d, s, m] = count / total
        assert not worst, worst


class TestErrorRate:
    def test_perfect_matcher_slack_only(self, tiny):
        actual = {f"x{i}": frozenset({f"y{i}"}) for i in range(8)}
        holdout = fixed_matcher([(f"x{i}", f"y{i}") for i in range(8)])
        inp = tiny_input(tiny, holdout, [f"x{i}" for i in range(8)], actual,
                         0.05)
        rep = error_rate_bounds(inp)
        assert rep.upper_bound == pytest.approx(
            math.sqrt(math.log(20) / 16), abs=1e-12
        )
        assert rep.lower_bound is None

    def test_ten_percent_errors_closed_form(self):
        # 100 nodes sampled, 10 in error: upper = 0.1 + sqrt(ln 20 / 200)
        n = 100
        x = make_network([f"x{i}" for i in range(n)], [])
        y = make_network([f"y{i}" for i in range(n)], [])
        pair = NetworkPair(x, y)
        actual = {f"x{i}": frozenset({f"y{i}"}) for i in range(n)}
        good = [(f"x{i}", f"y{i}") for i in range(90)]
        holdout = fixed_matcher(good)  # the last 10 nodes get nothing
        inp = tiny_input(pair, holdout, [f"x{i}" for i in range(n)], actual,
                         0.05)
        rep = error_rate_bounds(inp)
        want = 0.1 + math.sqrt(math.log(20) / 200)
        assert rep.upper_bound == pytest.approx(want, abs=1e-12)

    def test_complete_equals_holdout_reduces(self, tiny):
        actual = {f"x{i}": frozenset({f"y{i}"}) for i in range(8)}
        holdout = fixed_matcher([(f"x{i}", f"y{i}") for i in range(5)])
        complete = build_matcher(holdout.config, holdout.training_matches)
        s_x = [f"x{i}" for i in range(8)]
        # the complete certificate's one term at the full delta, as the
        # holdout's
        rep_h = error_rate_bounds(
            tiny_input(tiny, holdout, s_x, actual, 0.03)
        )
        rep_c = error_rate_bounds(
            tiny_input(tiny, holdout, s_x, actual, 0.03,
                       complete=complete, s_x_prime=("x0",))
        )
        assert rep_c.upper_bound == rep_h.upper_bound
        assert rep_c.terms == {**rep_h.terms, "disagreement": 0.0}
        assert rep_c.flags == ()

    def test_complete_adds_disagreement(self, tiny):
        actual = {f"x{i}": frozenset({f"y{i}"}) for i in range(8)}
        holdout = fixed_matcher([(f"x{i}", f"y{i}") for i in range(8)])
        complete = fixed_matcher([(f"x{i}", f"y{i}") for i in range(6)])
        s_x = [f"x{i}" for i in range(8)]
        rep = error_rate_bounds(
            tiny_input(tiny, holdout, s_x, actual, 0.05,
                       complete=complete, s_x_prime=s_x)
        )
        assert rep.terms["disagreement"] == 0.25  # x6 and x7 of 8
        assert rep.delta_parts == (0.05,)
        assert rep.upper_bound == pytest.approx(
            min(1.0, rep.terms["error_term"] + rep.terms["disagreement"])
        )


def _ten_node_input(**kw):
    """A query input on a 10-node X with verified matches for every node."""
    names = [f"{i}" for i in range(10)]
    pair = NetworkPair(*(
        make_network([f"{side}{n}" for n in names], [],
                     {f"{side}{n}": {"uid": n} for n in names})
        for side in "xy"
    ))
    args = dict(
        pair=pair,
        holdout=build_matcher(MatcherConfig("attribute-exact", attr_key="uid")),
        s_x=("x0",),
        actual_for={f"x{n}": frozenset({f"y{n}"}) for n in names},
        method=HG,
        delta=0.05,
    )
    return QueryValidationInput(**{**args, **kw})


class TestDuplicateSampleItems:
    """A without-replacement sample has distinct items; a repeated one
    would count one verified node several times."""

    def test_repeated_s_x_node_rejected(self):
        # one verified node, counted eight times, would certify holdout
        # query precision >= 0.9 on a 10-node X
        inp = _ten_node_input(s_x=("x0",) * 8)
        for certify in (query_reports, holdout_query_bounds, compute_node_stats):
            with pytest.raises(MatchcertError) as info:
                certify(inp)
            assert str(info.value) == "duplicate-sample-item: s_x repeats 'x0'"

    def test_repeated_s_x_prime_node_rejected(self):
        complete = build_matcher(MatcherConfig("attribute-exact", attr_key="other"))
        inp = _ten_node_input(
            complete=complete, s_x_prime=("x1", "x2", "x3", "x2", "x1")
        )
        with pytest.raises(MatchcertError) as info:
            query_reports(inp)
        # the first item that repeats an earlier one, in input order
        assert str(info.value) == "duplicate-sample-item: s_x_prime repeats 'x2'"

    def test_overlap_between_the_two_samples_allowed(self):
        complete = build_matcher(MatcherConfig("attribute-exact", attr_key="other"))
        inp = _ten_node_input(
            s_x=("x0", "x1"), complete=complete, s_x_prime=("x1", "x0")
        )
        assert len(query_reports(inp)) == 6


class TestSampleChecks:
    """Batch and query inputs share one sampled-node check
    (``reports.sample_positions``), so a bad s_x gets one token in both."""

    @staticmethod
    def both_modes(inp):
        """(certify, input) for ``inp`` and a batch input with its s_x and
        actual_for."""
        batch_inp = BatchValidationInput(
            pair=inp.pair,
            m_hat_holdout=make_match_set([("x0", "y0")], inp.pair),
            s_m=(("x0", "y0"),),
            s_x=inp.s_x,
            actual_for=inp.actual_for,
            method=HG,
            delta=inp.delta,
            m_size=10,
        )
        return (batch_reports, batch_inp), (query_reports, inp)

    def test_stray_node_gets_the_same_token_in_both_modes(self):
        # "nope" is neither a node of X nor a key of actual_for
        inp = _ten_node_input(s_x=("x0", "nope"))
        for certify, of in self.both_modes(inp):
            with pytest.raises(MatchcertError) as info:
                certify(of)
            assert str(info.value) == "missing-actual: no verified matches for 'nope'"

    def test_verified_match_outside_y_gets_the_same_token_in_both_modes(self):
        # "nope" is not a node of Y; it would count as an actual match of x1
        # that the matcher missed
        inp = _ten_node_input(s_x=("x0", "x1", "x2"))
        inp = replace(inp, actual_for={**inp.actual_for, "x1": frozenset({"nope"})})
        certifiers = (*self.both_modes(inp), (holdout_query_bounds, inp),
                      (compute_node_stats, inp))
        error = "unknown-node: actual_for pair ('x1', 'nope')"
        for certify, of in certifiers:
            with pytest.raises(MatchcertError) as info:
                certify(of)
            assert str(info.value) == error
        # among several bad matches the error names the first in id order,
        # in both modes, after a node with two good matches
        bad = frozenset({"zz", "nope", "y1", "ghost"})
        actual = {**inp.actual_for, "x0": frozenset({"y3", "y0"}), "x1": bad}
        for certify, of in self.both_modes(replace(inp, actual_for=actual)):
            with pytest.raises(MatchcertError) as info:
                certify(of)
            assert str(info.value) == "unknown-node: actual_for pair ('x1', 'ghost')"

    def test_identity_verified_match_rejected_in_self_match_mode(self):
        net = make_network([f"n{i}" for i in range(4)], [])
        pair = NetworkPair(net, net, self_match_mode=True)
        holdout = fixed_matcher([("n0", "n1")])
        actual = {"n0": frozenset({"n1"}), "n2": frozenset({"n2", "n3"})}
        inp = tiny_input(pair, holdout, ["n0", "n2"], actual, 0.05)
        for certify in (query_reports, compute_node_stats):
            with pytest.raises(MatchcertError) as info:
                certify(inp)
            assert str(info.value) == "identity-pair-forbidden: ('n2', 'n2')"


class TestQueryReports:
    def test_holdout_only_without_complete_matcher(self, tiny):
        actual = {f"x{i}": frozenset({f"y{i}"}) for i in range(8)}
        holdout = fixed_matcher([(f"x{i}", f"y{i}") for i in range(6)])
        s_x = [f"x{i}" for i in range(8)]
        reports = query_reports(
            tiny_input(tiny, holdout, s_x, actual, 0.05)
        )
        assert [r.bound_id for r in reports] == [
            "holdout-query-precision",
            "holdout-query-recall",
            "holdout-query-error-rate",
        ]
        assert all(len(r.delta_parts) == 1 for r in reports)

    def test_reordered_conflicting_seeds_are_another_function(self):
        # percolation keeps the first of two seeds that share x0: from
        # (x0, y0) it spreads along the path, from (x0, yc) it cannot
        x = make_network(["x0", "x1", "x2"], [("x0", "x1"), ("x1", "x2")])
        y = make_network(["y0", "y1", "y2", "yc"], [("y0", "y1"), ("y1", "y2")])
        pair = NetworkPair(x, y)
        config = MatcherConfig("percolation", seeds=VERIFIED_SAMPLE, threshold=1)
        holdout = build_matcher(config, [("x0", "y0"), ("x0", "yc")])
        complete = build_matcher(config, [("x0", "yc"), ("x0", "y0")])
        assert run_batch(holdout, pair).keys.size == 3
        assert run_batch(complete, pair).keys.size == 1
        actual = {x: frozenset({"y" + x[1:]}) for x in ("x0", "x1", "x2")}
        inp = tiny_input(pair, holdout, ["x0", "x1", "x2"], actual, 0.05,
                         complete=complete, s_x_prime=["x0", "x1", "x2"])
        reports = query_reports(inp)
        assert len(reports) == 6
        assert all(r.flags == () for r in reports)
        assert any(stats.d_r for stats in compute_node_stats(inp))

    def test_attribute_exact_complete_handle_reduces_to_holdout(self):
        # an attribute-exact matcher reads no seeds: a complete handle
        # seeded with s_x's matches identifies the holdout one's sets, so its
        # census terms are 0 and its certificates give the holdout bounds
        nodes = range(6)
        x = make_network([f"x{i}" for i in nodes], [], {f"x{i}": {"u": str(i)} for i in nodes})
        y = make_network([f"y{i}" for i in nodes], [], {f"y{i}": {"u": str(i)} for i in nodes})
        holdout = build_matcher(MatcherConfig("attribute-exact", attr_key="u"))
        s_x = ["x0", "x1", "x2", "x3"]
        complete = build_matcher(holdout.config, [(v, "y" + v[1:]) for v in s_x])
        actual = {f"x{i}": frozenset({f"y{i}"}) for i in nodes}
        inp = tiny_input(NetworkPair(x, y), holdout, s_x, actual, 0.05,
                         complete=complete, s_x_prime=["x2", "x3", "x4", "x5"])
        by_id = {r.bound_id: r for r in query_reports(inp)}
        for quantity in ("precision", "recall"):
            assert by_id[f"holdout-query-{quantity}"].lower_bound == pytest.approx(
                1 - math.sqrt(math.log(1 / 0.05) / 8)
            )
        for bound_id in ("complete-query-recall", "complete-query-precision",
                         "complete-query-error-rate"):
            assert by_id[bound_id].flags == ()
        assert by_id["complete-query-recall"].terms["disagreement"] == 0.0
        assert by_id["complete-query-precision"].terms["dp"] == 0.0
        assert by_id["complete-query-error-rate"].terms["disagreement"] == 0.0
        assert by_id["complete-query-recall"].lower_bound > 0.0
        assert by_id["complete-query-precision"].lower_bound > 0.0
        assert by_id["complete-query-error-rate"].upper_bound < 1.0

    def test_digest_is_of_each_certificates_inputs(self, tiny):
        # the certificates of one call share their inputs; each digest
        # must still hash the certificate's own whole payload
        actual = {f"x{i}": frozenset({f"y{i}"}) for i in range(8)}
        holdout = fixed_matcher([(f"x{i}", f"y{i}") for i in range(6)])
        complete = fixed_matcher([(f"x{i}", f"y{i}") for i in range(7)])
        s_x = ["x5", "x0", "x3", "x7"]
        s_x_prime = ["x6", "x1", "x2"]
        inp = tiny_input(tiny, holdout, s_x, actual, 0.05,
                         complete=complete, s_x_prime=s_x_prime, method=HG)
        reports = query_reports(inp)
        assert len(reports) == 6
        for r in reports:
            inputs = {
                "n_x": 8,
                "s_x": sorted(s_x),
                "s_x_prime": sorted(s_x_prime),
                "method": HG.value,
                "deltas": list(r.delta_parts),
                "holdout": holdout.config.to_json_dict(),
                "complete": (
                    complete.config.to_json_dict() if r.variant == "complete" else None
                ),
            }
            assert r.inputs_digest == digest_of({"bound_id": r.bound_id, **inputs})
        alone = error_rate_bounds(inp)
        assert alone.inputs_digest == reports[-1].inputs_digest


class RecordingActuals(dict):
    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.accessed = set()

    def __getitem__(self, key):
        self.accessed.add(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        return super().__contains__(key)


class TestIndependentSampleNeverReadsActuals:
    def test_disagreement_terms_blind(self, tiny):
        actual = RecordingActuals(
            {f"x{i}": frozenset({f"y{i}"}) for i in range(8)}
        )
        holdout = fixed_matcher([(f"x{i}", f"y{i}") for i in range(8)])
        complete = fixed_matcher([(f"x{i}", f"y{i}") for i in range(4)])
        s_x = ["x0", "x1", "x2"]
        s_prime = ["x4", "x5", "x6", "x7"]  # disjoint from s_x
        inp = tiny_input(tiny, holdout, s_x, actual, 0.05,
                         complete=complete, s_x_prime=s_prime)
        for certify in (complete_query_recall, complete_query_precision,
                        error_rate_bounds, compute_node_stats):
            certify(inp)
        assert actual.accessed <= set(s_x)


class TestIntersectionSamplingLaw:
    def test_uniform_over_subsets(self):
        # over all size-s draws from a population of 7, the overlap with a
        # fixed 4-item part, conditioned on its size, is uniform over the
        # part's subsets of that size
        population = list(range(7))
        part = set(range(4))
        s = 3
        counts = {}
        for draw in itertools.combinations(population, s):
            overlap = frozenset(part.intersection(draw))
            counts.setdefault(overlap, 0)
            counts[overlap] += 1
        by_size = {}
        for overlap, c in counts.items():
            by_size.setdefault(len(overlap), set()).add(c)
        for size, distinct_counts in by_size.items():
            assert len(distinct_counts) == 1, (size, distinct_counts)
            n_subsets = math.comb(4, size)
            assert len([o for o in counts if len(o) == size]) == n_subsets


class TestStatRanges:
    def test_node_stats_stay_in_range(self):
        cfg = GeneratorConfig(
            n_entities=150,
            base_model=ErdosRenyi(0.05),
            edge_retain_x=0.85,
            edge_retain_y=0.85,
            node_drop_x=0.1,
            node_drop_y=0.1,
            rng_seed=21,
        )
        pair, truth = generate_pair(cfg)
        ordered = sorted(truth.pairs)
        holdout = build_matcher(
            MatcherConfig("percolation", seeds=tuple(ordered[:20]), threshold=2)
        )
        complete = build_matcher(holdout.config, ordered[20:40])
        per_x = by_x(truth)
        actual_for = {x: per_x.get(x, frozenset()) for x in pair.x_net.nodes}
        nodes = sorted(pair.x_net.nodes)
        inp = QueryValidationInput(
            pair=pair,
            holdout=holdout,
            s_x=tuple(nodes[:60]),
            actual_for=actual_for,
            method=HOEFF,
            delta=0.03,
            complete=complete,
            s_x_prime=tuple(nodes[60:120]),
        )
        # the largest number of matches the holdout matcher gives any x
        most = max(map(len, by_x(run_batch(holdout, pair)).values()))
        for stat in compute_node_stats(inp):
            if stat.p is not None:
                assert 0.0 <= stat.p <= 1.0
            if stat.r is not None:
                assert 0.0 <= stat.r <= 1.0
            if stat.w is not None:
                assert stat.w in (0, 1)
            if stat.d_r is not None:
                assert stat.d_r in (0.0, 1.0)
            if stat.d_p is not None:
                assert 0.0 <= stat.d_p <= 1.0 + most

    def test_node_stats_without_complete_matcher(self, tiny):
        actual = {"x0": frozenset({"y0"}), "x1": frozenset({"y1"}), "x2": frozenset()}
        holdout = fixed_matcher([("x0", "y0"), ("x1", "y2")])
        inp = tiny_input(tiny, holdout, ["x0", "x1", "x2"], actual, 0.05)
        # no d_r or d_p without a complete matcher; p and r None where undefined
        assert compute_node_stats(inp) == [
            PerNodeStats("x0", p=1.0, r=1.0, w=0),
            PerNodeStats("x1", p=0.0, r=0.0, w=1),
            PerNodeStats("x2", w=0),
        ]


class TestTrueQueryMetrics:
    def test_on_generated_world(self):
        cfg = GeneratorConfig(
            n_entities=200,
            base_model=ErdosRenyi(0.03),
            node_drop_x=0.1,
            node_drop_y=0.1,
            rng_seed=12,
        )
        pair, truth = generate_pair(cfg)
        m_hat = make_match_set(sorted(truth.pairs)[: len(truth.pairs) // 2], pair)
        p, r = true_query_metrics(pair, m_hat, truth)
        assert p == 1.0  # every identified pair is actual
        n_matched = len(by_x(truth))
        assert r == pytest.approx(len(m_hat.pairs) / n_matched)
        err = true_error_rate(pair, m_hat, truth)
        assert err == pytest.approx(
            (n_matched - len(m_hat.pairs)) / len(pair.x_net.nodes)
        )


def _random_sets(rnd: random.Random, self_mode: bool):
    """A small pair and two random match sets over it, where an x can have
    up to three matches in either set."""
    n_x = rnd.randint(2, 14)
    x = make_network([f"n{i}" for i in range(n_x)], [])
    if self_mode:
        pair = NetworkPair(x, x, self_match_mode=True)
    else:
        pair = NetworkPair(x, make_network([f"m{i}" for i in range(rnd.randint(2, 14))], []))
    xs, ys = pair.x_net.index.ids, pair.y_net.index.ids

    def draw():
        out = []
        for a in rnd.sample(xs, rnd.randint(0, len(xs))):
            out += [(a, b) for b in rnd.sample(ys, min(len(ys), rnd.randint(1, 3)))]
        return [(a, b) for a, b in out if not (self_mode and a == b)]

    truth = draw()
    # the identified set shares part of the truth
    m_hat = rnd.sample(truth, rnd.randint(0, len(truth))) + draw()
    return (
        pair,
        make_match_set(m_hat, pair),
        make_match_set(truth, pair),
    )


class TestTruthOraclesMatchReferences:
    @pytest.mark.parametrize("self_mode", [False, True])
    def test_random_sets(self, self_mode):
        rnd = random.Random(909 + self_mode)
        multi = 0
        for _ in range(300):
            pair, m_hat, truth = _random_sets(rnd, self_mode)
            multi += any(len(ys) > 1 for ys in by_x(m_hat).values())
            for oracle, reference in (
                (true_batch_metrics, true_batch_metrics_reference),
                (true_query_metrics, true_query_metrics_reference),
                (true_error_rate, true_error_rate_reference),
            ):
                assert oracle(pair, m_hat, truth) == reference(pair, m_hat, truth)
                assert oracle(pair, truth, m_hat) == reference(pair, truth, m_hat)
        assert multi >= 100  # nodes with 2-3 identified matches are common

    def test_exact_metrics_is_every_reference(self):
        # the one computation behind the three oracles, on the same worlds
        # and on an empty identified set, an empty truth and both empty
        rnd = random.Random(911)
        worlds = [_random_sets(rnd, self_mode) for self_mode in (False, True) * 100]
        first, m_hat, truth = worlds[0]
        empty = make_match_set([], first)
        worlds += [(first, empty, truth), (first, m_hat, empty), (first, empty, empty)]
        empties = multi = 0
        for pair, m_hat, truth in worlds:
            empties += not m_hat.keys.size
            multi += any(len(ys) > 1 for ys in by_x(m_hat).values())
            assert exact_metrics(pair, m_hat, truth) == (
                *true_batch_metrics_reference(pair, m_hat, truth),
                *true_query_metrics_reference(pair, m_hat, truth),
                true_error_rate_reference(pair, m_hat, truth),
            )
        assert exact_metrics(first, empty, empty) == (None, None, None, None, 0.0)
        assert empties >= 5 and multi >= 50  # None paths and one-to-many sets

    def test_percolation_on_generated_world(self):
        cfg = GeneratorConfig(
            n_entities=300, base_model=ErdosRenyi(0.03), edge_retain_x=0.8,
            edge_retain_y=0.8, node_drop_x=0.1, node_drop_y=0.1, rng_seed=5,
        )
        pair, truth = generate_pair(cfg)
        seeds = truth.sorted_pairs[::6]
        m_hat = run_batch(fixed_matcher(seeds), pair)
        grown = run_batch(
            build_matcher(MatcherConfig("percolation", seeds=seeds, threshold=1)), pair
        )
        for ms in (m_hat, grown):
            assert true_batch_metrics(pair, ms, truth) == true_batch_metrics_reference(
                pair, ms, truth
            )
            assert true_query_metrics(pair, ms, truth) == true_query_metrics_reference(
                pair, ms, truth
            )
            assert true_error_rate(pair, ms, truth) == true_error_rate_reference(
                pair, ms, truth
            )
        assert true_batch_metrics(pair, grown, truth)[0] < 1.0  # some wrong pairs


def _views_world():
    """A query input with a complete matcher that differs from the holdout
    one, on a generated world."""
    cfg = GeneratorConfig(
        n_entities=300, base_model=ErdosRenyi(0.03), node_drop_x=0.1,
        node_drop_y=0.1, rng_seed=21,
    )
    pair, truth = generate_pair(cfg)
    ids = pair.x_net.index.ids
    rnd = random.Random(4)
    s_x = tuple(rnd.sample(ids, 60))
    truth_x = by_x(truth)
    config = MatcherConfig("percolation", seeds=VERIFIED_SAMPLE, threshold=1)
    holdout = build_matcher(config, training_matches=truth.sorted_pairs[::5])
    complete = build_matcher(config, (
        *holdout.training_matches,
        *((x, y) for x in s_x for y in sorted(truth_x.get(x, ()))),
    ))
    return QueryValidationInput(
        pair=pair,
        holdout=holdout,
        s_x=s_x,
        actual_for={x: truth_x.get(x, frozenset()) for x in ids},
        method=HOEFF,
        delta=0.05,
        complete=complete,
        s_x_prime=tuple(rnd.sample(ids, 90)),
    )


class TestViewsOnce:
    """The columns stage (``query.query_columns``) runs once per query_reports."""

    def test_query_reports_equal_certificates_alone(self, monkeypatch):
        import matchcert.query as query

        inp = _views_world()
        calls = []
        columns = query.query_columns

        def counting_columns(of):
            calls.append(of)
            return columns(of)

        monkeypatch.setattr(query, "query_columns", counting_columns)
        reports = query_reports(inp)
        assert len(calls) == 1 and len(reports) == 6
        calls.clear()
        alone = certificates_alone(inp)
        assert len(calls) == 5  # each certificate on its own computes them
        assert [r.to_json_dict() for r in reports] == [r.to_json_dict() for r in alone]
        assert reports[3].flags == ()
        calls.clear()
        compute_node_stats(inp)
        holdout_query_bounds(inp)
        assert not calls  # the input keeps its columns

    def test_complete_certificates_read_the_holdout_terms(self, monkeypatch):
        # the precision and error terms at the full delta are bounded once,
        # by the holdout certificates: the complete reports carry them bit
        # for bit
        import matchcert.query as query

        inp = _views_world()
        calls = []
        for name in ("verified_sample", "bound_term"):
            def counting(*args, call=getattr(query, name), name=name, **kwargs):
                calls.append(name)
                return call(*args, **kwargs)

            monkeypatch.setattr(query, name, counting)
        reports = {r.bound_id: r for r in query_reports(inp)}
        # s_x's verified matches are checked and counted once
        assert sorted(calls) == ["bound_term"] * 5 + ["verified_sample"]
        assert len(reports) == 6
        for quantity, term in (("precision", "precision_term"), ("error-rate", "error_term")):
            held = reports[f"holdout-query-{quantity}"]
            complete = reports[f"complete-query-{quantity}"]
            assert complete.terms[term].hex() == held.terms[term].hex()
            assert complete.term_methods[term] == held.term_methods[term]
        assert reports["complete-query-error-rate"].terms["disagreement"] > 0

    def test_sample_columns_and_census_columns(self):
        import matchcert.query as query

        inp = _views_world()
        columns = query.query_columns(inp)
        for column in (columns.p, columns.r, columns.w, columns.matched):
            assert column.shape == (len(inp.s_x),)
        for column in (columns.d_r, columns.d_p, columns.diff):
            assert column.shape == (inp.n_x,)
        _assert_columns_follow_definitions(
            inp, columns, by_x(run_batch(inp.holdout, inp.pair)),
            by_x(run_batch(inp.complete, inp.pair)),
        )


def _same(got: float, want: float | None) -> bool:
    """A column entry equals its definition, NaN standing for None."""
    return math.isnan(got) if want is None else got == want


def _assert_columns_follow_definitions(inp, columns, hv, cv):
    """Each column entry equals the per-node definition on the matchers'
    per-x sets ``hv`` and ``cv`` (cv None without a complete matcher): the
    sample columns at each node of s_x, the census columns and counts over
    all of X."""
    empty = frozenset()
    for i, x in enumerate(inp.s_x):
        h, actual = hv.get(x, empty), inp.actual_for[x]
        assert _same(columns.p[i], single_node_precision(h, actual))
        assert _same(columns.r[i], single_node_recall(h, actual))
        assert columns.w[i] == single_node_error(h, actual)
        assert columns.matched[i] == (1.0 if actual else 0.0)
    assert columns.identified == len(hv)
    assert columns.most == max(map(len, hv.values()), default=0)
    if cv is None:
        assert columns.d_r is columns.d_p is columns.diff is None
        return
    assert columns.complete == len(cv)
    for j, x in enumerate(inp.pair.x_net.index.ids):
        h, c = hv.get(x, empty), cv.get(x, empty)
        assert columns.d_r[j] == disagreement_recall(h, c)
        assert columns.d_p[j] == disagreement_precision(h, c)
        assert columns.diff[j] == (1.0 if h != c else 0.0)


@st.composite
def column_worlds(draw):
    """(inp, sets): a query input on a small edgeless pair, in self-match
    mode or not, and the identified set each matcher handle stands for, by
    its attr_key. Identified sets give an x up to ``cap``
    matches (``cap`` 1-3), and actual sets, drawn for every x of X, up to
    three nodes of Y (never x itself in self-match mode); the complete
    matcher is absent, identifies nothing, identifies the holdout's set or
    identifies its own set, and s_x' may be empty."""
    self_mode = draw(st.booleans())
    xs = [f"n{i}" for i in range(draw(st.integers(1, 7)))]
    x_net = make_network(xs, [])
    if self_mode:
        ys, pair = xs, NetworkPair(x_net, x_net, self_match_mode=True)
    else:
        ys = [f"m{i}" for i in range(draw(st.integers(1, 7)))]
        pair = NetworkPair(x_net, make_network(ys, []))
    cap = draw(st.integers(1, 3))

    def matches(x, most):
        options = [y for y in ys if not (self_mode and y == x)]
        if not options:
            return []
        return draw(st.lists(st.sampled_from(options), max_size=most, unique=True))

    def identified():
        return make_match_set([(x, y) for x in xs for y in matches(x, cap)], pair)

    s_x = tuple(draw(st.lists(st.sampled_from(xs), min_size=1, unique=True)))
    actual_for = {x: frozenset(matches(x, 3)) for x in xs}
    holdout = build_matcher(MatcherConfig("attribute-exact", attr_key="h"))
    sets = {"h": identified()}
    mode = draw(st.sampled_from(["none", "empty", "same", "own"]))
    complete, s_x_prime = None, ()
    if mode != "none":
        s_x_prime = tuple(draw(st.lists(st.sampled_from(xs), unique=True)))
        if mode == "same":
            complete = build_matcher(holdout.config)
        else:
            complete = build_matcher(MatcherConfig("attribute-exact", attr_key="c"))
            sets["c"] = (
                make_match_set([], pair)
                if mode == "empty" else identified()
            )
    inp = QueryValidationInput(
        pair=pair, holdout=holdout, s_x=s_x, actual_for=actual_for, method=HOEFF,
        delta=0.05, complete=complete, s_x_prime=s_x_prime,
    )
    return inp, sets


class TestColumns:
    @settings(max_examples=300, deadline=None)
    @given(column_worlds())
    def test_columns_follow_per_node_definitions(self, world):
        import matchcert.query as query

        inp, sets = world
        ran = []

        def identified_set(handle, pair):
            ran.append(handle.config.attr_key)
            return sets[handle.config.attr_key]

        with patch.object(query, "run_batch", identified_set):
            columns = query.query_columns(inp)
        hv = by_x(sets["h"])
        if inp.complete is None:
            cv, each = None, ["h"]
        else:
            key = inp.complete.config.attr_key
            cv, each = by_x(sets[key]), ["h", key]
        assert ran == each  # each matcher once
        _assert_columns_follow_definitions(inp, columns, hv, cv)


class TestCensusInequalities:
    """The complete certificates rest on three inequalities between the
    complete matcher's exact value, the holdout one's and census sums over
    X, which hold for every pair of matchers; only the holdout terms are
    random. Checked here with exact fractions on one-to-many worlds whose
    actual matches are known for every x of X, with the census sums that
    ``query_columns`` counts."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(column_worlds())
    def test_inequalities_hold_exactly(self, world):
        import matchcert.query as query

        inp, sets = world
        assume(inp.complete is not None)
        with patch.object(query, "run_batch", lambda handle, _: sets[handle.config.attr_key]):
            columns = query.query_columns(inp)
        empty, xs = frozenset(), inp.pair.x_net.index.ids
        hv, cv = by_x(sets["h"]), by_x(sets[inp.complete.config.attr_key])
        h_sets = [hv.get(x, empty) for x in xs]
        c_sets = [cv.get(x, empty) for x in xs]
        actual = [inp.actual_for[x] for x in xs]

        # the census equals the definitions of tests/oracles.py
        d_r = [disagreement_recall(h, c) for h, c in zip(h_sets, c_sets)]
        d_p = [disagreement_precision(h, c) for h, c in zip(h_sets, c_sets)]
        diff = [float(h != c) for h, c in zip(h_sets, c_sets)]
        d_h, d_c = sum(map(bool, h_sets)), sum(map(bool, c_sets))
        assert (columns.identified, columns.complete) == (d_h, d_c)
        for column, values in ((columns.d_r, d_r), (columns.d_p, d_p),
                               (columns.diff, diff)):
            assert math.fsum(column.tolist()) == math.fsum(values)

        def precision_sum(found):  # |D| times the query precision
            return sum(Fraction(len(f & a), len(f)) for f, a in zip(found, actual) if f)

        def recall_sum(found):  # |D_a| times the query recall
            return sum(Fraction(len(f & a), len(a)) for f, a in zip(found, actual) if a)

        def error_rate(found):
            return Fraction(sum(f != a for f, a in zip(found, actual)), len(xs))

        # P_C >= (|D_H| * P_H - sum_X d_p) / |D_C|
        if d_c:
            bound = (precision_sum(h_sets) - sum(map(Fraction, d_p))) / d_c
            assert precision_sum(c_sets) / d_c >= bound
        # R_C >= R_H - sum_X d_r / |D_a|
        d_a = sum(map(bool, actual))
        if d_a:
            bound = (recall_sum(h_sets) - sum(map(Fraction, d_r))) / d_a
            assert recall_sum(c_sets) / d_a >= bound
        # E_C <= E_H + mean_X 1[H_x != C_x]
        assert error_rate(c_sets) <= error_rate(h_sets) + Fraction(sum(diff)) / len(xs)


def certificates_alone(inp):
    """Each certificate of query_reports(inp), called on its own copy of
    ``inp``: the holdout error rate without the complete matcher, every
    other one on the whole input."""
    return [
        *holdout_query_bounds(replace(inp)),
        error_rate_bounds(replace(inp, complete=None)),
        complete_query_recall(replace(inp)),
        complete_query_precision(replace(inp)),
        error_rate_bounds(replace(inp)),
    ]


class TestSharedQueryInputs:
    def test_each_certificate_alone_equals_its_report(self):
        inp = _views_world()
        reports = query_reports(inp)
        alone = certificates_alone(inp)
        assert len(reports) == len(alone) == 6
        for a, b in zip(reports, alone):
            for f in fields(ValidationReport):
                if f.compare:
                    assert getattr(a, f.name) == getattr(b, f.name), f.name
            assert a.inputs_digest == b.inputs_digest
            assert a == b

    def test_node_values_built_once(self, monkeypatch):
        import matchcert.query as query

        inp = _views_world()
        calls = []
        columns = query.query_columns

        def counting(of):
            calls.append(of)
            return columns(of)

        monkeypatch.setattr(query, "query_columns", counting)
        query_reports(inp)
        assert len(calls) == 1
        calls.clear()
        certificates_alone(inp)
        assert len(calls) == 5  # each certificate alone builds the record
        calls.clear()
        assert [r.to_json_dict() for r in query_reports(inp)] == [
            r.to_json_dict() for r in certificates_alone(inp)
        ]
        assert len(calls) == 5  # query_reports(inp) reused inp's columns

    def test_digest_read_after_the_input_is_gone(self):
        def reports_and_payloads():
            inp = _views_world()
            reports = query_reports(inp)
            payloads = [
                {
                    "bound_id": r.bound_id,
                    "n_x": len(inp.pair.x_net.nodes),
                    "s_x": sorted(inp.s_x),
                    "s_x_prime": sorted(inp.s_x_prime),
                    "method": HOEFF.value,
                    "deltas": list(r.delta_parts),
                    "holdout": inp.holdout.config.to_json_dict(),
                    "complete": (
                        inp.complete.config.to_json_dict()
                        if r.variant == "complete" else None
                    ),
                }
                for r in reports
            ]
            return reports, payloads, weakref.ref(inp.pair)

        reports, payloads, pair_ref = reports_and_payloads()
        gc.collect()
        assert pair_ref() is None  # nor the handles, which cache the pair
        for r, payload in zip(reports, payloads):
            assert r.inputs_digest == digest_of(payload)

    def test_reports_differing_only_in_inputs_are_unequal(self):
        inp = _views_world()
        # no certificate reads s_x', but it is an input
        other = replace(inp, s_x_prime=inp.s_x_prime[1:])
        mine, theirs = query_reports(inp), query_reports(other)
        assert len(mine) == len(theirs) == 6
        for a, b in zip(mine, theirs):
            assert a.terms == b.terms and a.flags == b.flags
            assert a != b
