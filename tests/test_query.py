import itertools
import math

import pytest

from matchcert.bounds import BoundMethod, DeltaBudget
from matchcert.errors import MatchcertError
from matchcert.graphs import (
    MatchRole,
    NetworkPair,
    by_x,
    make_match_set,
    make_network,
)
from matchcert.matchers import MatcherConfig, build_matcher, with_extra_seeds
from matchcert.query import (
    QueryValidationInput,
    complete_query_precision,
    complete_query_recall,
    compute_node_stats,
    disagreement_precision,
    disagreement_recall,
    error_rate_bounds,
    holdout_query_bounds,
    query_reports,
    sample_until_usable,
    single_node_error,
    single_node_precision,
    single_node_recall,
    true_error_rate,
    true_query_metrics,
)
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
    """A matcher that outputs exactly `pairs`: explicit seeds, a threshold
    no count can reach, one iteration."""
    return build_matcher(
        MatcherConfig("percolation", seeds=tuple(pairs), threshold=99, max_iters=1)
    )


@pytest.fixture(scope="module")
def tiny():
    x = make_network([f"x{i}" for i in range(8)], [("x0", "x1")])
    y = make_network([f"y{i}" for i in range(8)], [("y0", "y1")])
    return NetworkPair(x, y)


def tiny_input(pair, holdout, s_x, actual_for, budget, complete=None,
               s_x_prime=(), method=HOEFF, k_cap=1):
    return QueryValidationInput(
        pair=pair,
        holdout=holdout,
        s_x=tuple(s_x),
        actual_for=actual_for,
        method=method,
        budget=budget,
        complete=complete,
        s_x_prime=tuple(s_x_prime),
        k_cap=k_cap,
    )


class TestHoldoutQuery:
    def test_perfect_matcher_closed_form(self, tiny):
        actual = {f"x{i}": frozenset({f"y{i}"}) for i in range(8)}
        holdout = fixed_matcher([(f"x{i}", f"y{i}") for i in range(8)])
        s_x = [f"x{i}" for i in range(8)]
        inp = tiny_input(tiny, holdout, s_x, actual, DeltaBudget.of(0.05))
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
        holdout = fixed_matcher(pairs)
        s_x = [f"x{i}" for i in range(8)]
        inp = tiny_input(tiny, holdout, s_x, actual, DeltaBudget.of(0.05))
        p_rep, r_rep = holdout_query_bounds(inp)
        want = 0.5 - math.sqrt(math.log(20) / 16)
        assert p_rep.lower_bound == pytest.approx(max(0.0, want), abs=1e-12)
        assert r_rep.lower_bound == pytest.approx(max(0.0, want), abs=1e-12)

    def test_no_usable_sample(self, tiny):
        actual = {f"x{i}": frozenset() for i in range(8)}
        holdout = fixed_matcher([])
        inp = tiny_input(tiny, holdout, ["x0", "x1"], actual, DeltaBudget.of(0.05))
        with pytest.raises(MatchcertError, match="no-usable-sample"):
            holdout_query_bounds(inp)

    def test_unknown_sampled_node(self, tiny):
        actual = {"x0": frozenset({"y0"}), "zzz": frozenset()}
        holdout = fixed_matcher([("x0", "y0")])
        inp = tiny_input(tiny, holdout, ["x0", "zzz"], actual, DeltaBudget.of(0.05))
        with pytest.raises(MatchcertError, match="unknown-node"):
            holdout_query_bounds(inp)

    def test_fractional_values_reject_exact_method(self, tiny):
        actual = {"x0": frozenset({"y0"})}
        holdout = fixed_matcher([("x0", "y0"), ("x0", "y1")])
        inp = tiny_input(tiny, holdout, ["x0"], actual, DeltaBudget.of(0.05),
                         method=HG)
        with pytest.raises(MatchcertError, match="method-requires-binary"):
            holdout_query_bounds(inp)


class TestCompleteQueryRecall:
    def test_reduces_to_holdout(self, tiny):
        actual = {f"x{i}": frozenset({f"y{i}"}) for i in range(8)}
        holdout = fixed_matcher([(f"x{i}", f"y{i}") for i in range(6)])
        complete = with_extra_seeds(holdout, [], [])
        s_x = [f"x{i}" for i in range(8)]
        inp3 = tiny_input(tiny, holdout, s_x, actual, DeltaBudget.of(0.02, 0.02, 0.02),
                          complete=complete, s_x_prime=("x0",))
        inp1 = tiny_input(tiny, holdout, s_x, actual, DeltaBudget.of(0.02))
        rep = complete_query_recall(inp3)
        _, holdout_rep = holdout_query_bounds(inp1)
        assert rep.lower_bound == holdout_rep.lower_bound
        assert "reduced-to-holdout" in rep.flags

    def test_total_disagreement_clamps_to_zero(self, tiny):
        actual = {f"x{i}": frozenset({f"y{i}"}) for i in range(8)}
        holdout = fixed_matcher([(f"x{i}", f"y{i}") for i in range(8)])
        complete = fixed_matcher([])  # drops everything
        s_x = [f"x{i}" for i in range(4)]
        s_prime = [f"x{i}" for i in range(8)]
        inp = tiny_input(tiny, holdout, s_x, actual,
                         DeltaBudget.of(0.02, 0.02, 0.02),
                         complete=complete, s_x_prime=s_prime)
        rep = complete_query_recall(inp)
        assert rep.lower_bound == 0.0
        assert rep.terms["disagreement_term"] >= 1.0

    def test_prime_sample_required(self, tiny):
        actual = {"x0": frozenset({"y0"})}
        holdout = fixed_matcher([("x0", "y0")])
        complete = fixed_matcher([("x0", "y1")])
        inp = tiny_input(tiny, holdout, ["x0"], actual,
                         DeltaBudget.of(0.02, 0.02, 0.02), complete=complete)
        with pytest.raises(MatchcertError, match="empty-sample"):
            complete_query_recall(inp)


class TestCompleteQueryPrecision:
    def test_reduces_to_three_term_expression(self, tiny):
        actual = {f"x{i}": frozenset({f"y{i}"}) for i in range(8)}
        holdout = fixed_matcher([(f"x{i}", f"y{i}") for i in range(6)])
        complete = with_extra_seeds(holdout, [], [])
        s_x = [f"x{i}" for i in range(8)]
        s_prime = [f"x{i}" for i in range(8)]
        budget = DeltaBudget.of(0.01, 0.02, 0.01, 0.01)
        inp = tiny_input(tiny, holdout, s_x, actual, budget,
                         complete=complete, s_x_prime=s_prime)
        rep = complete_query_precision(inp)
        assert "reduced-to-holdout" in rep.flags
        assert rep.terms["dp_term"] == 0.0
        want = (
            rep.terms["holdout_fraction_term"] * rep.terms["precision_term"]
        ) / rep.terms["complete_fraction_term"]
        assert rep.lower_bound == min(1.0, max(0.0, want))

    def test_dp_above_two_widens_range(self, tiny):
        actual = {f"x{i}": frozenset({f"y{i}"}) for i in range(8)}
        holdout = fixed_matcher([("x0", "y0"), ("x0", "y1"), ("x0", "y2"),
                                 ("x1", "y1")])
        complete = fixed_matcher([("x0", "y0"), ("x1", "y1")])
        # d_p(x0) = 1 + 2/1 = 3 > 2
        s_x = [f"x{i}" for i in range(8)]
        inp = tiny_input(tiny, holdout, s_x, actual,
                         DeltaBudget.of(0.01, 0.02, 0.01, 0.01),
                         complete=complete, s_x_prime=s_x, k_cap=3)
        rep = complete_query_precision(inp)
        assert "dp-range-widened" in rep.flags
        assert rep.terms["dp_range_lo"] == 0.0
        assert rep.terms["dp_range_hi"] == 4.0

    def test_requires_usable_precision_sample(self, tiny):
        actual = {f"x{i}": frozenset({f"y{i}"}) for i in range(8)}
        holdout = fixed_matcher([])
        complete = fixed_matcher([("x0", "y0")])
        inp = tiny_input(tiny, holdout, ["x1", "x2"], actual,
                         DeltaBudget.of(0.01, 0.02, 0.01, 0.01),
                         complete=complete, s_x_prime=("x0",))
        with pytest.raises(MatchcertError, match="no-usable-sample"):
            complete_query_precision(inp)


class TestErrorRate:
    def test_perfect_matcher_slack_only(self, tiny):
        actual = {f"x{i}": frozenset({f"y{i}"}) for i in range(8)}
        holdout = fixed_matcher([(f"x{i}", f"y{i}") for i in range(8)])
        inp = tiny_input(tiny, holdout, [f"x{i}" for i in range(8)], actual,
                         DeltaBudget.of(0.05))
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
                         DeltaBudget.of(0.05))
        rep = error_rate_bounds(inp)
        want = 0.1 + math.sqrt(math.log(20) / 200)
        assert rep.upper_bound == pytest.approx(want, abs=1e-12)

    def test_complete_equals_holdout_reduces(self, tiny):
        actual = {f"x{i}": frozenset({f"y{i}"}) for i in range(8)}
        holdout = fixed_matcher([(f"x{i}", f"y{i}") for i in range(5)])
        complete = with_extra_seeds(holdout, [], [])
        s_x = [f"x{i}" for i in range(8)]
        rep_h = error_rate_bounds(
            tiny_input(tiny, holdout, s_x, actual, DeltaBudget.of(0.03))
        )
        rep_c = error_rate_bounds(
            tiny_input(tiny, holdout, s_x, actual, DeltaBudget.of(0.03, 0.02),
                       complete=complete, s_x_prime=("x0",))
        )
        assert rep_c.upper_bound == rep_h.upper_bound
        assert "reduced-to-holdout" in rep_c.flags

    def test_complete_adds_disagreement(self, tiny):
        actual = {f"x{i}": frozenset({f"y{i}"}) for i in range(8)}
        holdout = fixed_matcher([(f"x{i}", f"y{i}") for i in range(8)])
        complete = fixed_matcher([(f"x{i}", f"y{i}") for i in range(6)])
        s_x = [f"x{i}" for i in range(8)]
        rep = error_rate_bounds(
            tiny_input(tiny, holdout, s_x, actual, DeltaBudget.of(0.025, 0.025),
                       complete=complete, s_x_prime=s_x)
        )
        assert rep.terms["disagreement_term"] >= 0.25
        assert rep.upper_bound == pytest.approx(
            min(1.0, rep.terms["error_term"] + rep.terms["disagreement_term"])
        )


class TestQueryReports:
    def test_holdout_only_without_complete_matcher(self, tiny):
        actual = {f"x{i}": frozenset({f"y{i}"}) for i in range(8)}
        holdout = fixed_matcher([(f"x{i}", f"y{i}") for i in range(6)])
        s_x = [f"x{i}" for i in range(8)]
        reports = query_reports(
            tiny_input(tiny, holdout, s_x, actual, DeltaBudget.of(0.05))
        )
        assert [r.bound_id for r in reports] == [
            "holdout-query-precision",
            "holdout-query-recall",
            "holdout-query-error-rate",
        ]
        assert all(len(r.budget) == 1 for r in reports)

    def test_budget_must_have_one_part(self, tiny):
        actual = {"x0": frozenset({"y0"})}
        holdout = fixed_matcher([("x0", "y0")])
        inp = tiny_input(tiny, holdout, ["x0"], actual, DeltaBudget.of(0.02, 0.03))
        with pytest.raises(MatchcertError, match="budget-arity"):
            query_reports(inp)


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
        budget3 = DeltaBudget.of(0.01, 0.01, 0.01)
        budget4 = DeltaBudget.of(0.01, 0.01, 0.01, 0.01)
        complete_query_recall(
            tiny_input(tiny, holdout, s_x, actual, budget3,
                       complete=complete, s_x_prime=s_prime)
        )
        complete_query_precision(
            tiny_input(tiny, holdout, s_x, actual, budget4,
                       complete=complete, s_x_prime=s_prime)
        )
        error_rate_bounds(
            tiny_input(tiny, holdout, s_x, actual, DeltaBudget.of(0.01, 0.01),
                       complete=complete, s_x_prime=s_prime)
        )
        compute_node_stats(
            tiny_input(tiny, holdout, s_x, actual, budget3,
                       complete=complete, s_x_prime=s_prime)
        )
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


class TestSampleUntilUsable:
    def test_reaches_target(self):
        universe = [f"x{i}" for i in range(50)]
        usable = {f"x{i}" for i in range(0, 50, 5)}  # 10 usable nodes
        drawn = sample_until_usable(universe, lambda x: x in usable, 4, 3)
        assert sum(1 for d in drawn if d in usable) == 4
        assert drawn[-1] in usable
        assert len(set(drawn)) == len(drawn)

    def test_exhausted(self):
        with pytest.raises(MatchcertError, match="no-usable-sample"):
            sample_until_usable(["a", "b"], lambda x: False, 1, 3)


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
        complete = with_extra_seeds(holdout, ordered[20:40], ["extra"])
        per_x = by_x(truth)
        actual_for = {x: per_x.get(x, frozenset()) for x in pair.x_net.nodes}
        nodes = sorted(pair.x_net.nodes)
        k_cap = 1
        inp = QueryValidationInput(
            pair=pair,
            holdout=holdout,
            s_x=tuple(nodes[:60]),
            actual_for=actual_for,
            method=HOEFF,
            budget=DeltaBudget.of(0.01, 0.01, 0.01),
            complete=complete,
            s_x_prime=tuple(nodes[60:120]),
            k_cap=k_cap,
        )
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
                assert 0.0 <= stat.d_p <= 1.0 + k_cap


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
        m_hat = make_match_set(
            sorted(truth.pairs)[: len(truth.pairs) // 2],
            pair,
            MatchRole.IDENTIFIED_HOLDOUT,
        )
        p, r = true_query_metrics(pair, m_hat, truth)
        assert p == 1.0  # every identified pair is actual
        n_matched = len(by_x(truth))
        assert r == pytest.approx(len(m_hat.pairs) / n_matched)
        err = true_error_rate(pair, m_hat, truth)
        assert err == pytest.approx(
            (n_matched - len(m_hat.pairs)) / len(pair.x_net.nodes)
        )
