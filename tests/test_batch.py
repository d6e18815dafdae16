import gc
import math
import pickle
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from matchcert.batch import (
    BatchValidationInput,
    batch_reports,
    complete_batch_precision,
    complete_batch_recall,
    holdout_batch_precision,
    holdout_batch_recall,
    true_batch_metrics,
)
from matchcert.bounds import (
    BoundMethod,
    Confidence,
    PopulationSpec,
    SampleSummary,
    ebs_bounds,
    hoeffding_bounds,
    hypergeom_invert_lower,
)
from matchcert.errors import MatchcertError
from matchcert.graphs import (
    MatchSet,
    NetworkPair,
    by_x,
    make_match_set,
    make_network,
)
from matchcert.reports import ValidationReport, digest_of
from matchcert.sampling import sample_without_replacement
from matchcert.synth import ErdosRenyi, GeneratorConfig, generate_pair

HG = BoundMethod.HYPERGEOMETRIC
HOEFF = BoundMethod.HOEFFDING


@pytest.fixture(scope="module")
def world():
    cfg = GeneratorConfig(
        n_entities=300,
        base_model=ErdosRenyi(0.02),
        node_drop_x=0.1,
        node_drop_y=0.1,
        rng_seed=42,
    )
    pair, truth = generate_pair(cfg)
    return pair, truth


def base_input(pair, truth, m_hat, s_m, s_x, method, delta, **kw):
    """A batch input whose verified sample holds the pairs ``s_m`` and
    whose verified matches are the truth's."""
    return BatchValidationInput(
        pair=pair,
        m_hat_holdout=m_hat,
        s_m=make_match_set(s_m, pair),
        s_x=tuple(s_x),
        actual_for=truth,
        method=method,
        delta=delta,
        m_size=len(truth.pairs),
        **kw,
    )


class TestHoldoutRecall:
    def test_all_sample_identified_delegates_to_inversion(self, world):
        pair, truth = world
        s_m = sample_without_replacement(sorted(truth.pairs), 20, 1)
        m_hat = make_match_set(truth.pairs, pair)
        inp = base_input(pair, truth, m_hat, s_m, ["x0"], HG, 0.05)
        # fixture: 20 of 20 identified with |M| = 100
        inp = BatchValidationInput(
            pair=inp.pair,
            m_hat_holdout=inp.m_hat_holdout,
            s_m=inp.s_m,
            s_x=inp.s_x,
            actual_for=inp.actual_for,
            method=HG,
            delta=0.05,
            m_size=100,
        )
        rep = holdout_batch_recall(inp)
        want = hypergeom_invert_lower(100, 20, 20, Confidence(0.05))
        assert 0.0 < want < 1.0  # so the report steps it one float down
        assert rep.lower_bound == math.nextafter(want, 0.0)
        assert rep.quantity == "recall" and rep.variant == "holdout"

    def test_nothing_identified_gives_zero(self, world):
        pair, truth = world
        s_m = sample_without_replacement(sorted(truth.pairs), 15, 2)
        m_hat = make_match_set([], pair)
        inp = base_input(pair, truth, m_hat, s_m, ["x0"], HOEFF, 0.05)
        assert holdout_batch_recall(inp).lower_bound == 0.0

    def test_census_pins_to_one(self, world):
        pair, truth = world
        m_hat = make_match_set(truth.pairs, pair)
        inp = base_input(
            pair, truth, m_hat, sorted(truth.pairs), ["x0"], HG, 0.05
        )
        assert holdout_batch_recall(inp).lower_bound == 1.0

    def test_empty_sample_rejected(self, world):
        pair, truth = world
        m_hat = make_match_set(truth.pairs, pair)
        inp = base_input(pair, truth, m_hat, [], ["x0"], HOEFF, 0.05)
        with pytest.raises(MatchcertError, match="empty-sample"):
            holdout_batch_recall(inp)

    def test_unknown_population_falls_back_to_hoeffding(self, world):
        pair, truth = world
        s_m = sample_without_replacement(sorted(truth.pairs), 30, 3)
        m_hat = make_match_set(truth.pairs, pair)
        inp = BatchValidationInput(
            pair=pair,
            m_hat_holdout=m_hat,
            s_m=make_match_set(s_m, pair),
            s_x=("x0",),
            actual_for=truth,
            method=HG,
            delta=0.05,
            m_size=None,
        )
        rep = holdout_batch_recall(inp)
        assert rep.term_methods["recall_term"] == "hoeffding"
        assert rep.lower_bound == pytest.approx(
            1.0 - math.sqrt(math.log(1 / 0.05) / (2 * 30))
        )

    def test_no_population_size_certifies_at_ky_times_x(self, world):
        # without m_size the recall term is bounded at k_y·|X| >= |M|:
        # Hoeffding in place of the exact method, and EBS at that size
        pair, truth = world
        s_m = sample_without_replacement(sorted(truth.pairs), 30, 3)
        m_hat = make_match_set(sorted(truth.pairs)[::2], pair)
        summary = SampleSummary.of([float(p in m_hat.pairs) for p in s_m])
        assert 0 < sum(summary.values) < len(s_m)
        for k_y in (1, 2):
            inp = BatchValidationInput(
                pair=pair,
                m_hat_holdout=m_hat,
                s_m=make_match_set(s_m, pair),
                s_x=("x0",),
                actual_for=truth,
                method=HG,
                delta=0.05,
                k_y=k_y,
            )
            population = PopulationSpec(k_y * len(pair.x_net.nodes))
            for method, bounds in ((HG, hoeffding_bounds), (BoundMethod.EBS, ebs_bounds)):
                rep = holdout_batch_recall(replace(inp, method=method))
                want = bounds(population, summary, Confidence(0.05)).lower
                assert rep.terms["recall_term"] == want
                assert rep.term_methods["recall_term"] == (
                    "hoeffding" if method is HG else method.value
                )

    def test_monotone_in_identified_count(self, world):
        pair, truth = world
        ordered = sorted(truth.pairs)
        s_m = ordered[:40]
        for method in (HOEFF, BoundMethod.EBS, HG):
            prev = -1.0
            for hits in (10, 20, 30, 40):
                m_hat = make_match_set(s_m[:hits], pair)
                inp = base_input(
                    pair, truth, m_hat, s_m, ["x0"], method, 0.05
                )
                lb = holdout_batch_recall(inp).lower_bound
                assert lb >= prev
                prev = lb


class TestHoldoutPrecision:
    def test_perfect_matcher_census_is_one(self, world):
        pair, truth = world
        m_hat = make_match_set(truth.pairs, pair)
        inp = base_input(
            pair,
            truth,
            m_hat,
            sorted(truth.pairs),
            sorted(pair.x_net.nodes),
            HG,
            0.05,
        )
        rep = holdout_batch_precision(inp)
        assert rep.lower_bound == 1.0

    def test_perfect_matcher_finite_samples(self, world):
        pair, truth = world
        m_hat = make_match_set(truth.pairs, pair)
        s_m = sample_without_replacement(sorted(truth.pairs), 150, 4)
        s_x = sample_without_replacement(sorted(pair.x_net.nodes), 150, 5)
        inp = base_input(
            pair, truth, m_hat, s_m, s_x, HG, 0.05
        )
        rep = holdout_batch_precision(inp)
        true_p, _ = true_batch_metrics(pair, m_hat, truth)
        assert rep.lower_bound < 1.0
        assert rep.lower_bound >= 0.8
        assert rep.lower_bound <= true_p

    def test_zero_recall_term_zeroes_the_product(self, world):
        pair, truth = world
        s_m = sample_without_replacement(sorted(truth.pairs), 10, 6)
        m_hat = make_match_set([("x0", "y1")], pair)
        inp = base_input(
            pair, truth, m_hat, s_m, ["x0"], HG, 0.05
        )
        assert holdout_batch_precision(inp).lower_bound == 0.0

    def test_density_term_closed_form(self, world):
        # k_y = 1 and every sampled node matched: Hoeffding density term is
        # 1 - sqrt(ln(1/delta_p) / (2 s))
        pair, truth = world
        matched_x = sorted(by_x(truth))
        s_x = matched_x[:50]
        m_hat = make_match_set(truth.pairs, pair)
        s_m = sample_without_replacement(sorted(truth.pairs), 20, 7)
        inp = base_input(
            pair, truth, m_hat, s_m, s_x, HOEFF, 0.05
        )
        rep = holdout_batch_precision(inp)
        want = 1.0 - math.sqrt(math.log(1 / 0.025) / (2 * 50))
        assert rep.terms["match_density_term"] == pytest.approx(want, abs=1e-12)

    def test_empty_identified_rejected(self, world):
        pair, truth = world
        m_hat = make_match_set([], pair)
        inp = base_input(
            pair, truth, m_hat, sorted(truth.pairs)[:5], ["x0"], HOEFF,
            0.05,
        )
        with pytest.raises(MatchcertError, match="no-identified-matches"):
            holdout_batch_precision(inp)


class TestCompleteVariants:
    def make_inputs(self, world, m_hat_c_pairs=None, s_m_n=40, s_x_n=60, seed=8):
        pair, truth = world
        m_hat_h = make_match_set(truth.pairs, pair)
        m_hat_c = make_match_set(
            m_hat_c_pairs if m_hat_c_pairs is not None else truth.pairs,
            pair,
        )
        s_m = sample_without_replacement(sorted(truth.pairs), s_m_n, seed)
        s_x = sample_without_replacement(sorted(pair.x_net.nodes), s_x_n, seed + 1)
        return pair, truth, m_hat_h, m_hat_c, s_m, s_x

    def test_recall_reduces_to_holdout(self, world):
        pair, truth, m_hat_h, m_hat_c, s_m, s_x = self.make_inputs(world)
        # the complete certificate's recall term at 0.04 / 2, as the holdout's
        inp_c = base_input(
            pair, truth, m_hat_h, s_m, s_x, HG, 0.04, m_hat_complete=m_hat_c
        )
        inp_h = base_input(pair, truth, m_hat_h, s_m, s_x, HG, 0.02)
        rep_c = complete_batch_recall(inp_c)
        rep_h = holdout_batch_recall(inp_h)
        assert rep_c.lower_bound == rep_h.lower_bound
        assert rep_c.terms["disagreement_count"] == 0.0

    def test_precision_reduces_to_holdout(self, world):
        pair, truth, m_hat_h, m_hat_c, s_m, s_x = self.make_inputs(world)
        inp_c = base_input(
            pair, truth, m_hat_h, s_m, s_x, HG, 0.05, m_hat_complete=m_hat_c
        )
        inp_h = base_input(pair, truth, m_hat_h, s_m, s_x, HG, 0.05)
        assert (
            complete_batch_precision(inp_c).lower_bound
            == holdout_batch_precision(inp_h).lower_bound
        )

    def test_recall_disagreement_clamps_to_zero(self, world):
        pair, truth, m_hat_h, _, s_m, s_x = self.make_inputs(world)
        # complete matcher drops everything the holdout found
        m_hat_c = make_match_set([("x0", "y1")], pair)
        inp = base_input(
            pair, truth, m_hat_h, s_m, s_x, HOEFF, 0.05,
            m_hat_complete=m_hat_c,
        )
        rep = complete_batch_recall(inp)
        assert rep.lower_bound == 0.0
        assert not rep.vacuous  # genuine zero, not a degenerate denominator

    def test_vacuous_denominator_flagged(self, world):
        pair, truth, m_hat_h, m_hat_c, s_m, _ = self.make_inputs(world)
        # every sampled node unmatched: the density lower bound collapses to 0
        unmatched = sorted(pair.x_net.nodes - set(by_x(truth)))[:10]
        inp = base_input(
            pair, truth, m_hat_h, s_m, unmatched, HOEFF,
            0.05,
            m_hat_complete=make_match_set([("x0", "y1")], pair),
        )
        rep = complete_batch_recall(inp)
        assert rep.vacuous
        assert rep.lower_bound == 0.0

    def test_precision_subtracts_disagreement(self, world):
        pair, truth, m_hat_h, _, s_m, s_x = self.make_inputs(world)
        kept = sorted(m_hat_h.pairs)[: len(m_hat_h.pairs) // 2]
        m_hat_c = make_match_set(kept, pair)
        inp = base_input(
            pair, truth, m_hat_h, s_m, s_x, HG, 0.05,
            m_hat_complete=m_hat_c,
        )
        rep = complete_batch_precision(inp)
        dropped = len(m_hat_h.pairs) - len(kept)
        assert rep.terms["disagreement_count"] == float(dropped)
        true_p, _ = true_batch_metrics(pair, m_hat_c, truth)
        assert rep.lower_bound <= true_p

    def test_precision_clamps_when_disagreement_dominates(self, world):
        pair, truth, m_hat_h, _, s_m, s_x = self.make_inputs(world)
        # complete keeps a single pair the holdout never identified, so the
        # subtracted disagreement ratio overwhelms the product term
        unmatched_pair = ("x0", "y1")
        assert unmatched_pair not in m_hat_h.pairs
        m_hat_c = make_match_set([unmatched_pair], pair)
        inp = base_input(
            pair, truth, m_hat_h, s_m, s_x, HG, 0.05,
            m_hat_complete=m_hat_c,
        )
        assert complete_batch_precision(inp).lower_bound == 0.0

    def test_missing_complete_rejected(self, world):
        pair, truth, m_hat_h, _, s_m, s_x = self.make_inputs(world)
        inp = base_input(
            pair, truth, m_hat_h, s_m, s_x, HOEFF, 0.05
        )
        with pytest.raises(MatchcertError, match="missing-complete"):
            complete_batch_recall(inp)

    def test_empty_complete_set_rejected(self, world):
        pair, truth, m_hat_h, _, s_m, s_x = self.make_inputs(world)
        empty = make_match_set([], pair)
        inp = base_input(
            pair, truth, m_hat_h, s_m, s_x, HOEFF, 0.05,
            m_hat_complete=empty,
        )
        error = "^no-identified-matches: complete identified set is empty$"
        with pytest.raises(MatchcertError, match=error):
            complete_batch_precision(inp)
        with pytest.raises(MatchcertError, match=error):
            batch_reports(inp)

    def test_empty_holdout_set_rejected(self, world):
        # a complete certificate reads its terms from the holdout-batch-
        # precision report, which an empty holdout set cannot give, even
        # when the certificate is called on its own
        pair, truth, _, m_hat_c, s_m, s_x = self.make_inputs(world)
        empty = make_match_set([], pair)
        inp = base_input(
            pair, truth, empty, s_m, s_x, HOEFF, 0.05, m_hat_complete=m_hat_c
        )
        error = "^no-identified-matches: holdout identified set is empty$"
        for certify in (complete_batch_recall, complete_batch_precision, batch_reports):
            with pytest.raises(MatchcertError, match=error):
                certify(inp)

    def test_k_y_below_one_rejected(self, world):
        pair, truth, m_hat_h, _, s_m, s_x = self.make_inputs(world)
        with pytest.raises(MatchcertError, match="^invalid-ky: 0$"):
            base_input(pair, truth, m_hat_h, s_m, s_x, HOEFF, 0.05,
                       k_y=0)


class TestDuplicateSampleItems:
    """A without-replacement sample has distinct items; a repeated verified
    match would be counted several times."""

    @staticmethod
    def ten_pair_input(s_m, s_x):
        names = [f"{i}" for i in range(10)]
        pair = NetworkPair(
            make_network([f"x{n}" for n in names], []),
            make_network([f"y{n}" for n in names], []),
        )
        truth = make_match_set([(f"x{n}", f"y{n}") for n in names], pair)
        return base_input(pair, truth, truth, s_m, s_x, HG, 0.05)

    def test_repeated_s_m_pair_rejected(self):
        # one verified match, counted eight times, would certify holdout
        # batch recall >= 0.9 with m_size 10: a MatchSet's keys are
        # distinct (``validate batch`` rejects a repeated s_m line)
        inp = self.ten_pair_input([("x0", "y0")], ["x0"])
        ids = inp.pair.x_net.index.ids, inp.pair.y_net.index.ids
        with pytest.raises(MatchcertError) as info:
            replace(inp, s_m=MatchSet(*ids, np.zeros(8, dtype=np.int64)))
        assert str(info.value) == "invalid-keys: s_m is no sorted set of allowed pair keys"

    def test_repeated_s_x_node_rejected(self):
        inp = self.ten_pair_input([("x0", "y0")], ["x3", "x1", "x2", "x1", "x3"])
        for certify in (batch_reports, holdout_batch_precision):
            with pytest.raises(MatchcertError) as info:
                certify(inp)
            # the first item that repeats an earlier one, in input order
            assert str(info.value) == "duplicate-sample-item: s_x repeats 'x1'"


class TestUnknownSampleNodes:
    """A sampled pair or node outside the networks is rejected, as the query
    certificates reject it, rather than counted as a miss or a node with no
    matches; so is an identity pair in self-match mode."""

    ten_pair_input = staticmethod(TestDuplicateSampleItems.ten_pair_input)

    @staticmethod
    def outside(inp, name):
        """The errors of ``inp`` with the set field ``name`` holding a pair
        outside the networks: over a pair whose Y also holds "nobody", and
        as a raw key past |X|·|Y|."""
        x_net, ids = inp.pair.x_net, inp.pair.x_net.index.ids
        wider = NetworkPair(x_net, make_network([*inp.pair.y_net.index.ids, "nobody"], []))
        errors = []
        for bad in (
            make_match_set([("x0", "y0"), ("x1", "nobody")], wider),
            MatchSet(ids, inp.pair.y_net.index.ids, np.array([0, 11, 100])),
        ):
            with pytest.raises(MatchcertError) as info:
                replace(inp, **{name: bad})
            errors.append(str(info.value))
        return errors

    def test_s_m_pair_outside_the_networks_rejected(self):
        inp = self.ten_pair_input([("x0", "y0")], ["x0"])
        assert self.outside(inp, "s_m") == [
            "universe-mismatch: match sets over different X or Y node id lists",
            "invalid-keys: s_m is no sorted set of allowed pair keys",
        ]

    def test_s_x_node_outside_x_rejected(self):
        inp = self.ten_pair_input([("x0", "y0")], ["x0", "nobody", "x1"])
        for certify in (batch_reports, holdout_batch_precision):
            with pytest.raises(MatchcertError) as info:
                certify(inp)
            assert str(info.value) == "unknown-node: 'nobody'"

    def test_verified_match_outside_y_rejected(self):
        # it would count as an actual match of x1 in the density term
        inp = self.ten_pair_input([("x0", "y0")], ["x0", "x1", "x2"])
        assert self.outside(inp, "actual_for") == [
            "universe-mismatch: match sets over different X or Y node id lists",
            "invalid-keys: actual_for is no sorted set of allowed pair keys",
        ]

    def test_identity_s_m_pair_rejected_in_self_match_mode(self):
        # one shared universe: (n2, n2) is no match, and would count as a
        # miss; its key is n2's row and column
        net = make_network([f"n{i}" for i in range(10)], [])
        pair = NetworkPair(net, net, self_match_mode=True)
        truth = make_match_set([(f"n{i}", f"n{(i + 1) % 10}") for i in range(10)], pair)
        inp = base_input(pair, truth, truth, [("n0", "n1")], ["n0", "n2"], HG, 0.05)
        # so is an identity pair among a sampled node's verified matches
        with_identity = MatchSet(net.index.ids, net.index.ids, np.array([1, 22, 34]))
        for name in ("s_m", "actual_for"):
            with pytest.raises(MatchcertError) as info:
                replace(inp, **{name: with_identity})
            assert str(info.value) == (
                f"invalid-keys: {name} is no sorted set of allowed pair keys"
            )


class TestMatchCountCap:
    """The match-density term's counts lie in [0, k_y]: a sampled node with
    more verified matches than k_y is rejected, naming the node and k_y."""

    ten_pair_input = staticmethod(TestDuplicateSampleItems.ten_pair_input)

    @pytest.mark.parametrize("method", [HG, HOEFF])
    def test_node_over_k_y_rejected(self, method):
        inp = self.ten_pair_input([("x0", "y0")], ["x3", "x1", "x2"])
        two = make_match_set([*inp.actual_for.sorted_pairs, ("x1", "y2")], inp.pair)
        inp = replace(inp, actual_for=two, method=method)
        for certify in (batch_reports, holdout_batch_precision):
            with pytest.raises(MatchcertError) as info:
                certify(inp)
            assert str(info.value) == (
                "ky-violated: node 'x1' has more than k_y=1 actual matches"
            )
        # within a cap of two the same sample is certified
        assert holdout_batch_precision(replace(inp, k_y=2)).lower_bound is not None


class TestBatchReports:
    def test_holdout_only_without_complete_set(self, world):
        pair, truth = world
        m_hat = make_match_set(truth.pairs, pair)
        s_m = sample_without_replacement(sorted(truth.pairs), 40, 2)
        s_x = sample_without_replacement(sorted(pair.x_net.nodes), 60, 3)
        reports = batch_reports(
            base_input(pair, truth, m_hat, s_m, s_x, HG, 0.05)
        )
        assert [r.bound_id for r in reports] == [
            "holdout-batch-recall",
            "holdout-batch-precision",
        ]
        assert [len(r.delta_parts) for r in reports] == [1, 2]

    def test_digest_is_of_each_certificates_inputs(self, world):
        # the certificates of one call share their inputs; each digest
        # must still hash the certificate's own whole payload
        pair, truth = world
        m_hat_h = make_match_set(sorted(truth.pairs)[::2], pair)
        m_hat_c = make_match_set(truth.pairs, pair)
        s_m = sample_without_replacement(sorted(truth.pairs), 40, 2)
        s_x = sample_without_replacement(sorted(pair.x_net.nodes), 60, 3)
        inp = base_input(
            pair, truth, m_hat_h, s_m, s_x, HG, 0.05,
            m_hat_complete=m_hat_c,
        )
        reports = batch_reports(inp)
        assert len(reports) == 4
        for r in reports:
            complete = m_hat_c if r.variant == "complete" else None
            inputs = {
                "n_x": len(pair.x_net.nodes),
                "m_hat_holdout": sorted(map(list, m_hat_h.pairs)),
                "m_hat_complete": (
                    sorted(map(list, complete.pairs)) if complete else None
                ),
                "s_m": sorted(map(list, s_m)),
                "s_x": sorted(s_x),
                "actual_for": list(map(list, truth.sorted_pairs)),
                "k_y": 1,
                "method": HG.value,
                "deltas": list(r.delta_parts),
                "m_size": len(truth.pairs),
            }
            assert r.inputs_digest == digest_of({"bound_id": r.bound_id, **inputs})
        alone = holdout_batch_recall(replace(inp, m_hat_complete=None))
        assert alone.inputs_digest == reports[0].inputs_digest


def complete_world_input(pair, truth, **kw):
    """A batch input with a complete set that differs from the holdout one."""
    m_hat_h = make_match_set(sorted(truth.pairs)[::2], pair)
    m_hat_c = make_match_set(sorted(truth.pairs)[::3], pair)
    s_m = sample_without_replacement(sorted(truth.pairs), 40, 2)
    s_x = sample_without_replacement(sorted(pair.x_net.nodes), 60, 3)
    return base_input(
        pair, truth, m_hat_h, s_m, s_x, HG, 0.05,
        m_hat_complete=m_hat_c, **kw,
    )


def assert_same_reports(got, want):
    """Equal reports, field by field and by the digest."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for f in fields(ValidationReport):
            if f.compare:
                assert getattr(a, f.name) == getattr(b, f.name), f.name
        assert a.inputs_digest == b.inputs_digest
        assert a == b


class TestSharedTerms:
    def test_each_certificate_alone_equals_its_report(self, world):
        # each certificate runs on its own copy of the input with the
        # complete set, so it computes s_m's hits itself
        inp = complete_world_input(*world)
        alone = [
            certify(replace(inp))
            for certify in (
                holdout_batch_recall,
                holdout_batch_precision,
                complete_batch_recall,
                complete_batch_precision,
            )
        ]
        reports = batch_reports(inp)
        assert_same_reports(reports, alone)
        assert [r.to_json_dict() for r in reports] == [r.to_json_dict() for r in alone]
        # a holdout report's digest leaves the complete set out
        holdout = replace(inp, m_hat_complete=None)
        assert_same_reports(reports[:2], batch_reports(holdout))

    def test_recall_and_density_terms_computed_once(self, world, monkeypatch):
        import matchcert.batch as batch

        calls = []
        for name in ("_recall_term", "_density_term"):
            def counting(*args, call=getattr(batch, name), name=name):
                calls.append((name, *(d.delta for d in args if isinstance(d, Confidence))))
                return call(*args)

            monkeypatch.setattr(batch, name, counting)
        batch_reports(complete_world_input(*world))
        # holdout recall spends all of delta; the three two-term
        # certificates share one recall and one density term at delta / 2
        assert sorted(calls) == [
            ("_density_term", 0.025), ("_recall_term", 0.025), ("_recall_term", 0.05),
        ]

    def test_error_precedence_unchanged(self, world):
        pair, truth = world
        empty = make_match_set([], pair)
        inp = complete_world_input(pair, truth)
        for bad_s_x, error in (((), "empty-sample"), (("x0", "nope"), "unknown-node")):
            bad = replace(inp, s_x=bad_s_x)
            with pytest.raises(MatchcertError, match=error):
                batch_reports(bad)
            # an empty holdout set is reported before the bad s_x, as
            # holdout_batch_precision alone reports it
            for no_matches in (
                replace(bad, m_hat_holdout=empty),
                replace(bad, m_hat_holdout=empty, m_hat_complete=None),
            ):
                with pytest.raises(MatchcertError, match="no-identified-matches"):
                    batch_reports(no_matches)


class TestCompleteReadsHoldout:
    """A complete certificate reads its recall and match-density terms from
    the holdout-batch-precision report (``held``)."""

    def test_complete_certificates_read_the_holdout_terms(self, world, monkeypatch):
        # the recall and density terms at half the delta are bounded once,
        # by holdout-batch-precision: the complete reports carry them bit
        # for bit
        import matchcert.batch as batch

        calls = []
        for name in ("verified_sample", "bound_term"):
            def counting(*args, call=getattr(batch, name), name=name, **kwargs):
                calls.append(name)
                return call(*args, **kwargs)

            monkeypatch.setattr(batch, name, counting)
        reports = {r.bound_id: r for r in batch_reports(complete_world_input(*world))}
        # s_x's verified matches are checked and counted once
        assert sorted(calls) == ["bound_term"] * 3 + ["verified_sample"]
        held = reports["holdout-batch-precision"]
        for bound_id in ("complete-batch-recall", "complete-batch-precision"):
            complete = reports[bound_id]
            assert complete.terms["disagreement_count"] > 0
            for term in ("recall_term", "match_density_term"):
                assert complete.terms[term].hex() == held.terms[term].hex()
                assert complete.term_methods[term] == held.term_methods[term]


class TestDeferredDigest:
    @staticmethod
    def reports_and_payload():
        """Reports of a fresh world, the full payload of each report's
        digest, and a weakref to the world's NetworkPair; the world and
        the input are dropped on return."""
        cfg = GeneratorConfig(
            n_entities=120, base_model=ErdosRenyi(0.04), node_drop_x=0.1,
            node_drop_y=0.1, rng_seed=7,
        )
        pair, truth = generate_pair(cfg)
        inp = complete_world_input(pair, truth)
        reports = batch_reports(inp)
        payloads = []
        for r in reports:
            complete = inp.m_hat_complete if r.variant == "complete" else None
            payloads.append({
                "bound_id": r.bound_id,
                "n_x": len(pair.x_net.nodes),
                "m_hat_holdout": sorted(map(list, inp.m_hat_holdout.pairs)),
                "m_hat_complete": (
                    sorted(map(list, complete.pairs)) if complete else None
                ),
                "s_m": list(map(list, inp.s_m.sorted_pairs)),
                "s_x": sorted(inp.s_x),
                "actual_for": list(map(list, truth.sorted_pairs)),
                "k_y": 1,
                "method": HG.value,
                "deltas": list(r.delta_parts),
                "m_size": len(truth.pairs),
            })
        return reports, payloads, weakref.ref(pair)

    def test_digest_read_after_the_input_is_gone(self):
        reports, payloads, pair_ref = self.reports_and_payload()
        gc.collect()
        assert pair_ref() is None  # the reports do not keep the networks
        assert "inputs_digest" not in vars(reports[0])  # not computed yet
        for r, payload in zip(reports, payloads):
            assert r.inputs_digest == digest_of(payload)
            assert r.to_json_dict()["inputs_digest"] == r.inputs_digest

    def test_pickled_reports_keep_their_digests(self, world):
        reports = batch_reports(complete_world_input(*world))
        copies = pickle.loads(pickle.dumps(reports))
        assert [r.inputs_digest for r in copies] == [r.inputs_digest for r in reports]
        assert copies == reports

    def test_reports_differing_only_in_inputs_are_unequal(self, world):
        inp = replace(complete_world_input(*world), method=HOEFF)
        # Hoeffding's slack ignores the recall term's population size, but
        # m_size is an input
        other = replace(inp, m_size=None)
        for a, b in zip(batch_reports(inp), batch_reports(other)):
            assert a.terms == b.terms and a.lower_bound == b.lower_bound
            assert a.inputs_digest != b.inputs_digest
            assert a != b
            assert a == replace(b, payload=a.payload)


class TestTrueMetrics:
    def test_perfect(self, world):
        pair, truth = world
        m_hat = make_match_set(truth.pairs, pair)
        assert true_batch_metrics(pair, m_hat, truth) == (1.0, 1.0)

    def test_disjoint(self, world):
        pair, truth = world
        wrong = make_match_set([("x0", "y1")], pair)
        assert ("x0", "y1") not in truth.pairs
        assert true_batch_metrics(pair, wrong, truth) == (0.0, 0.0)

    def test_counting(self, world):
        pair, truth = world
        some = sorted(truth.pairs)[:3]
        m_hat = make_match_set(some + [("x0", "y1")], pair)
        p, r = true_batch_metrics(pair, m_hat, truth)
        assert p == 0.75
        assert r == 3 / len(truth.pairs)

    def test_empty_identified_undefined(self, world):
        pair, truth = world
        empty = make_match_set([], pair)
        p, r = true_batch_metrics(pair, empty, truth)
        assert p is None
        assert r == 0.0
