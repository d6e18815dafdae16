import functools
import hashlib
import inspect
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import hypergeom

from matchcert.bounds import (
    KAPPA,
    BoundMethod,
    Confidence,
    MatchcertError,
    PopulationSpec,
    SampleSummary,
    bound_mean,
    bound_term,
    ebs_bounds,
    hoeffding_bounds,
    hypergeom_invert_lower,
    hypergeom_invert_upper,
    hypergeom_pmf,
    hypergeom_tail_lower,
    hypergeom_tail_upper,
    rho_s,
    sample_mean,
    sample_sigma_hat,
)

import matchcert.bounds as bounds_module
from matchcert.reports import ValidationReport, combine_reports
from oracles import (
    hypergeom_invert_lower_reference,
    hypergeom_invert_upper_reference,
    invert_lower_exact,
    invert_upper_exact,
    pmf_exact,
    sigma_hat_pairwise,
    tail_lower_exact,
    tail_upper_exact,
)

D05 = Confidence(0.05)


class TestSampleStats:
    def test_mean_symmetric(self):
        assert sample_mean(SampleSummary.of([0, 0, 1, 1])) == 0.5

    def test_mean_counting(self):
        assert sample_mean(SampleSummary.of([1] * 45 + [0] * 5)) == 0.9

    def test_mean_empty(self):
        with pytest.raises(MatchcertError, match="empty-sample"):
            sample_mean(SampleSummary.of([]))

    def test_sigma_constant_sample(self):
        assert sample_sigma_hat(SampleSummary.of([0.7] * 9)) == 0.0

    def test_sigma_two_points(self):
        # pairwise double sum: (1 + 1) / (2 * 4) = 0.25, sqrt = 0.5
        assert sigma_hat_pairwise([0.0, 1.0]) == 0.5
        assert sample_sigma_hat(SampleSummary.of([0, 1])) == 0.5

    def test_sigma_binary_balanced(self):
        assert sample_sigma_hat(SampleSummary.of([0, 0, 1, 1])) == pytest.approx(
            sigma_hat_pairwise([0, 0, 1, 1]), abs=1e-15
        )
        assert sample_sigma_hat(SampleSummary.of([0, 0, 1, 1])) == 0.5

    def test_sigma_pairwise_identity_random(self):
        rng = random.Random(20260808)
        for _ in range(50):
            vals = [rng.uniform(-2, 3) for _ in range(rng.randint(1, 40))]
            got = sample_sigma_hat(SampleSummary.of(vals))
            assert got == pytest.approx(sigma_hat_pairwise(vals), abs=1e-12)


class TestRho:
    def test_half_sample(self):
        assert rho_s(100, 50) == pytest.approx(0.51, abs=1e-15)

    def test_past_half(self):
        assert rho_s(100, 60) == pytest.approx(0.404, abs=1e-15)

    def test_census(self):
        assert rho_s(100, 100) == 0.0

    @pytest.mark.parametrize("s", [0, 101, -1])
    def test_invalid(self, s):
        with pytest.raises(MatchcertError, match="invalid-sample-size"):
            rho_s(100, s)


class TestHoeffding:
    def test_fixture(self):
        # mu=0.9, s=200, delta=0.05: slack = sqrt(ln(20)/400)
        pop = PopulationSpec(10**6, 0.0, 1.0)
        sample = SampleSummary.of([1.0] * 180 + [0.0] * 20)
        res = hoeffding_bounds(pop, sample, D05)
        assert res.estimate == 0.9
        assert res.diagnostics["slack"] == pytest.approx(0.08654091913011426, abs=1e-12)
        assert res.lower == pytest.approx(0.8134590808698857, abs=1e-9)
        assert res.upper == pytest.approx(0.9865409191301143, abs=1e-9)

    def test_slack_vanishes_with_sample_size(self):
        pop = PopulationSpec(10**9, 0.0, 1.0)
        prev = 1.0
        for s in (10, 100, 10_000, 1_000_000):
            res = hoeffding_bounds(pop, SampleSummary.of([0.5] * s), Confidence(0.9))
            assert res.diagnostics["slack"] < prev
            prev = res.diagnostics["slack"]
        assert prev < 1e-3
        assert res.lower == pytest.approx(0.5, abs=1e-3)

    def test_clamped_at_zero(self):
        pop = PopulationSpec(1000, 0.0, 1.0)
        res = hoeffding_bounds(pop, SampleSummary.of([0.0] * 10), D05)
        assert res.lower == 0.0
        assert res.estimate == 0.0

    def test_out_of_range_value_rejected(self):
        with pytest.raises(MatchcertError, match="value-out-of-range"):
            hoeffding_bounds(PopulationSpec(10, 0, 1), SampleSummary.of([1.5]), D05)

    @pytest.mark.parametrize("at", [1, 2, 4])
    def test_nan_past_the_first_value_rejected(self, at):
        # min and max skip a NaN unless it comes first
        values = [0.5, 0.25, 1.0, 0.0, 0.75]
        values[at] = math.nan
        sample = SampleSummary.of(values)
        assert min(sample.values) >= 0.0 and max(sample.values) <= 1.0
        for method in (BoundMethod.HOEFFDING, BoundMethod.EBS):
            with pytest.raises(MatchcertError, match="value-out-of-range: nan"):
                bound_mean(PopulationSpec(10), sample, method, D05)

    def test_first_bad_value_named(self):
        sample = SampleSummary.of([0.5, 2.0, -1.0, math.nan])
        with pytest.raises(MatchcertError, match="value-out-of-range: 2.0 outside"):
            hoeffding_bounds(PopulationSpec(10, 0, 1), sample, D05)


class TestEbs:
    def test_kappa(self):
        assert KAPPA == pytest.approx(4.454653676892976, abs=1e-15)

    def test_constant_sample_slack(self):
        # sigma term vanishes; slack = KAPPA * ln(100) / 100
        pop = PopulationSpec(10**6, 0.0, 1.0)
        res = ebs_bounds(pop, SampleSummary.of([0.3] * 100), D05)
        assert res.diagnostics["sigma_hat"] == 0.0
        assert res.diagnostics["slack"] == pytest.approx(0.20514438301729762, abs=1e-12)

    def test_low_variance_beats_hoeffding(self):
        # sigma_hat = 0.05, s = 1000, n >> s: EBS slack 0.0253 < Hoeffding 0.0387.
        pop = PopulationSpec(10**9, 0.0, 1.0)
        # 1000 values with mean 0.5 and std exactly 0.05
        vals = [0.45] * 500 + [0.55] * 500
        sample = SampleSummary.of(vals)
        assert sample_sigma_hat(sample) == pytest.approx(0.05, abs=1e-15)
        ebs = ebs_bounds(pop, sample, D05)
        hoef = hoeffding_bounds(pop, sample, D05)
        assert ebs.diagnostics["slack"] == pytest.approx(0.02531296181705355, abs=1e-8)
        assert hoef.diagnostics["slack"] == pytest.approx(0.038702275602049495, abs=1e-12)
        assert ebs.diagnostics["slack"] < hoef.diagnostics["slack"]

    def test_census_kills_variance_term(self):
        pop = PopulationSpec(50, 0.0, 1.0)
        res = ebs_bounds(pop, SampleSummary.of([0, 1] * 25), D05)
        assert res.diagnostics["rho_s"] == 0.0
        assert res.diagnostics["variance_term"] == 0.0
        assert res.diagnostics["slack"] == res.diagnostics["range_term"]

    def test_squares_past_the_float_range(self):
        # scaling values and range by 2**1000 scales every term exactly;
        # the squares overflow there, which once read as sigma_hat = 0 and
        # gave a bound too narrow to hold
        vals = [0.0, 0.8] * 1000 + [0.3, 0.55, 0.05]
        big = 2.0**1000
        for method in (BoundMethod.EBS, BoundMethod.HOEFFDING):
            small = bound_mean(PopulationSpec(10**6), SampleSummary.of(vals), method, D05)
            scaled = bound_mean(
                PopulationSpec(10**6, 0.0, big),
                SampleSummary.of([v * big for v in vals]),
                method,
                D05,
            )
            assert (scaled.estimate, scaled.lower, scaled.upper) == (
                small.estimate * big, small.lower * big, small.upper * big
            )
            assert scaled.diagnostics == {
                name: value * (1.0 if name == "rho_s" else big)
                for name, value in small.diagnostics.items()
            }


class TestHypergeomPmf:
    def test_fixture(self):
        assert hypergeom_pmf(4, 10, 5, 2) == pytest.approx(10 / 21, abs=1e-14)

    def test_impossible(self):
        assert hypergeom_pmf(4, 10, 5, 5) == 0.0

    @pytest.mark.parametrize("m,n,s", [(0, 7, 3), (4, 10, 5), (9, 9, 4), (3, 8, 8)])
    def test_normalization(self, m, n, s):
        total = math.fsum(hypergeom_pmf(m, n, s, k) for k in range(s + 1))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_param_validation(self):
        with pytest.raises(MatchcertError, match="invalid-hypergeom-params"):
            hypergeom_pmf(11, 10, 5, 2)
        with pytest.raises(MatchcertError, match="invalid-hypergeom-params"):
            hypergeom_pmf(4, 10, 5, 6)

    def test_matches_exact_small(self):
        for n in range(1, 13):
            for s in range(0, n + 1):
                for m in range(0, n + 1):
                    for k in range(0, s + 1):
                        assert hypergeom_pmf(m, n, s, k) == pytest.approx(
                            float(pmf_exact(m, n, s, k)), abs=1e-13
                        )


class TestHypergeomTails:
    def test_full_support(self):
        assert hypergeom_tail_upper(4, 10, 5, 0) == pytest.approx(1.0, abs=1e-12)
        assert hypergeom_tail_lower(4, 10, 5, 5) == pytest.approx(1.0, abs=1e-12)

    def test_impossible_event(self):
        assert hypergeom_tail_upper(4, 10, 5, 5) == 0.0

    def test_matches_exact_small(self):
        for n in range(1, 11):
            for s in range(0, n + 1):
                for m in range(0, n + 1):
                    for k in range(0, s + 1):
                        assert hypergeom_tail_upper(m, n, s, k) == pytest.approx(
                            float(tail_upper_exact(m, n, s, k)), abs=1e-12
                        )
                        assert hypergeom_tail_lower(m, n, s, k) == pytest.approx(
                            float(tail_lower_exact(m, n, s, k)), abs=1e-12
                        )

    def test_step_in_m_has_a_closed_form(self):
        # P{X >= k | m + 1} - P{X >= k | m} = (s/n) P{Y = k - 1}, Y the count
        # of s - 1 draws from n - 1 items of which m are successes: the count
        # reaches k only through the added success, drawn with k - 1 others
        for n in range(1, 31):
            for s in range(1, n + 1):
                tails = [_upper_tails_exact(m, n, s) for m in range(n + 1)]
                for m in range(n):
                    for k in range(1, s + 1):
                        step = Fraction(s, n) * pmf_exact(m, n - 1, s - 1, k - 1)
                        assert tails[m + 1][k] - tails[m][k] == step, (n, s, m, k)
                        assert bounds_module._tail_step(m, n, s, k) == pytest.approx(
                            float(step), rel=1e-12
                        ), (n, s, m, k)


def _upper_tails_exact(m: int, n: int, s: int) -> list[Fraction]:
    """P{X >= k | m} for k = 0..s, exactly."""
    tails = [Fraction(0)] * (s + 2)
    for k in range(s, -1, -1):
        tails[k] = tails[k + 1] + pmf_exact(m, n, s, k)
    return tails[: s + 1]


class TestInversion:
    def test_lower_fixture(self):
        # scan: upper tail at m=7 is 1/12 >= 0.05, at m=6 it is 1/42 < 0.05
        assert hypergeom_invert_lower(10, 5, 5, D05) == 0.7

    def test_upper_fixture(self):
        assert hypergeom_invert_upper(10, 5, 0, D05) == 0.3

    def test_census_pins_count(self):
        for delta in (0.01, 0.5, 0.99):
            assert hypergeom_invert_lower(10, 10, 4, Confidence(delta)) == 0.4
            assert hypergeom_invert_upper(10, 10, 4, Confidence(delta)) == 0.4

    def test_lower_k0(self):
        assert hypergeom_invert_lower(50, 20, 0, D05) == 0.0

    def test_upper_ks(self):
        assert hypergeom_invert_upper(50, 20, 20, D05) == 1.0

    def test_matches_exact_scan(self):
        dexact = Fraction(1, 20)
        for n in range(1, 11):
            for s in range(1, n + 1):
                for k in range(0, s + 1):
                    assert hypergeom_invert_lower(n, s, k, D05) == pytest.approx(
                        float(invert_lower_exact(n, s, k, dexact)), abs=1e-12
                    )
                    assert hypergeom_invert_upper(n, s, k, D05) == pytest.approx(
                        float(invert_upper_exact(n, s, k, dexact)), abs=1e-12
                    )

    @given(
        n=st.integers(2, 80),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_lower_monotone_in_k_and_delta(self, n, data):
        s = data.draw(st.integers(1, n))
        k = data.draw(st.integers(0, s - 1)) if s > 1 else 0
        d1 = data.draw(st.floats(0.001, 0.4))
        d2 = data.draw(st.floats(0.401, 0.95))
        lo_k = hypergeom_invert_lower(n, s, k, Confidence(d1))
        lo_k1 = hypergeom_invert_lower(n, s, min(k + 1, s), Confidence(d1))
        assert lo_k1 >= lo_k
        assert hypergeom_invert_lower(n, s, k, Confidence(d2)) >= lo_k

    @given(n=st.integers(2, 80), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_upper_monotone(self, n, data):
        s = data.draw(st.integers(1, n))
        k = data.draw(st.integers(0, s - 1)) if s > 1 else 0
        d1 = data.draw(st.floats(0.001, 0.4))
        d2 = data.draw(st.floats(0.401, 0.95))
        up_k = hypergeom_invert_upper(n, s, k, Confidence(d1))
        assert hypergeom_invert_upper(n, s, min(k + 1, s), Confidence(d1)) >= up_k
        assert hypergeom_invert_upper(n, s, k, Confidence(d2)) <= up_k


# The deltas of a single bound and of 4- and 6-way splits of 0.05.
SEARCH_DELTAS = (0.05, 0.05 / 4, 0.05 / 6, 0.01)


def sweep_shaped_cases(seed: int, edges: bool) -> list[tuple[int, int, int]]:
    """(n, s, k) on the bounds-sweep grid: k drawn at means 0.05, 0.5 and
    0.95, plus k in {0, 1, s - 1, s} when ``edges``."""
    rng = random.Random(seed)
    cases = []
    for n in (2_000, 100_000, 1_000_000):
        for s in (50, 200, 2_000):
            ks = [
                sum(rng.random() < mean for _ in range(s)) for mean in (0.05, 0.5, 0.95)
            ]
            if edges:
                ks += [0, 1, s - 1, s, rng.randint(0, s)]
            cases += [(n, s, k) for k in ks]
    return cases


# the same floats as _tail, each computed once across all the deltas
_CACHED_TAIL = functools.cache(bounds_module._tail)


class TestInversionSearch:
    """The guided search returns exactly what bisection returns, in few
    tail evaluations."""

    @pytest.mark.parametrize("delta", SEARCH_DELTAS)
    def test_equals_bisection_exhaustively_small(self, delta, monkeypatch):
        d = Confidence(delta)
        monkeypatch.setattr(bounds_module, "_tail", _CACHED_TAIL)
        for n in range(1, 41):
            for s in range(1, n + 1):
                for k in range(s + 1):
                    assert hypergeom_invert_lower(
                        n, s, k, d
                    ) == hypergeom_invert_lower_reference(n, s, k, d), (n, s, k)
                    assert hypergeom_invert_upper(
                        n, s, k, d
                    ) == hypergeom_invert_upper_reference(n, s, k, d), (n, s, k)

    def test_equals_bisection_on_large_grid(self):
        for n, s, k in sweep_shaped_cases(8, edges=True):
            # 1e-12 puts the tie-slopped level below 0: every m passes
            for delta in (*SEARCH_DELTAS, 0.001, 0.5, 0.9, 1e-12):
                d = Confidence(delta)
                assert hypergeom_invert_lower(
                    n, s, k, d
                ) == hypergeom_invert_lower_reference(n, s, k, d), (n, s, k, delta)
                assert hypergeom_invert_upper(
                    n, s, k, d
                ) == hypergeom_invert_upper_reference(n, s, k, d), (n, s, k, delta)

    def test_tail_evaluations(self, monkeypatch):
        # plain bisection needs ~log2(n) = 11 to 20 evaluations here
        tail = bounds_module._tail
        calls = []

        def counted(*args):
            calls.append(args)
            return tail(*args)

        monkeypatch.setattr(bounds_module, "_tail", counted)
        for edges in (False, True):
            counts = []
            for n, s, k in sweep_shaped_cases(9, edges):
                for invert, trivial in (
                    (hypergeom_invert_lower, 0), (hypergeom_invert_upper, s)
                ):
                    if k == trivial:
                        continue  # answered without a search
                    calls.clear()
                    invert(n, s, k, D05)
                    assert len(calls) <= 2 * math.ceil(math.log2(n)) + 4, (n, s, k)
                    counts.append(len(calls))
            assert any(counts)  # the counter sees the search's calls
            if not edges:
                # 2.91 on average and at most 4 at the time of writing
                assert sum(counts) / len(counts) <= 3.5

    def test_tie_slop_only_widens_the_interval(self, monkeypatch):
        # _TIE_EPS's claim: inverting at delta - _TIE_EPS never narrows the
        # interval of bisection at delta exactly, over every small case
        tail = bounds_module._tail
        deltas = [Confidence(delta) for delta in (0.01, 0.05, 0.1)]
        widened = 0
        for n in range(1, 41):
            # the same floats, each computed once per n
            monkeypatch.setattr(bounds_module, "_tail", functools.cache(tail))
            for s in range(n + 1):
                for k in range(s + 1):
                    for d in deltas:
                        lower = hypergeom_invert_lower(n, s, k, d)
                        upper = hypergeom_invert_upper(n, s, k, d)
                        exact = (
                            hypergeom_invert_lower_reference(n, s, k, d, slop=0.0),
                            hypergeom_invert_upper_reference(n, s, k, d, slop=0.0),
                        )
                        assert lower <= exact[0] and upper >= exact[1], (n, s, k, d)
                        widened += (lower, upper) != exact
        assert widened  # ties that the slop resolves occur on this grid

    @pytest.mark.parametrize(
        "invert, reference, n, s, k, want",
        [
            (hypergeom_invert_lower, hypergeom_invert_lower_reference, 10, 4, 1, 0.7),
            (hypergeom_invert_lower, hypergeom_invert_lower_reference, 10, 7, 3, 0.6),
            (hypergeom_invert_lower, hypergeom_invert_lower_reference,
             10**6, 1500, 1499, 0.999999),
            (hypergeom_invert_upper, hypergeom_invert_upper_reference,
             2000, 814, 2, 0.001),
        ],
    )
    def test_bisection_fallback(self, invert, reference, n, s, k, want):
        # at delta = 0.999999 these searches meet a tail of 1, whose step
        # is 0, where the Newton step is undefined and the search bisects
        # instead
        lines, first = inspect.getsourcelines(bounds_module._least_passing)
        branch = next(i for i, line in enumerate(lines) if "if step == 0.0:" in line)
        assert lines[branch + 1].strip() == "nxt = (a + b) // 2"
        fallback = first + branch + 1
        code, seen = bounds_module._least_passing.__code__, set()

        def trace(frame, event, arg):
            if frame.f_code is not code:
                return None
            seen.add(frame.f_lineno)
            return trace

        d = Confidence(0.999999)
        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            got = invert(n, s, k, d)
        finally:
            sys.settrace(previous)
        assert got == reference(n, s, k, d) == want
        assert fallback in seen

    def test_tail_slices_equal_gathers(self):
        # _tail reads the log-factorial table through slices; the values and
        # the order of operations are those of index arrays, bit for bit
        rng = random.Random(10)
        for _ in range(500):
            n = rng.choice((rng.randint(1, 50), rng.randint(1, 5_000)))
            s, m = rng.randint(0, n), rng.randint(0, n)
            j_lo, j_hi = max(0, s - (n - m)), min(s, m)
            if j_lo > j_hi:
                continue
            lf = bounds_module._logfact(n)
            j = np.arange(j_lo, j_hi + 1)
            logs = (
                (lf[m] - lf[j] - lf[m - j])
                + (lf[n - m] - lf[s - j] - lf[n - m - s + j])
                - (lf[n] - lf[s] - lf[n - s])
            )
            peak = float(logs.max())
            expected = min(1.0, math.exp(peak) * float(np.exp(logs - peak).sum()))
            assert bounds_module._tail(m, n, s, 0) == expected

    def test_tail_step_at_sweep_sizes(self):
        # against scipy's pmf near each sample's mean, where the step is
        # largest; log-factorials near 1e7 carry ~1e-9 of absolute error,
        # as in the tails themselves
        rng = random.Random(12)
        for _ in range(300):
            n = rng.randint(2, 10**6)
            s = rng.randint(1, min(n, 2_000))
            m = rng.randint(0, n - 1)
            k = min(max(1, round(s * m / n) + rng.randint(-3, 3)), s)
            step = s / n * hypergeom.pmf(k - 1, n - 1, m, s - 1)
            assert bounds_module._tail_step(m, n, s, k) == pytest.approx(
                step, rel=1e-7, abs=1e-300
            ), (n, s, m, k)

    def test_exact_population_past_the_table_cap(self, monkeypatch):
        # n = 10**12 once asked numpy for a ~7 TiB table; the cap refuses it
        # before any allocation, which this test would fail on
        def allocation(*args, **kwargs):
            raise AssertionError("the log-factorial table grew past its cap")

        monkeypatch.setattr(bounds_module.np, "fromiter", allocation)
        monkeypatch.setattr(bounds_module.np, "concatenate", allocation)
        have = len(bounds_module._LOGFACT)
        huge = 10**12
        for call in (
            lambda: hypergeom_invert_lower(huge, 5, 1, D05),
            lambda: hypergeom_invert_upper(huge, 5, 1, D05),
            lambda: hypergeom_pmf(3, huge, 5, 1),
            lambda: hypergeom_tail_upper(3, huge, 5, 1),
            lambda: bound_mean(
                PopulationSpec(huge), SampleSummary.of([1.0] * 5),
                BoundMethod.HYPERGEOMETRIC, D05,
            ),
        ):
            with pytest.raises(MatchcertError, match="^population-too-large: .* n=10+$"):
                call()
        assert len(bounds_module._LOGFACT) == have
        # the largest population the tests and the bounds-sweep use passes
        assert bounds_module._MAX_EXACT_N >= 10**6

    def test_logfact_entries_are_lgamma(self):
        lf = bounds_module._logfact(70_000)
        for i in (*range(200), *random.Random(11).sample(range(len(lf)), 200)):
            assert lf[i] == math.lgamma(i + 1.0)


class TestBoundMean:
    def test_hypergeom_delegation(self):
        pop = PopulationSpec(10, 0.0, 1.0)
        sample = SampleSummary.of([1, 1, 1, 1, 1])
        res = bound_mean(pop, sample, BoundMethod.HYPERGEOMETRIC, D05, side="lower")
        assert res.lower == hypergeom_invert_lower(10, 5, 5, D05)
        assert res.upper == 1.0  # unrequested side filled with range endpoint

    def test_hypergeom_rejects_non_binary(self):
        pop = PopulationSpec(10, 0.0, 1.0)
        with pytest.raises(MatchcertError, match="method-requires-binary"):
            bound_mean(pop, SampleSummary.of([0.5, 1.0]), BoundMethod.HYPERGEOMETRIC, D05)

    def test_hypergeom_rejects_non_unit_range(self):
        pop = PopulationSpec(10, 0.0, 2.0)
        with pytest.raises(MatchcertError, match="method-requires-binary"):
            bound_mean(pop, SampleSummary.of([0, 1]), BoundMethod.HYPERGEOMETRIC, D05)

    def test_bound_term_downgrades_exact_off_unit_range(self):
        values = [0.0, 1.0, 2.0, 1.0]
        got = bound_term(10, values, BoundMethod.HYPERGEOMETRIC, D05, "lower", hi=2.0)
        pop = PopulationSpec(10, 0.0, 2.0)
        want = hoeffding_bounds(pop, SampleSummary.of(values), D05).lower
        assert got == (want, "hoeffding")

    def test_hoeffding_delegation(self):
        pop = PopulationSpec(100, 0.0, 1.0)
        sample = SampleSummary.of([0, 1, 1, 0])
        assert (
            bound_mean(pop, sample, BoundMethod.HOEFFDING, D05).lower
            == hoeffding_bounds(pop, sample, D05).lower
        )

    def test_ebs_delegation(self):
        pop = PopulationSpec(100, 0.0, 1.0)
        sample = SampleSummary.of([0, 1, 1, 0])
        assert (
            bound_mean(pop, sample, BoundMethod.EBS, D05).upper
            == ebs_bounds(pop, sample, D05).upper
        )

    @given(d1=st.floats(0.01, 0.45), d2=st.floats(0.46, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_lower_monotone_in_delta(self, d1, d2):
        pop = PopulationSpec(1000, 0.0, 1.0)
        sample = SampleSummary.of([0, 1, 1, 1, 0, 1, 1, 1, 0, 1] * 5)
        for method in BoundMethod:
            lo1 = bound_mean(pop, sample, method, Confidence(d1)).lower
            lo2 = bound_mean(pop, sample, method, Confidence(d2)).lower
            up1 = bound_mean(pop, sample, method, Confidence(d1)).upper
            up2 = bound_mean(pop, sample, method, Confidence(d2)).upper
            assert lo2 >= lo1
            assert up2 <= up1

    def test_dominance_binary_spot(self):
        rng = random.Random(7)
        pop_n = 500
        for _ in range(100):
            s = rng.randint(1, 60)
            k = rng.randint(0, s)
            sample = SampleSummary.of([1.0] * k + [0.0] * (s - k))
            pop = PopulationSpec(pop_n, 0.0, 1.0)
            hg = bound_mean(pop, sample, BoundMethod.HYPERGEOMETRIC, D05).lower
            hf = bound_mean(pop, sample, BoundMethod.HOEFFDING, D05).lower
            assert hg >= hf


# Population sizes up to the bounds-sweep's 10**6, sample sizes up to its
# 2,000, and deltas from a single bound's 0.5 to a tie-slopped level below 0.
PIN_NS = (1, 3, 40, 2_000, 100_000, 1_000_000)
PIN_SS = (1, 2, 5, 50, 200, 2_000)
PIN_DELTAS = (0.5, 0.05, 0.05 / 6, 1e-4, 1e-12)


def pinned_grid():
    """(pop, sample, method, delta, side) for every method, side and delta
    over 0/1 samples at means 0, 0.05, 0.5, 0.95 and 1, and, for Hoeffding
    and EBS, integer samples over [0, 3] and [-1, 2] and uniform samples
    over [0, 1]; values drawn from one seed."""
    rng = random.Random(3_400)
    sides = ("lower", "upper", "both")
    for n in PIN_NS:
        for s in (s for s in PIN_SS if s <= n):
            samples = [
                ((0.0, 1.0), [float(rng.random() < mean) for _ in range(s)])
                for mean in (0.0, 0.05, 0.5, 0.95, 1.0)
            ]
            samples += [
                ((0.0, 3.0), [float(rng.randint(0, 3)) for _ in range(s)]),
                ((-1.0, 2.0), [float(rng.randint(-1, 2)) for _ in range(s)]),
                ((0.0, 1.0), [rng.random() for _ in range(s)]),
            ]
            for (lo, hi), values in samples:
                pop, sample = PopulationSpec(n, lo, hi), SampleSummary.of(values)
                binary = (lo, hi) == (0.0, 1.0) and set(values) <= {0.0, 1.0}
                for method in BoundMethod:
                    if method is BoundMethod.HYPERGEOMETRIC and not binary:
                        continue
                    for delta in PIN_DELTAS:
                        for side in sides:
                            yield pop, sample, method, Confidence(delta), side


# sha256 of the reprs of (estimate, lower, upper, sorted diagnostics) of
# bound_mean over pinned_grid(), in turn, as computed before the sample
# reader and the inversion search were last reworked: a change of speed
# must leave every bound as it was, bit for bit.
PINNED_GRID_CALLS = 7_560
PINNED_GRID_SHA256 = "ad4516a40eb29537934ffb0ed28fbebca1121366c5199214ee85d6d8fcefc74c"


def test_bound_mean_outputs_pinned():
    digest, calls = hashlib.sha256(), 0
    for args in pinned_grid():
        res = bound_mean(*args)
        row = (res.estimate, res.lower, res.upper, sorted(res.diagnostics.items()))
        digest.update(repr(row).encode())
        calls += 1
    assert (calls, digest.hexdigest()) == (PINNED_GRID_CALLS, PINNED_GRID_SHA256)


class TestStandInPopulationSize:
    """A certificate that cannot know the size N' of the population it
    samples passes a stand-in n >= N' instead. For every binary population
    with N' <= 30, every sample size and every stand-in from N' to 4·N'
    (batch recall's k_y·|X| may exceed |M| by more than twice), sum the
    exact probability that the bound computed with n lands on the wrong
    side of the true mean m/N'.

    The exact inversion is not checked here: its bound lies on the m/n
    lattice, is not monotone in n, and fails this check (ROADMAP open
    item 1).
    """

    @pytest.mark.parametrize("method", [BoundMethod.HOEFFDING, BoundMethod.EBS])
    def test_overestimated_size_keeps_coverage(self, method):
        delta = Fraction(1, 20)
        failures = []
        for n_true in range(1, 31):
            stand_ins = (n_true, n_true + 1, 2 * n_true, 3 * n_true, 4 * n_true)
            for s in range(1, n_true + 1):
                bounds = {
                    n: [
                        bound_mean(
                            PopulationSpec(n),
                            SampleSummary.of([1.0] * k + [0.0] * (s - k)),
                            method,
                            D05,
                        )
                        for k in range(s + 1)
                    ]
                    for n in stand_ins
                }
                for m in range(n_true + 1):
                    mean = m / n_true
                    pmf = [pmf_exact(m, n_true, s, k) for k in range(s + 1)]
                    for n in stand_ins:
                        low = sum(
                            p for p, b in zip(pmf, bounds[n]) if b.lower > mean + 1e-12
                        )
                        high = sum(
                            p for p, b in zip(pmf, bounds[n]) if b.upper < mean - 1e-12
                        )
                        if max(low, high) > delta:
                            failures.append((n_true, n, s, m, float(low), float(high)))
        assert failures == []


def _report(*parts: float) -> ValidationReport:
    return ValidationReport("holdout-batch-recall", "recall", "holdout", "batch", parts)


class TestCombineReports:
    """The union bound over reports' delta parts, summed in report order."""

    def test_union_worked_example(self):
        # two subsets validated at 2.5% each hold jointly at 95%
        assert combine_reports([_report(0.025), _report(0.025)]).joint_confidence == 0.95

    def test_single_term(self):
        assert combine_reports([_report(0.07)]).joint_confidence == pytest.approx(0.93)

    def test_exhausted(self):
        for reports in ([_report(0.6), _report(0.6)], [_report(0.5, 0.5)], []):
            with pytest.raises(MatchcertError, match="^budget-exhausted: "):
                combine_reports(reports)

    def test_equal_parts(self):
        report = _report(*(0.05 / 4,) * 4)
        assert report.delta_total == pytest.approx(0.05)
        assert report.confidence == pytest.approx(0.95)
        assert combine_reports([report]).joint_confidence == pytest.approx(0.95)
