import math
from collections import Counter, defaultdict
from fractions import Fraction
from math import comb

import pytest

from matchcert.errors import MatchcertError
from matchcert.sampling import (
    SplitSpec,
    hypergeometric_draw,
    sample_without_replacement,
    spawn_rng,
    split_train_validation,
    stream_without_replacement,
)

from oracles import chisq_pvalue, enumerate_procedure_law, pmf_exact


class TestSampler:
    def test_full_universe(self):
        got = sample_without_replacement(list("abcd"), 4, 7)
        assert sorted(got) == list("abcd")

    def test_empty(self):
        assert sample_without_replacement(list("abcd"), 0, 7) == []

    def test_too_large(self):
        with pytest.raises(MatchcertError, match="invalid-sample-size"):
            sample_without_replacement([1, 2], 3, 7)

    def test_deterministic_per_seed(self):
        a = sample_without_replacement(list(range(100)), 10, 42)
        b = sample_without_replacement(list(range(100)), 10, 42)
        c = sample_without_replacement(list(range(100)), 10, 43)
        assert a == b
        assert a != c

    def test_subset_frequencies_uniform(self):
        # all 6 two-element subsets of four items within 3 sigma of 1/6
        rng = spawn_rng(20260808, 1)
        runs = 100_000
        counts = Counter(
            frozenset(sample_without_replacement("abcd", 2, rng)) for _ in range(runs)
        )
        assert len(counts) == 6
        p = 1 / 6
        tol = 3 * math.sqrt(p * (1 - p) / runs)
        for subset, c in counts.items():
            assert abs(c / runs - p) <= tol, (subset, c / runs)

    def test_stream_prefix_matches_draw_law(self):
        # first two items of the stream behave like a size-2 draw
        rng = spawn_rng(5, 2)
        runs = 20_000
        counts = Counter()
        for _ in range(runs):
            it = stream_without_replacement("abcd", rng)
            counts[frozenset((next(it), next(it)))] += 1
        p = 1 / 6
        tol = 4 * math.sqrt(p * (1 - p) / runs)
        for c in counts.values():
            assert abs(c / runs - p) <= tol


class TestHypergeometricDraw:
    def test_half_half(self):
        rng = spawn_rng(11)
        draws = [hypergeometric_draw(4, 2, 1, rng) for _ in range(20_000)]
        frac = sum(draws) / len(draws)
        # P(i=1) = C(2,1)C(2,0)/C(4,1) = 1/2
        assert abs(frac - 0.5) < 4 * math.sqrt(0.25 / 20_000)

    def test_no_draws(self):
        assert hypergeometric_draw(10, 4, 0, 3) == 0

    def test_all_marked(self):
        assert hypergeometric_draw(10, 10, 7, 3) == 7

    def test_pmf_match(self):
        rng = spawn_rng(12)
        runs = 40_000
        counts = Counter(hypergeometric_draw(20, 8, 6, rng) for _ in range(runs))
        probs = {
            i: float(pmf_exact(8, 20, 6, i)) for i in range(0, 7)
        }
        assert chisq_pvalue(counts, probs, runs) >= 0.001

    def test_invalid(self):
        with pytest.raises(MatchcertError, match="invalid-hypergeom-params"):
            hypergeometric_draw(5, 6, 2, 1)


class TestSplitProcedure:
    def test_t_zero(self):
        spec = SplitSpec(10, tuple("abcd"), 0, 4, 99)
        train, val = split_train_validation(spec)
        assert train == []
        assert sorted(val) == list("abcd")

    def test_s_zero(self):
        spec = SplitSpec(10, tuple("abcd"), 4, 0, 99)
        train, val = split_train_validation(spec)
        assert sorted(train) == list("abcd")
        assert val == []

    def test_sizes_must_add_up(self):
        with pytest.raises(MatchcertError, match="invalid-split"):
            SplitSpec(10, tuple("abcd"), 1, 1, 99)

    def test_labeled_larger_than_population(self):
        with pytest.raises(MatchcertError, match="invalid-split"):
            SplitSpec(3, tuple("abcd"), 2, 2, 99)

    def test_deterministic(self):
        spec = SplitSpec(20, tuple(range(10)), 6, 4, 123)
        assert split_train_validation(spec) == split_train_validation(spec)

    def test_exact_law_tiny(self):
        # joint law over (train, validation) equals two independent
        # without-replacement draws: 1 / (C(6,2) * C(6,2)) everywhere
        joint = enumerate_procedure_law(n=6, ell=4, t=2, s=2)
        want = Fraction(1, comb(6, 2) * comb(6, 2))
        assert len(joint) == comb(6, 2) * comb(6, 2)
        for key, p in joint.items():
            assert abs(p - want) < Fraction(1, 10**12), key
        # marginals are uniform and the parts are independent
        t_marg = defaultdict(Fraction)
        s_marg = defaultdict(Fraction)
        for (tr, va), p in joint.items():
            t_marg[tr] += p
            s_marg[va] += p
        for p in t_marg.values():
            assert p == Fraction(1, comb(6, 2))
        for p in s_marg.values():
            assert p == Fraction(1, comb(6, 2))
        for (tr, va), p in joint.items():
            assert p == t_marg[tr] * s_marg[va]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_moderate_size_chisquare(self, seed):
        # n=40, |labeled|=20, t=s=10: the train part, the validation part,
        # and their overlap must match their reference hypergeometric laws.
        n, t, s = 40, 10, 10
        population = list(range(n))
        marked = set(range(20))
        runs = 8_000
        rng = spawn_rng(777, seed)
        t_counts, s_counts, i_counts = Counter(), Counter(), Counter()
        for r in range(runs):
            pool = sample_without_replacement(population, t + s, rng)
            spec = SplitSpec(n, tuple(pool), t, s, int(rng.integers(2**63)))
            train, val = split_train_validation(spec)
            t_counts[len(marked.intersection(train))] += 1
            s_counts[len(marked.intersection(val))] += 1
            i_counts[len(set(train) & set(val))] += 1
        probs_half = {j: float(pmf_exact(20, n, 10, j)) for j in range(11)}
        probs_overlap = {j: float(pmf_exact(t, n, s, j)) for j in range(11)}
        assert chisq_pvalue(t_counts, probs_half, runs) >= 0.001
        assert chisq_pvalue(s_counts, probs_half, runs) >= 0.001
        assert chisq_pvalue(i_counts, probs_overlap, runs) >= 0.001
