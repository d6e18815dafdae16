"""Acceptance suite: every criterion at its pinned tolerance.

A conftest hook prints one pass/fail line per criterion in the terminal
summary; inside each test the criterion() context manager labels the
verdict when run with -s. Approximate runtimes on a small container:
criterion 1 ~ 10 s, criterion 2 ~ 5 s, criterion 4 dominates at a few
minutes; the whole module stays well inside its budgets.
"""

import math
import os
import random
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from matchcert.batch import (
    BatchValidationInput,
    complete_batch_precision,
    complete_batch_recall,
    holdout_batch_precision,
    holdout_batch_recall,
)
from matchcert.bounds import (
    BoundMethod,
    Confidence,
    PopulationSpec,
    SampleSummary,
    bound_mean,
    ebs_bounds,
    hoeffding_bounds,
    hypergeom_invert_lower,
    hypergeom_invert_upper,
    hypergeom_pmf,
    hypergeom_tail_lower,
    hypergeom_tail_upper,
    sample_sigma_hat,
)
from matchcert.coverage import ExperimentConfig, SampleSizes, run_coverage
from matchcert.graphs import by_x, make_match_set
from matchcert.matchers import (
    VERIFIED_SAMPLE,
    MatcherConfig,
    build_matcher,
    run_batch,
    run_query,
)
from matchcert.query import (
    QueryValidationInput,
    complete_query_precision,
    complete_query_recall,
    error_rate_bounds,
    holdout_query_bounds,
)
from matchcert.reports import combine_reports
from matchcert.sampling import (
    SplitSpec,
    sample_without_replacement,
    spawn_rng,
    split_train_validation,
)
from matchcert.synth import ErdosRenyi, GeneratorConfig, generate_pair

from oracles import (
    chisq_pvalue,
    enumerate_procedure_law,
    pmf_exact,
    single_node_precision,
)


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] {name}: FAIL")
        raise
    print(f"[criterion {num}] {name}: PASS")


def test_criterion_1_hypergeometric_exactness():
    with criterion(1, "hypergeometric exactness vs rational oracle, n <= 30"):
        delta = Confidence(0.05)
        delta_exact = Fraction(1, 20)
        worst = 0.0
        for n in range(1, 31):
            for s in range(0, n + 1):
                denom = comb(n, s)
                hplus_table = {}
                hminus_table = {}
                for m in range(0, n + 1):
                    pmf_row = [
                        (
                            Fraction(comb(m, k) * comb(n - m, s - k), denom)
                            if (k <= m and s - k <= n - m)
                            else Fraction(0)
                        )
                        for k in range(s + 1)
                    ]
                    suffix = [Fraction(0)] * (s + 2)
                    for k in range(s, -1, -1):
                        suffix[k] = suffix[k + 1] + pmf_row[k]
                    prefix = Fraction(0)
                    for k in range(0, s + 1):
                        prefix += pmf_row[k]
                        worst = max(
                            worst,
                            abs(hypergeom_pmf(m, n, s, k) - float(pmf_row[k])),
                            abs(
                                hypergeom_tail_upper(m, n, s, k) - float(suffix[k])
                            ),
                            abs(hypergeom_tail_lower(m, n, s, k) - float(prefix)),
                        )
                    hplus_table[m] = suffix
                    hminus_row = []
                    acc = Fraction(0)
                    for k in range(s + 1):
                        acc += pmf_row[k]
                        hminus_row.append(acc)
                    hminus_table[m] = hminus_row
                if s == 0:
                    continue
                for k in range(0, s + 1):
                    lo_m = next(
                        m
                        for m in range(n + 1)
                        if hplus_table[m][k] >= delta_exact
                    )
                    up_m = max(
                        m
                        for m in range(n + 1)
                        if hminus_table[m][k] >= delta_exact
                    )
                    assert (
                        abs(hypergeom_invert_lower(n, s, k, delta) - lo_m / n)
                        < 1e-12
                    ), (n, s, k)
                    assert (
                        abs(hypergeom_invert_upper(n, s, k, delta) - up_m / n)
                        < 1e-12
                    ), (n, s, k)
        assert worst < 1e-12
        # hand-derived inversion fixtures hold exactly
        assert hypergeom_invert_lower(10, 5, 5, delta) == 0.7
        assert hypergeom_invert_upper(10, 5, 0, delta) == 0.3


def test_criterion_2_concentration_coverage():
    with criterion(2, "one-sided coverage, n=10000, s=200, 2000 trials/method"):
        n, s, trials = 10_000, 200, 2_000
        delta = Confidence(0.05)
        tolerance = 0.065  # delta + 3 sigma binomial
        pop_spec = PopulationSpec(n, 0.0, 1.0)
        for mi, mu in enumerate((0.05, 0.5, 0.9)):
            population = np.zeros(n)
            population[: int(mu * n)] = 1.0
            rng = spawn_rng(20260808, mi)
            fails = {m: [0, 0] for m in BoundMethod}
            for _ in range(trials):
                idx = rng.choice(n, size=s, replace=False)
                sample = SampleSummary.of(population[idx])
                for method in BoundMethod:
                    res = bound_mean(pop_spec, sample, method, delta)
                    fails[method][0] += res.lower > mu
                    fails[method][1] += res.upper < mu
            for method, (lo_f, up_f) in fails.items():
                assert lo_f / trials <= tolerance, (method, mu, "lower", lo_f)
                assert up_f / trials <= tolerance, (method, mu, "upper", up_f)


def test_criterion_3_tightness_ordering():
    with criterion(3, "exact beats Hoeffding on binary data; EBS low-variance"):
        rng = random.Random(20260808)
        delta = Confidence(0.05)
        for _ in range(1_000):
            n = rng.randint(2, 2_000)
            s = rng.randint(1, min(n, 400))
            k = rng.randint(0, s)
            sample = SampleSummary.of([1.0] * k + [0.0] * (s - k))
            pop = PopulationSpec(n, 0.0, 1.0)
            hg = bound_mean(pop, sample, BoundMethod.HYPERGEOMETRIC, delta).lower
            hf = bound_mean(pop, sample, BoundMethod.HOEFFDING, delta).lower
            assert hg >= hf - 1e-9, (n, s, k, hg, hf)
        # low-variance fixture: sigma_hat = 0.05, s = 1000, n >> s
        pop = PopulationSpec(10**9, 0.0, 1.0)
        sample = SampleSummary.of([0.45] * 500 + [0.55] * 500)
        assert sample_sigma_hat(sample) == pytest.approx(0.05, abs=1e-15)
        ebs_slack = ebs_bounds(pop, sample, delta).diagnostics["slack"]
        hoeff_slack = hoeffding_bounds(pop, sample, delta).diagnostics["slack"]
        assert ebs_slack == pytest.approx(0.02531296181705355, abs=1e-4)
        assert hoeff_slack == pytest.approx(0.038702275602049495, abs=1e-4)
        assert ebs_slack < hoeff_slack


def test_criterion_4_certificate_coverage_end_to_end():
    with criterion(4, "certificate coverage, n=2000 pairs, 500 trials"):
        trials = 500
        cfg = ExperimentConfig(
            generator=GeneratorConfig(
                n_entities=2_000,
                base_model=ErdosRenyi(6 / 2_000),
                edge_retain_x=0.8,
                edge_retain_y=0.8,
                node_drop_x=0.1,
                node_drop_y=0.1,
                rng_seed=0,
            ),
            matcher_holdout=MatcherConfig(
                "percolation", seeds=VERIFIED_SAMPLE, threshold=2, max_iters=15
            ),
            sample_sizes=SampleSizes(s_m=200, s_x=200, s_x_prime=400, train=120),
            methods=(BoundMethod.HYPERGEOMETRIC,),
            trials=trials,
            seed=20260808,
        )
        table = run_coverage(cfg, jobs=min(2, os.cpu_count() or 1))
        tolerance = 0.05 + 3 * math.sqrt(0.05 * 0.95 / trials)
        bound_ids = {key[0] for key in table.rows}
        assert bound_ids == {
            "holdout-batch-recall",
            "holdout-batch-precision",
            "complete-batch-recall",
            "complete-batch-precision",
            "holdout-query-precision",
            "holdout-query-recall",
            "complete-query-recall",
            "complete-query-precision",
            "holdout-query-error-rate",
            "complete-query-error-rate",
        }
        for key in sorted(table.rows):
            row = table.rows[key]
            assert row.trials == trials
            assert row.failure_rate <= tolerance, (
                key,
                row.failure_rate,
                tolerance,
            )


def _reduction_world(rng: random.Random):
    n_entities = rng.randint(30, 80)
    cfg = GeneratorConfig(
        n_entities=n_entities,
        base_model=ErdosRenyi(rng.uniform(0.08, 0.2)),
        edge_retain_x=rng.uniform(0.85, 1.0),
        edge_retain_y=rng.uniform(0.85, 1.0),
        node_drop_x=rng.uniform(0.0, 0.1),
        node_drop_y=rng.uniform(0.0, 0.1),
        rng_seed=rng.randint(0, 10**6),
    )
    pair, truth = generate_pair(cfg)
    truth_ordered = sorted(truth.pairs)
    seeds = truth_ordered[: max(2, len(truth_ordered) // 3)]
    holdout = build_matcher(
        MatcherConfig(
            "percolation",
            seeds=VERIFIED_SAMPLE,
            threshold=rng.randint(1, 2),
            max_iters=rng.randint(3, 10),
        ),
        training_matches=seeds,
    )
    complete = build_matcher(holdout.config, holdout.training_matches)
    return pair, truth, holdout, complete


def test_criterion_5_reduction_identities():
    with criterion(5, "complete == holdout bounds when matchers coincide"):
        rng = random.Random(77)
        methods = list(BoundMethod)
        for trial in range(100):
            pair, truth, holdout, complete = _reduction_world(rng)
            m_hat_h = run_batch(holdout, pair)
            m_hat_c = run_batch(complete, pair)
            assert m_hat_c.pairs == m_hat_h.pairs
            method = methods[trial % 3]
            # each certificate gets the delta that puts the compared terms
            # at d: a certificate splits its delta equally over its k terms.
            # d is a multiple of 2**-10, so that k * d / k == d exactly.
            d = rng.randint(11, 102) / 1024
            per_x = by_x(truth)
            actual_for = {x: per_x.get(x, frozenset()) for x in pair.x_net.nodes}
            truth_ordered = sorted(truth.pairs)
            s_m = tuple(
                sample_without_replacement(
                    truth_ordered, min(12, len(truth_ordered)), rng.randint(0, 9999)
                )
            )
            # sample nodes the holdout matcher covers plus a few others so
            # both certificates stay computable
            covered = sorted(by_x(m_hat_h))
            others = sorted(pair.x_net.nodes - set(covered))
            s_x = tuple(covered[:10] + others[:3])

            def binp(delta, complete_set=None):
                return BatchValidationInput(
                    pair=pair,
                    m_hat_holdout=m_hat_h,
                    s_m=s_m,
                    s_x=s_x,
                    actual_for=actual_for,
                    method=method,
                    delta=delta,
                    m_hat_complete=complete_set,
                    m_size=len(truth.pairs),
                )

            assert (
                complete_batch_recall(binp(2 * d, m_hat_c)).lower_bound
                == holdout_batch_recall(binp(d)).lower_bound
            )
            assert (
                complete_batch_precision(binp(2 * d, m_hat_c)).lower_bound
                == holdout_batch_precision(binp(2 * d)).lower_bound
            )

            s_x_prime = tuple(
                sample_without_replacement(
                    sorted(pair.x_net.nodes), 10, rng.randint(0, 9999)
                )
            )

            def qinp(delta, with_complete):
                return QueryValidationInput(
                    pair=pair,
                    holdout=holdout,
                    s_x=s_x,
                    actual_for=actual_for,
                    method=method,
                    delta=delta,
                    complete=complete if with_complete else None,
                    s_x_prime=s_x_prime,
                )

            _, rec_h = holdout_query_bounds(qinp(d, False))
            rec_c = complete_query_recall(qinp(2 * d, True))
            assert rec_c.lower_bound == rec_h.lower_bound

            err_h = error_rate_bounds(qinp(d, False))
            err_c = error_rate_bounds(qinp(d, True))
            assert err_c.upper_bound == err_h.upper_bound

            # query precision reduces to the holdout precision term: the
            # census d_p sum is 0 and |D_C| = |D_H|
            prec_c = complete_query_precision(qinp(d, True))
            p_vals = []
            for x in s_x:
                view = run_query(holdout, pair, x)
                if view:
                    p_vals.append(single_node_precision(view, actual_for[x]))
            # the precision term is bounded at the number of nodes the
            # holdout matcher identifies anything for
            expected = bound_mean(
                PopulationSpec(len(covered), 0.0, 1.0),
                SampleSummary.of(p_vals),
                method,
                Confidence(d),
                "lower",
            ).lower
            expected = min(1.0, max(0.0, expected))
            if 0.0 < expected < 1.0:  # a lower bound inside steps one float down
                expected = math.nextafter(expected, 0.0)
            assert prec_c.lower_bound == expected
            assert prec_c.terms["dp"] == 0.0


def test_criterion_6_subsampling_law():
    with criterion(6, "split procedure equals two independent draws"):
        # exact enumeration at (n=6, |labeled|=4, t=2, s=2)
        joint = enumerate_procedure_law(n=6, ell=4, t=2, s=2)
        want = Fraction(1, comb(6, 2) * comb(6, 2))
        assert len(joint) == comb(6, 2) ** 2
        worst = max(abs(p - want) for p in joint.values())
        assert worst < Fraction(1, 10**12)

        # chi-square at (n=40, t=10, s=10), 100k seeded runs
        n, t, s = 40, 10, 10
        runs = 100_000
        population = list(range(n))
        marked = set(range(20))
        rng = spawn_rng(424242)
        t_counts, s_counts, i_counts = Counter(), Counter(), Counter()
        for _ in range(runs):
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


def test_criterion_7_union_bound_arithmetic():
    with criterion(7, "union-bound worked example and simultaneous report"):
        # two identified-match subsets validated simultaneously
        cfg = GeneratorConfig(
            n_entities=60, base_model=ErdosRenyi(0.1), rng_seed=3
        )
        pair, truth = generate_pair(cfg)
        ordered = sorted(truth.pairs)
        half = len(ordered) // 2
        per_x = by_x(truth)
        actual_for = {x: per_x.get(x, frozenset()) for x in pair.x_net.nodes}
        reports = []
        for subset in (ordered[:half], ordered[half:]):
            m_hat = make_match_set(subset, pair)
            inp = BatchValidationInput(
                pair=pair,
                m_hat_holdout=m_hat,
                s_m=tuple(ordered[::3]),
                s_x=("x0",),
                actual_for=actual_for,
                method=BoundMethod.HYPERGEOMETRIC,
                delta=0.025,
                m_size=len(truth.pairs),
            )
            reports.append(holdout_batch_recall(inp))
        combined = combine_reports(reports)
        assert combined.joint_confidence == 0.95
        assert len(combined.reports) == 2


def test_criterion_8_coverage_determinism():
    with criterion(8, "coverage emits byte-identical CSV per seed"):
        cfg = ExperimentConfig(
            generator=GeneratorConfig(
                n_entities=80,
                base_model=ErdosRenyi(0.08),
                edge_retain_x=0.9,
                edge_retain_y=0.9,
                node_drop_x=0.05,
                node_drop_y=0.05,
                rng_seed=0,
            ),
            matcher_holdout=MatcherConfig(
                "percolation", seeds=VERIFIED_SAMPLE, threshold=1, max_iters=8
            ),
            sample_sizes=SampleSizes(s_m=15, s_x=15, s_x_prime=30, train=10),
            methods=(BoundMethod.HOEFFDING, BoundMethod.HYPERGEOMETRIC),
            trials=6,
            seed=99,
        )
        csv_one = run_coverage(cfg).to_csv()
        csv_two = run_coverage(cfg).to_csv()
        assert csv_one.encode() == csv_two.encode()
        # order-independent assembly: a parallel run emits the same bytes
        csv_parallel = run_coverage(cfg, jobs=2).to_csv()
        assert csv_parallel.encode() == csv_one.encode()
