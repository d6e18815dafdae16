"""One delta per certificate input: every certificate spends ``inp.delta``
split equally over its own k terms, called alone or through
``batch_reports``/``query_reports``."""

from dataclasses import replace

import pytest

from matchcert.batch import (
    BatchValidationInput,
    batch_reports,
    complete_batch_precision,
    complete_batch_recall,
    holdout_batch_precision,
    holdout_batch_recall,
)
from matchcert.bounds import BoundMethod
from matchcert.errors import MatchcertError
from matchcert.graphs import make_match_set
from matchcert.matchers import (
    VERIFIED_SAMPLE,
    MatcherConfig,
    build_matcher,
    run_batch,
)
from matchcert.query import (
    QueryValidationInput,
    complete_query_precision,
    complete_query_recall,
    error_rate_bounds,
    holdout_query_bounds,
    query_reports,
)
from matchcert.sampling import sample_without_replacement
from matchcert.synth import ErdosRenyi, GeneratorConfig, generate_pair

DELTA = 0.06
# the number of bound terms of each certificate, in report order
TERMS = {
    "holdout-batch-recall": 1,
    "holdout-batch-precision": 2,
    "complete-batch-recall": 2,
    "complete-batch-precision": 2,
    "holdout-query-precision": 1,
    "holdout-query-recall": 1,
    "holdout-query-error-rate": 1,
    "complete-query-recall": 2,
    "complete-query-precision": 1,
    "complete-query-error-rate": 1,
}


@pytest.fixture(scope="module")
def inputs():
    """A batch and a query input with complete matchers, at delta 0.06."""
    cfg = GeneratorConfig(
        n_entities=300, base_model=ErdosRenyi(0.03), node_drop_x=0.1,
        node_drop_y=0.1, rng_seed=21,
    )
    pair, truth = generate_pair(cfg)
    ids = pair.x_net.index.ids
    s_m = sample_without_replacement(truth.sorted_pairs, 40, 1)
    s_x = tuple(sample_without_replacement(ids, 60, 2))
    config = MatcherConfig("percolation", seeds=VERIFIED_SAMPLE, threshold=1)
    holdout = build_matcher(config, training_matches=truth.sorted_pairs[::5])
    complete = build_matcher(config, (*truth.sorted_pairs[::5], *s_m))
    m_hat_h, m_hat_c = run_batch(holdout, pair), run_batch(complete, pair)
    batch_inp = BatchValidationInput(
        pair, m_hat_h, make_match_set(s_m, pair), s_x, truth,
        BoundMethod.HYPERGEOMETRIC, DELTA, m_hat_complete=m_hat_c, m_size=truth.keys.size,
    )
    query_inp = QueryValidationInput(
        pair, m_hat_h, s_x, truth, BoundMethod.HYPERGEOMETRIC, DELTA,
        m_hat_complete=m_hat_c, s_x_prime=tuple(sample_without_replacement(ids, 90, 3)),
    )
    return batch_inp, query_inp


def test_each_certificate_alone_splits_delta_and_equals_its_report(inputs):
    batch_inp, query_inp = inputs
    # the holdout certificates of *_reports see the input without the
    # complete set or matcher
    batch_holdout = replace(batch_inp, m_hat_complete=None)
    query_holdout = replace(query_inp, m_hat_complete=None)
    alone = [
        holdout_batch_recall(batch_holdout),
        holdout_batch_precision(batch_holdout),
        complete_batch_recall(batch_inp),
        complete_batch_precision(batch_inp),
        *holdout_query_bounds(query_holdout),
        error_rate_bounds(query_holdout),
        complete_query_recall(query_inp),
        complete_query_precision(query_inp),
        error_rate_bounds(query_inp),
    ]
    reports = batch_reports(batch_inp) + query_reports(query_inp)
    assert [r.bound_id for r in alone] == [r.bound_id for r in reports] == list(TERMS)
    for a, r in zip(alone, reports):
        k = TERMS[a.bound_id]
        assert a.to_json_dict()["delta_parts"] == [DELTA / k] * k
        assert a.delta_total == pytest.approx(DELTA)
        assert (a.lower_bound, a.upper_bound) == (r.lower_bound, r.upper_bound)
        assert a.terms == r.terms and a.term_methods == r.term_methods
        assert a.inputs_digest == r.inputs_digest
        assert a == r


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5, float("nan")])
def test_delta_outside_the_unit_interval_rejected(inputs, bad):
    for inp in inputs:
        with pytest.raises(MatchcertError, match="^invalid-confidence: "):
            replace(inp, delta=bad)
