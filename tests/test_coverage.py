import hashlib
import json
import math
import sys
from dataclasses import replace

import pytest

from matchcert import bounds, graphs, matchers, query, reports

from matchcert.batch import BatchValidationInput, batch_reports
from matchcert.bounds import BoundMethod
from matchcert.coverage import ExperimentConfig, SampleSizes, run_coverage, run_trial
from matchcert.errors import MatchcertError
from matchcert.graphs import MatchSet, make_match_set, matches_of
from matchcert.matchers import (
    VERIFIED_SAMPLE,
    MatcherConfig,
    TopDegree,
    build_matcher,
    run_batch,
)
from matchcert.query import QueryValidationInput, query_reports
from matchcert.sampling import sample_without_replacement, spawn_rng
from matchcert.synth import (
    ErdosRenyi,
    GeneratorConfig,
    PreferentialAttachment,
    generate_pair,
)


def _criterion_4_world(seeds, threshold, trials, s_x=200, methods=None):
    return ExperimentConfig(
        generator=GeneratorConfig(
            n_entities=2_000,
            base_model=ErdosRenyi(6 / 2_000),
            edge_retain_x=0.8,
            edge_retain_y=0.8,
            node_drop_x=0.1,
            node_drop_y=0.1,
        ),
        matcher_holdout=MatcherConfig(
            "percolation", seeds=seeds, threshold=threshold, max_iters=15
        ),
        sample_sizes=SampleSizes(s_m=200, s_x=s_x, s_x_prime=400, train=120),
        methods=methods or (BoundMethod.HYPERGEOMETRIC,),
        trials=trials,
        seed=20260808,
    )


def test_experiment_config_json_round_trip():
    # the config codecs are derived from the dataclass fields: every field
    # must come back, the tagged seeds and base model included
    cfg = ExperimentConfig(
        generator=GeneratorConfig(
            n_entities=300, base_model=PreferentialAttachment(3), edge_retain_x=0.9,
            edge_retain_y=0.85, node_drop_x=0.05, node_drop_y=0.1, attr_noise=0.2,
            rng_seed=17,
        ),
        matcher_holdout=MatcherConfig(
            "percolation", seeds=TopDegree(5), threshold=2, max_iters=9
        ),
        sample_sizes=SampleSizes(s_m=30, s_x=40, s_x_prime=60, train=25),
        methods=(BoundMethod.HOEFFDING, BoundMethod.HYPERGEOMETRIC),
        trials=7,
        seed=11,
        matcher_complete=MatcherConfig(
            "percolation", attr_key="uid", seeds=(("x1", "y1"), ("x2", "y2"))
        ),
        delta_total=0.1,
    )
    doc = json.loads(json.dumps(cfg.to_json_dict()))
    assert ExperimentConfig.from_json_dict(doc) == cfg
    assert doc["generator"]["base_model"] == {"kind": "preferential-attachment", "m_edges": 3}
    assert doc["matcher_holdout"]["seeds"] == {"top-degree-k": 5}
    assert doc["matcher_complete"]["seeds"] == [["x1", "y1"], ["x2", "y2"]]
    assert doc["sample_sizes"] == {"s_m": 30, "s_x": 40, "s_x_prime": 60, "train": 25}
    er = replace(cfg.generator, base_model=ErdosRenyi(0.25))
    assert er.to_json_dict()["base_model"] == {"kind": "erdos-renyi", "p": 0.25}
    assert GeneratorConfig.from_json_dict(er.to_json_dict()) == er


def test_failed_trials_are_counted_not_fatal():
    # under heavy attribute noise an attribute-exact matcher identifies
    # nothing in some worlds: those trials are degenerate
    cfg = ExperimentConfig(
        generator=GeneratorConfig(
            n_entities=10, base_model=ErdosRenyi(0.3), attr_noise=0.8
        ),
        matcher_holdout=MatcherConfig("attribute-exact", attr_key="uid"),
        sample_sizes=SampleSizes(s_m=5, s_x=10, s_x_prime=10, train=0),
        methods=(BoundMethod.HOEFFDING,),
        trials=10,
        seed=6,
    )
    error = "trial-degenerate: a matcher identified nothing$"
    for idx in (5, 8):
        with pytest.raises(MatchcertError, match=f"^trial-failed: trial {idx}: {error}"):
            run_trial(cfg, idx)
    table = run_coverage(cfg)
    assert table.failed_trials == 2
    assert {row.trials for row in table.rows.values()} == {8}
    assert json.loads(table.to_json())["failed_trials"] == 2
    assert table.to_csv().split("\n")[0].split(",")[3] == "trials"
    assert "failed" not in table.to_csv()


def test_top_degree_world_completes_every_trial():
    # a top-degree seed that shares an x or a y with a training pair is
    # dropped, so percolation stays one-to-one: its largest per-node count
    # is 1, which makes p(x) binary and the d_p range [0, 2], and every
    # trial completes
    cfg = _criterion_4_world(TopDegree(30), 1, trials=10)
    table = run_coverage(cfg)
    assert table.failed_trials == 0
    assert {row.trials for row in table.rows.values()} == {10}


def test_no_failed_trials_key_without_failures():
    table = run_coverage(_criterion_4_world("verified-sample", 2, trials=2))
    assert table.failed_trials == 0
    assert "failed_trials" not in table.to_json_dict()


def test_every_trial_failed_raises_the_first_error():
    cfg = _criterion_4_world(TopDegree(30), 1, trials=2, s_x=5_000)
    with pytest.raises(MatchcertError, match="^trial-failed: trial 0: invalid-sample-size"):
        run_coverage(cfg)


def test_census_complete_query_rows_without_s_x_prime():
    # the complete query certificates read their disagreement by census
    # over X, so a trial with no s_x' certifies them: at train 400 the
    # rows pass the criterion-4 tolerance and complete-query-precision,
    # whose only random term is the holdout precision term, averages at
    # least 0.80 (the true complete precision is about 0.998)
    trials = 200
    cfg = _criterion_4_world(VERIFIED_SAMPLE, 2, trials=trials)
    cfg = replace(cfg, sample_sizes=replace(cfg.sample_sizes, s_x_prime=0, train=400))
    table = run_coverage(cfg)
    tolerance = 0.05 + 3 * math.sqrt(0.05 * 0.95 / trials)
    assert table.failed_trials == 0
    rows = {key[0]: row for key, row in table.rows.items()}
    for bound_id in ("complete-query-precision", "complete-query-recall",
                     "complete-query-error-rate"):
        assert rows[bound_id].trials == trials
        assert rows[bound_id].failure_rate <= tolerance, (bound_id, rows[bound_id])
    assert rows["complete-query-precision"].mean_bound >= 0.80


# sha256 of the reprs of run_trial(cfg, i) for i = 0..4 in turn, cfg the
# criterion-4 experiment under all three methods, as computed when the
# complete query certificates first read their disagreement by census: a
# change of representation or of speed must leave every trial record as it
# was.
TRIAL_RECORDS_SHA256 = "1fa91a379665961df5d3d9cea450bc0dd53a1d4521f9037ae58c9de555631e96"


def test_trial_records_pinned():
    cfg = _criterion_4_world(
        VERIFIED_SAMPLE, 2, trials=5,
        methods=(BoundMethod.HOEFFDING, BoundMethod.EBS, BoundMethod.HYPERGEOMETRIC),
    )
    digest = hashlib.sha256()
    for idx in range(5):
        digest.update(repr(run_trial(cfg, idx)).encode())
    assert digest.hexdigest() == TRIAL_RECORDS_SHA256


def _count_calls(monkeypatch, module, name: str) -> list:
    """Wrap ``module.name`` in every matchcert module that binds it; the
    returned list gets one entry per call."""
    original, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("matchcert") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_trial_bounds_each_term_once_and_keeps_pairs_in_keys(monkeypatch):
    # a criterion-4 trial bounds 8 terms: batch recall at delta and at
    # delta / 2 and the match density; query holdout precision, recall and
    # error rate, complete recall and the matched fraction (the complete
    # precision and error rate read the holdout terms). Both matchers run
    # as lanes of one percolation, and both certificate inputs read their
    # identified sets; each input reads s_x's verified matches once. Its
    # seeds reach percolation as keys, and s_m and the verified matches of
    # s_x reach the certificates as truth keys, so no pair is encoded or
    # decoded
    terms = _count_calls(monkeypatch, bounds, "bound_term")
    ran = _count_calls(monkeypatch, matchers, "run_batches")
    percolated = _count_calls(monkeypatch, matchers, "_percolate")
    verified = _count_calls(monkeypatch, reports, "verified_sample")
    columns = _count_calls(monkeypatch, query, "query_columns")
    encoded = _count_calls(monkeypatch, graphs, "pair_keys")
    decoded = _count_calls(monkeypatch, graphs, "matches_of")
    cfg = _criterion_4_world(VERIFIED_SAMPLE, 2, trials=1)
    records = run_trial(cfg, 0)
    assert len(records) == 10
    assert (len(terms), len(ran), len(verified), len(columns)) == (8, 1, 2, 1)
    assert len(percolated) == 1 and len(percolated[0][1]) == 2  # two lanes
    assert encoded == [] and decoded == []


@pytest.mark.parametrize("method", list(BoundMethod))
def test_actual_map_of_the_sampled_nodes_suffices(method):
    # the actual matches of s_x alone, or those of every node of X (a trial
    # gives the truth), must report exactly the same bounds; only the
    # digests, which hash the verified set, differ
    cfg = _criterion_4_world(VERIFIED_SAMPLE, 2, trials=1)
    pair, truth = generate_pair(cfg.generator)
    ids = pair.x_net.index.ids
    s_x = tuple(sample_without_replacement(ids, 200, spawn_rng(3, 1)))
    s_x_prime = tuple(sample_without_replacement(ids, 400, spawn_rng(3, 2)))
    s_m = make_match_set(truth.sorted_pairs[::9], pair)
    found = matches_of(truth, pair, s_x)
    verified = make_match_set([(x, y) for x in s_x for y in found[x]], pair)
    holdout = build_matcher(cfg.matcher_holdout, training_matches=truth.sorted_pairs[::16])
    complete = build_matcher(cfg.matcher_holdout, (
        *truth.sorted_pairs[::16],
        *s_m.sorted_pairs,
        *verified.sorted_pairs,
    ))
    m_hat_h, m_hat_c = run_batch(holdout, pair), run_batch(complete, pair)
    got = {}
    for name, actual_for in (("truth", truth), ("verified", verified)):
        reports = batch_reports(BatchValidationInput(
            pair=pair, m_hat_holdout=m_hat_h, s_m=s_m, s_x=s_x, actual_for=actual_for,
            method=method, delta=0.05, m_hat_complete=m_hat_c, m_size=truth.keys.size,
        )) + query_reports(QueryValidationInput(
            pair=pair, m_hat_holdout=m_hat_h, s_x=s_x, actual_for=actual_for,
            method=method, delta=0.05, m_hat_complete=m_hat_c, s_x_prime=s_x_prime,
        ))
        got[name] = [r.to_json_dict() for r in reports]
    assert len(got["truth"]) == 10
    for a, b in zip(got["truth"], got["verified"]):
        assert a.pop("inputs_digest") != b.pop("inputs_digest")
        assert a == b  # every other field


def _small_world(matcher_holdout, train=20, **kw):
    return ExperimentConfig(
        generator=GeneratorConfig(
            n_entities=200, base_model=ErdosRenyi(8 / 200), edge_retain_x=0.9,
            edge_retain_y=0.9, node_drop_x=0.05, node_drop_y=0.05,
        ),
        matcher_holdout=matcher_holdout,
        sample_sizes=SampleSizes(s_m=30, s_x=30, s_x_prime=60, train=train),
        methods=(BoundMethod.HOEFFDING,),
        trials=1,
        seed=3,
        **kw,
    )


def test_matcher_complete_replaces_the_holdout_config_for_the_complete_matcher():
    holdout = MatcherConfig("percolation", seeds=VERIFIED_SAMPLE, threshold=2)
    alone = run_trial(_small_world(holdout), 0)
    assert run_trial(_small_world(holdout, matcher_complete=holdout), 0) == alone
    other = replace(holdout, threshold=1)
    own = run_trial(_small_world(holdout, matcher_complete=other), 0)

    def records(of, variant):
        return [r for r in of if r.bound_id.startswith(variant)]

    assert records(own, "holdout-") == records(alone, "holdout-")
    assert records(own, "complete-") != records(alone, "complete-")


def test_holdout_matcher_without_seeds_is_a_degenerate_trial():
    # no training pairs: the verified-sample percolation matcher has no seeds
    cfg = _small_world(MatcherConfig("percolation", seeds=VERIFIED_SAMPLE), train=0)
    error = "^trial-failed: trial 0: trial-degenerate: a matcher identified nothing$"
    with pytest.raises(MatchcertError, match=error):
        run_trial(cfg, 0)


class _Drawn(Exception):
    """Stops a trial once its samples are drawn."""


@pytest.mark.parametrize("train, s_m", [(0, 0), (20, 30), (10**6, 10**6)])
def test_trial_draws_the_pairs_sample_without_replacement_draws(monkeypatch, train, s_m):
    # a trial draws train and s_m as positions in the truth's keys; they
    # must be the pairs that sampling the keys themselves gives, at sizes
    # 0, in between and |truth| (a larger size is cut to |truth|). The
    # matchers are seeded with truth keys: the holdout one with train, the
    # complete one with train, s_m and the verified pairs of s_x
    seen = {}

    def recording_generate_pair(cfg):
        seen["world"] = generate_pair(cfg)
        return seen["world"]

    def matched(handles, pair):
        seen["seeds"] = [handle.training_matches for handle in handles]
        return [seen["world"][1]] * len(handles)  # the truth: no trial is degenerate

    def stop(**fields):
        seen["s_m"], seen["actual_for"] = fields["s_m"], fields["actual_for"]
        raise _Drawn

    monkeypatch.setattr("matchcert.coverage.generate_pair", recording_generate_pair)
    monkeypatch.setattr("matchcert.coverage.run_batches", matched)
    monkeypatch.setattr("matchcert.coverage.BatchValidationInput", stop)
    base = _small_world(MatcherConfig("percolation", seeds=VERIFIED_SAMPLE))
    for seed, idx in ((3, 0), (3, 7), (91, 2)):
        cfg = replace(base, seed=seed, sample_sizes=replace(
            base.sample_sizes, train=train, s_m=s_m))
        with pytest.raises(_Drawn):
            run_trial(cfg, idx)
        pair, truth = seen["world"]
        m = truth.keys.size

        def drawn(s, purpose):
            rng = spawn_rng(seed, idx, purpose)
            return sample_without_replacement(truth.keys.tolist(), min(s, m), rng)

        s_x = sample_without_replacement(pair.x_net.index.ids, 30, spawn_rng(seed, idx, 3))
        actual = matches_of(truth, pair, s_x)
        verified = make_match_set([(x, y) for x in s_x for y in actual[x]], pair)
        holdout_seeds, complete_seeds = seen.pop("seeds")
        assert isinstance(holdout_seeds, MatchSet)
        assert isinstance(complete_seeds, MatchSet)
        assert holdout_seeds.keys.tolist() == sorted(drawn(train, 1))
        # s_m reaches the certificates as a set of truth keys, and the
        # verified matches of s_x as the truth's rows
        assert isinstance(seen["s_m"], MatchSet)
        assert seen["s_m"].keys.tolist() == sorted(drawn(s_m, 2))
        assert seen["actual_for"] is truth
        union = {*drawn(train, 1), *drawn(s_m, 2), *verified.keys.tolist()}
        assert complete_seeds.keys.tolist() == sorted(union)
