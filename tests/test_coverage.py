import json

import pytest

from matchcert.bounds import BoundMethod
from matchcert.coverage import ExperimentConfig, SampleSizes, run_coverage, run_trial
from matchcert.errors import MatchcertError
from matchcert.matchers import MatcherConfig, TopDegree
from matchcert.synth import ErdosRenyi, GeneratorConfig


def _criterion_4_world(seeds, threshold, trials, s_x=200):
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
        methods=(BoundMethod.HYPERGEOMETRIC,),
        trials=trials,
        seed=20260808,
    )


def test_failed_trials_are_counted_not_fatal():
    # TopDegree seeds plus training pairs can give one x two matches, so
    # p(x) = 0.5 and the exact method refuses the holdout precision term
    cfg = _criterion_4_world(TopDegree(30), 1, trials=10)
    for idx in (3, 5):
        with pytest.raises(MatchcertError, match=f"^trial-failed: trial {idx}: "):
            run_trial(cfg, idx)
    table = run_coverage(cfg)
    assert table.failed_trials == 2
    assert {row.trials for row in table.rows.values()} == {8}
    assert json.loads(table.to_json())["failed_trials"] == 2
    assert table.to_csv().split("\n")[0].split(",")[3] == "trials"
    assert "failed" not in table.to_csv()


def test_no_failed_trials_key_without_failures():
    table = run_coverage(_criterion_4_world("verified-sample", 2, trials=2))
    assert table.failed_trials == 0
    assert "failed_trials" not in table.to_json_dict()


def test_every_trial_failed_raises_the_first_error():
    cfg = _criterion_4_world(TopDegree(30), 1, trials=2, s_x=5_000)
    with pytest.raises(MatchcertError, match="^trial-failed: trial 0: invalid-sample-size"):
        run_coverage(cfg)
