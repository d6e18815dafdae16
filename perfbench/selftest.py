"""Tests of the benchmark itself (not of matchcert).

    python3 -m pytest perfbench/selftest.py -q

The file name keeps it out of the repository's own ``pytest`` run, which
collects only ``test_*.py`` files.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_coverage_inputs_repeat_per_seed():
    a = json.dumps(workloads.coverage_config_doc(7), sort_keys=True)
    assert a == json.dumps(workloads.coverage_config_doc(7), sort_keys=True)
    assert a != json.dumps(workloads.coverage_config_doc(8), sort_keys=True)


def test_sweep_grid_repeats_per_seed():
    a = json.dumps(workloads.sweep_grid(7))
    assert a == json.dumps(workloads.sweep_grid(7))
    assert a != json.dumps(workloads.sweep_grid(8))


def _small_world(path: Path) -> None:
    from matchcert.graphs import save_matches, save_network
    from matchcert.synth import ErdosRenyi, GeneratorConfig, generate_pair

    pair, truth = generate_pair(
        GeneratorConfig(3000, ErdosRenyi(8 / 3000), 0.8, 0.8, 0.1, 0.1, rng_seed=3)
    )
    path.mkdir()
    save_network(pair.x_net, path / "x.tsv")
    save_network(pair.y_net, path / "y.tsv")
    save_matches(truth, path / "matches.tsv")


def test_pipeline_inputs_repeat_per_seed(tmp_path):
    world = tmp_path / "world"
    _small_world(world)
    names = ("train.tsv", "s_m.tsv", "complete.tsv", "s_x.txt", "s_x_prime.txt")
    drawn = {}
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        out = tmp_path / label
        out.mkdir()
        workloads.draw_samples(world, out, seed)
        drawn[label] = [(out / n).read_bytes() for n in names]
    assert drawn["a"] == drawn["b"]
    assert drawn["a"] != drawn["c"]
    gen = json.dumps(workloads.pipeline_gen_doc(7))
    assert gen == json.dumps(workloads.pipeline_gen_doc(7))


def test_metric_names_and_units_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert e2e == run.E2E_UNITS
    assert per_layer == run.per_layer_units()
    for name in list(e2e) + list(per_layer) + [w["name"] for w in doc["workloads"]]:
        assert NAME.fullmatch(name), name
    assert set(workloads.WORKLOADS) == {w["name"] for w in doc["workloads"]}


def test_self_time_on_a_synthetic_tree():
    tree = [
        spans.Span(0, None, "root", 0.0, 10.0),
        spans.Span(1, 0, "a", 1.0, 4.0),
        spans.Span(2, 0, "b", 3.0, 6.0),  # overlaps a: the union counts once
        spans.Span(3, 1, "c", 2.0, 3.0),
        spans.Span(4, 0, "b", 9.0, 12.0),  # runs past its parent: clipped
    ]
    assert spans.self_times(tree) == pytest.approx({0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0})
    by_name = spans.per_name(tree)
    assert by_name["b"] == (2, pytest.approx(6.0))
    assert by_name["root"] == (1, pytest.approx(4.0))


def test_adopted_spans_keep_their_shape():
    tracer = spans.Tracer()
    tracer.call("stage", lambda: None)
    stage_id = tracer.spans[-1][0]
    child = [spans.Span(0, None, "x", 1.0, 2.0), spans.Span(1, 0, "y", 1.2, 1.5)]
    tracer.adopt(child, stage_id)
    ids = [s[0] for s in tracer.spans]
    assert len(set(ids)) == len(ids)
    x, y = tracer.spans[1:]
    assert x[1] == stage_id and y[1] == x[0]


def test_wrappers_reach_resolved_names_and_count_distinct_batches():
    from matchcert import batch, bounds, matchers
    from matchcert.graphs import NetworkPair, make_network

    original = bounds.bound_mean
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert batch.bound_mean is bounds.bound_mean is not original
        batch.bound_mean(
            bounds.PopulationSpec(10), bounds.SampleSummary.of([1.0, 0.0]),
            bounds.BoundMethod.HOEFFDING, bounds.Confidence(0.1),
        )
        net = make_network(["a", "b", "c"], [("a", "b"), ("b", "c")])
        pair = NetworkPair(net, net)
        handle = matchers.build_matcher(
            matchers.MatcherConfig("percolation", seeds="verified-sample"),
            training_matches=[("a", "a")],
        )
        matchers.run_query(handle, pair, "b")
        matchers.run_batch(handle, pair)
    finally:
        tracer.uninstall()
    assert bounds.bound_mean is original and batch.bound_mean is original
    by_name = spans.per_name(tracer.spans)
    assert by_name["bounds.bound_mean.hoeffding"][0] == 1
    assert by_name["matchers.run_batch"][0] == 2
    assert tracer.counters[spans.DISTINCT_BATCHES] == 1
    assert set(by_name) <= set(spans.traced_names())
