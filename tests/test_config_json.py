"""Config documents are read by their dataclass fields.

A present key must fit its field: an ``int`` field takes a JSON integer
and never a bool, a ``float`` field an integer or a float (stored as a
float), a ``str`` field a string. An absent key takes the dataclass
default. A key the config lacks, a missing required key and a value of
the wrong type fail with a token, through ``from_json_dict`` and through
the CLI alike (exit 1, one error line, no traceback). A negative seed
fails with ``invalid-seed`` wherever it comes from.
"""

import json
from dataclasses import MISSING, fields, replace

import pytest

from matchcert.bounds import BoundMethod
from matchcert.cli import main
from matchcert.coverage import ExperimentConfig, SampleSizes
from matchcert.errors import MatchcertError
from matchcert.matchers import VERIFIED_SAMPLE, MatcherConfig, TopDegree
from matchcert.sampling import SplitSpec
from matchcert.synth import ErdosRenyi, GeneratorConfig, PreferentialAttachment

GEN = {"n_entities": 40, "base_model": {"kind": "erdos-renyi", "p": 0.12}, "rng_seed": 5}
MATCHER = {"kind": "percolation", "seeds": "verified-sample", "threshold": 1,
           "max_iters": 10}
EXP = {
    "generator": {**GEN, "n_entities": 60, "base_model": {"kind": "erdos-renyi", "p": 0.1}},
    "matcher_holdout": MATCHER,
    "sample_sizes": {"s_m": 15, "s_x": 15, "s_x_prime": 25, "train": 10},
    "methods": ["hoeffding"],
    "trials": 2,
    "seed": 11,
}
READERS = {
    "gen": GeneratorConfig.from_json_dict,
    "match": MatcherConfig.from_json_dict,
    "coverage": ExperimentConfig.from_json_dict,
}

# name: (command, document, token)
BAD = {
    "top-degree-float": ("match", {**MATCHER, "seeds": {"top-degree-k": 2.7}},
                         "invalid-config"),
    "top-degree-bool": ("match", {**MATCHER, "seeds": {"top-degree-k": True}},
                        "invalid-config"),
    "threshold-float": ("match", {**MATCHER, "threshold": 2.9}, "invalid-config"),
    "max-iters-string": ("match", {**MATCHER, "max_iters": "7"}, "invalid-config"),
    "seeds-not-strings": ("match", {**MATCHER, "seeds": [[1, 2]]}, "unknown-seed-rule"),
    "seed-pair-short": ("match", {**MATCHER, "seeds": [["a"]]}, "invalid-config"),
    "seed-pair-long": ("match", {**MATCHER, "seeds": [["a", "b", "c"]]}, "invalid-config"),
    "misspelt-key": ("match", {**MATCHER, "treshold": 2}, "invalid-config"),
    "attr-key-number": ("match", {**MATCHER, "attr_key": 3}, "invalid-config"),
    "kind-null": ("match", {**MATCHER, "kind": None}, "invalid-config"),
    "n-entities-float": ("gen", {**GEN, "n_entities": 40.7}, "invalid-config"),
    "m-edges-float": ("gen", {**GEN, "base_model": {"kind": "preferential-attachment",
                                                     "m_edges": 2.5}}, "invalid-config"),
    "p-string": ("gen", {**GEN, "base_model": {"kind": "erdos-renyi", "p": "0.1"}},
                 "invalid-config"),
    "model-string": ("gen", {**GEN, "base_model": "erdos-renyi"}, "invalid-config"),
    "model-unknown-key": ("gen", {**GEN, "base_model": {"kind": "erdos-renyi", "p": 0.1,
                                                         "m_edges": 2}}, "invalid-config"),
    "noise-bool": ("gen", {**GEN, "attr_noise": True}, "invalid-config"),
    "seed-float": ("gen", {**GEN, "rng_seed": 5.0}, "invalid-config"),
    "gen-misspelt-key": ("gen", {**GEN, "node_drop": 0.1}, "invalid-config"),
    "matcher-complete-empty": ("coverage", {**EXP, "matcher_complete": {}},
                               "invalid-config"),
    "methods-string": ("coverage", {**EXP, "methods": "hoeffding"}, "invalid-config"),
    # a repeated method would count each trial twice in its rows
    "methods-repeated": ("coverage", {**EXP, "methods": ["hoeffding", "hoeffding"]},
                         "invalid-methods"),
    "methods-empty": ("coverage", {**EXP, "methods": []}, "invalid-methods"),
    "trials-float": ("coverage", {**EXP, "trials": 2.0}, "invalid-config"),
    "delta-string": ("coverage", {**EXP, "delta_total": "0.05"}, "invalid-config"),
    "sample-size-float": ("coverage", {**EXP, "sample_sizes": {
        **EXP["sample_sizes"], "s_x": 15.5}}, "invalid-config"),
    "sample-size-missing": ("coverage", {**EXP, "sample_sizes": {"s_m": 15}},
                            "invalid-config"),
    "nested-misspelt-key": ("coverage", {**EXP, "matcher_holdout": {
        **MATCHER, "treshold": 2}}, "invalid-config"),
    "coverage-unknown-key": ("coverage", {**EXP, "jobs": 2}, "invalid-config"),
}


def _write(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    out = tmp_path_factory.mktemp("world")
    gen = _write(out / "gen.json", GEN)
    assert main(["gen", "--config", gen, "--out-dir", str(out)]) == 0
    return out


def _argv(command, config, world, tmp_path):
    if command == "gen":
        return ["gen", "--config", config, "--out-dir", str(tmp_path / "g")]
    if command == "match":
        return ["match", "--x", str(world / "x.tsv"), "--y", str(world / "y.tsv"),
                "--config", config, "--out", str(tmp_path / "m.tsv")]
    return ["coverage", "--config", config, "--out-prefix", str(tmp_path / "c")]


def _fails_with(argv, token, capsys):
    assert main(argv) == 1, argv
    err = capsys.readouterr().err
    assert err.startswith(f"matchcert: error: {token}: "), err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("name", sorted(BAD))
def test_bad_document_fails_with_its_token(name, world, tmp_path, capsys):
    command, doc, token = BAD[name]
    with pytest.raises(MatchcertError, match=f"^{token}: "):
        READERS[command](json.loads(json.dumps(doc)))
    config = _write(tmp_path / "config.json", doc)
    _fails_with(_argv(command, config, world, tmp_path), token, capsys)


@pytest.mark.parametrize("command", sorted(READERS))
def test_the_good_documents_run(command, world, tmp_path):
    # the base documents of the table are accepted as they are
    doc = {"gen": GEN, "match": MATCHER, "coverage": EXP}[command]
    config = _write(tmp_path / "config.json", doc)
    assert main(_argv(command, config, world, tmp_path)) == 0


def test_absent_keys_take_the_dataclass_defaults():
    assert MatcherConfig.from_json_dict({"kind": "percolation"}) == MatcherConfig(
        "percolation"
    )
    nulls = {"kind": "percolation", "attr_key": None, "seeds": None}
    assert MatcherConfig.from_json_dict(nulls) == MatcherConfig("percolation")
    doc = {"n_entities": 9, "base_model": {"kind": "erdos-renyi", "p": 0}}
    assert GeneratorConfig.from_json_dict(doc) == GeneratorConfig(9, ErdosRenyi(0.0))
    exp = ExperimentConfig.from_json_dict({**EXP, "matcher_complete": None})
    assert exp.matcher_complete is None
    assert exp.delta_total == 0.05


def test_integers_in_float_fields_are_stored_as_floats(tmp_path):
    gen = {**EXP["generator"], "edge_retain_x": 1, "attr_noise": 0}
    cfg = GeneratorConfig.from_json_dict(gen)
    assert type(cfg.edge_retain_x) is float and type(cfg.attr_noise) is float
    assert type(cfg.base_model.p) is float
    config = _write(tmp_path / "exp.json", {**EXP, "generator": gen})
    assert main(["coverage", "--config", config, "--out-prefix", str(tmp_path / "c")]) == 0
    text = (tmp_path / "c.json").read_text(encoding="utf-8")
    assert '"attr_noise": 0.0,' in text and '"edge_retain_x": 1.0,' in text


OFF_DEFAULT = {
    "generator-pa": GeneratorConfig(
        n_entities=300, base_model=PreferentialAttachment(3), edge_retain_x=0.9,
        edge_retain_y=0.85, node_drop_x=0.05, node_drop_y=0.1, attr_noise=0.2,
        rng_seed=17,
    ),
    "generator-er": GeneratorConfig(
        n_entities=30, base_model=ErdosRenyi(0.25), edge_retain_x=0.5,
        edge_retain_y=0.75, node_drop_x=0.125, node_drop_y=0.25, attr_noise=1.0,
        rng_seed=2**63,
    ),
    "matcher-top-degree": MatcherConfig(
        "percolation", attr_key="uid", seeds=TopDegree(5), threshold=2, max_iters=9
    ),
    "matcher-pairs": MatcherConfig(
        "attribute-exact", attr_key="id", seeds=(("x1", "y1"), ("x2", "y2")),
        threshold=3, max_iters=4,
    ),
    "matcher-verified": MatcherConfig(
        "percolation", attr_key="", seeds=VERIFIED_SAMPLE, threshold=5, max_iters=1
    ),
}
OFF_DEFAULT["experiment"] = ExperimentConfig(
    generator=OFF_DEFAULT["generator-pa"],
    matcher_holdout=OFF_DEFAULT["matcher-top-degree"],
    sample_sizes=SampleSizes(s_m=30, s_x=40, s_x_prime=60, train=25),
    methods=(BoundMethod.HOEFFDING, BoundMethod.HYPERGEOMETRIC),
    trials=7,
    seed=11,
    matcher_complete=OFF_DEFAULT["matcher-pairs"],
    delta_total=0.1,
)


@pytest.mark.parametrize("name", sorted(OFF_DEFAULT))
def test_json_round_trip_with_every_field_off_its_default(name):
    # a field the codec dropped would come back as its default
    cfg = OFF_DEFAULT[name]
    for f in fields(cfg):
        assert f.default is MISSING or getattr(cfg, f.name) != f.default, f.name
    doc = json.loads(json.dumps(cfg.to_json_dict()))
    again = type(cfg).from_json_dict(doc)
    assert again == cfg
    assert json.dumps(again.to_json_dict()) == json.dumps(cfg.to_json_dict())


@pytest.mark.parametrize("command", ["gen", "coverage"])
def test_negative_seed_option_exits_one(command, tmp_path, capsys):
    config = _write(tmp_path / "config.json", {"gen": GEN, "coverage": EXP}[command])
    argv = _argv(command, config, None, tmp_path) + ["--seed", "-1"]
    _fails_with(argv, "invalid-seed", capsys)


@pytest.mark.parametrize("command, doc", [
    ("gen", {**GEN, "rng_seed": -3}),
    ("coverage", {**EXP, "seed": -1}),
])
def test_negative_seed_in_a_document(command, doc, tmp_path, capsys):
    with pytest.raises(MatchcertError, match="^invalid-seed: "):
        READERS[command](doc)
    config = _write(tmp_path / "config.json", doc)
    _fails_with(_argv(command, config, None, tmp_path), "invalid-seed", capsys)


def test_negative_split_seed(tmp_path, capsys):
    with pytest.raises(MatchcertError, match="^invalid-seed: "):
        SplitSpec(population_n=4, labeled=("a", "b"), t=1, s=1, rng_seed=-1)
    items = tmp_path / "items.txt"
    items.write_text("a\nb\n", encoding="utf-8")
    argv = ["split", "--items", str(items), "--population-n", "4", "--train-size", "1",
            "--validation-size", "1", "--seed", "-1", "--train-out", str(tmp_path / "t"),
            "--validation-out", str(tmp_path / "v")]
    _fails_with(argv, "invalid-seed", capsys)


def test_replace_checks_the_seed_too():
    cfg = OFF_DEFAULT["experiment"]
    with pytest.raises(MatchcertError, match="^invalid-seed: "):
        replace(cfg, seed=-1)
    with pytest.raises(MatchcertError, match="^invalid-seed: "):
        replace(cfg.generator, rng_seed=-1)
