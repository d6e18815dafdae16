import json
import os
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

import matchcert
from matchcert.cli import main

SRC = str(Path(matchcert.__file__).resolve().parents[1])


def write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture
def gen_config(tmp_path):
    return write(
        tmp_path / "gen.json",
        json.dumps(
            {
                "n_entities": 40,
                "base_model": {"kind": "erdos-renyi", "p": 0.12},
                "edge_retain_x": 1.0,
                "edge_retain_y": 1.0,
                "node_drop_x": 0.0,
                "node_drop_y": 0.0,
                "attr_noise": 0.0,
                "rng_seed": 5,
            }
        ),
    )


@pytest.fixture
def world(tmp_path, gen_config):
    out = tmp_path / "world"
    assert main(["gen", "--config", str(gen_config), "--out-dir", str(out)]) == 0
    return out


class TestGen:
    def test_deterministic(self, tmp_path, gen_config):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen", "--config", str(gen_config), "--out-dir", str(a)]) == 0
        assert main(["gen", "--config", str(gen_config), "--out-dir", str(b)]) == 0
        for name in ("x.tsv", "y.tsv", "matches.tsv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_option_replaces_the_config_seed(self, tmp_path, gen_config):
        # gen_config's rng_seed is 5
        other = write(
            tmp_path / "seed0.json",
            json.dumps({**json.loads(gen_config.read_text()), "rng_seed": 0}),
        )
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen", "--config", str(gen_config), "--out-dir", str(a)]) == 0
        argv = ["gen", "--config", str(other), "--seed", "5", "--out-dir", str(b)]
        assert main(argv) == 0
        for name in ("x.tsv", "y.tsv", "matches.tsv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_minimal_two_entities(self, tmp_path):
        cfg = write(
            tmp_path / "tiny.json",
            json.dumps(
                {
                    "n_entities": 2,
                    "base_model": {"kind": "erdos-renyi", "p": 1.0},
                    "rng_seed": 0,
                }
            ),
        )
        assert main(["gen", "--config", str(cfg), "--out-dir", str(tmp_path / "t")]) == 0

    def test_invalid_config_exits_one(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "bad.json",
            json.dumps(
                {
                    "n_entities": 1,
                    "base_model": {"kind": "erdos-renyi", "p": 0.5},
                    "rng_seed": 0,
                }
            ),
        )
        assert main(["gen", "--config", str(cfg), "--out-dir", str(tmp_path / "t")]) == 1
        assert "invalid-generator" in capsys.readouterr().err


class TestBadConfig:
    # per failure shape: a gen, a matcher and a coverage config file
    SHAPES = {
        "not-json": ("{", "{", "{"),
        "missing-key": ('{"n_entities": 40}', '{"threshold": 2}', '{"trials": 1}'),
        "bad-shape": (
            '{"n_entities": 40, "base_model": "erdos-renyi"}',
            '{"kind": "percolation", "seeds": [["a"]]}',
            '{"generator": []}',
        ),
        # 1e999 parses as inf, which int() cannot convert
        "huge-number": (
            '{"n_entities": 1e999, "base_model": {"kind": "erdos-renyi", "p": 0.1}}',
            '{"kind": "percolation", "threshold": 1e999}',
            '{"generator": {"n_entities": 1e999, "base_model": '
            '{"kind": "erdos-renyi", "p": 0.1}}}',
        ),
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_exits_one_with_token(self, tmp_path, world, capsys, shape):
        gen, matcher, exp = (
            write(tmp_path / f"{name}.json", text)
            for name, text in zip(("gen", "matcher", "exp"), self.SHAPES[shape])
        )
        net = ["--x", str(world / "x.tsv"), "--y", str(world / "y.tsv")]
        s_x = write(tmp_path / "s_x.txt", "x0\n")
        for argv in (
            ["gen", "--config", str(gen), "--out-dir", str(tmp_path / "g")],
            ["match", *net, "--config", str(matcher), "--out", str(tmp_path / "m.tsv")],
            ["validate", "query", *net, "--matcher", str(matcher), "--s-x", str(s_x),
             "--actual", str(world / "matches.tsv")],
            ["coverage", "--config", str(exp), "--out-prefix", str(tmp_path / "c")],
        ):
            assert main(argv) == 1, argv
            assert "matchcert: error: invalid-config: " in capsys.readouterr().err


class TestMatch:
    def test_attribute_exact_recovers_truth(self, tmp_path, world):
        cfg = write(
            tmp_path / "matcher.json",
            json.dumps({"kind": "attribute-exact", "attr_key": "uid"}),
        )
        out = tmp_path / "mhat.tsv"
        rc = main(
            [
                "match",
                "--x", str(world / "x.tsv"),
                "--y", str(world / "y.tsv"),
                "--config", str(cfg),
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert out.read_bytes() == (world / "matches.tsv").read_bytes()

    def test_self_match_and_missing_network(self, tmp_path, world, capsys):
        cfg = write(
            tmp_path / "matcher.json",
            json.dumps({"kind": "attribute-exact", "attr_key": "uid"}),
        )
        argv = ["match", "--x", str(world / "x.tsv"), "--config", str(cfg),
                "--out", str(tmp_path / "mhat.tsv")]
        # every uid is unique within X, and self-match mode drops identity pairs
        assert main([*argv, "--self-match"]) == 0
        assert "(0 identified matches)" in capsys.readouterr().out
        assert main(argv) == 1
        assert "missing-network: supply --y or --self-match" in capsys.readouterr().err

    @pytest.mark.parametrize("seeds,token", [
        (5, "unknown-seed-rule"),
        (True, "unknown-seed-rule"),
        (["ab"], "unknown-seed-rule"),
        ({"top-degree-k": -1}, "invalid-top-degree"),
    ])
    def test_seeds_that_cannot_run_exit_one(self, tmp_path, world, capsys, seeds, token):
        cfg = write(
            tmp_path / "matcher.json", json.dumps({"kind": "percolation", "seeds": seeds})
        )
        out = tmp_path / "mhat.tsv"
        argv = ["match", "--x", str(world / "x.tsv"), "--y", str(world / "y.tsv"),
                "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 1
        assert f"matchcert: error: {token}: " in capsys.readouterr().err
        assert not out.exists()


class TestSplit:
    def test_t_zero_validation_is_everything(self, tmp_path):
        items = write(tmp_path / "items.txt", "a\nb\nc\nd\n")
        rc = main(
            [
                "split",
                "--items", str(items),
                "--population-n", "10",
                "--train-size", "0",
                "--validation-size", "4",
                "--seed", "3",
                "--train-out", str(tmp_path / "t.txt"),
                "--validation-out", str(tmp_path / "v.txt"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "t.txt").read_text() == ""
        assert sorted((tmp_path / "v.txt").read_text().split()) == ["a", "b", "c", "d"]

    def test_s_zero_validation_empty(self, tmp_path):
        items = write(tmp_path / "items.txt", "a\nb\nc\nd\n")
        rc = main(
            [
                "split",
                "--items", str(items),
                "--population-n", "10",
                "--train-size", "4",
                "--validation-size", "0",
                "--seed", "3",
                "--train-out", str(tmp_path / "t.txt"),
                "--validation-out", str(tmp_path / "v.txt"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "v.txt").read_text() == ""

    def test_bad_sizes_exit_one(self, tmp_path, capsys):
        items = write(tmp_path / "items.txt", "a\nb\nc\nd\n")
        rc = main(
            [
                "split",
                "--items", str(items),
                "--population-n", "10",
                "--train-size", "1",
                "--validation-size", "1",
                "--seed", "3",
                "--train-out", str(tmp_path / "t.txt"),
                "--validation-out", str(tmp_path / "v.txt"),
            ]
        )
        assert rc == 1
        assert "invalid-split" in capsys.readouterr().err


class TestValidateBatch:
    def test_perfect_fixture_near_one(self, tmp_path, world):
        x_nodes = [
            line.split("\t")[1]
            for line in (world / "x.tsv").read_text().splitlines()
            if line.startswith("#node\t")
        ]
        s_x = write(tmp_path / "s_x.txt", "".join(f"{n}\n" for n in x_nodes))
        out = tmp_path / "report.json"
        rc = main(
            [
                "validate", "batch",
                "--x", str(world / "x.tsv"),
                "--y", str(world / "y.tsv"),
                "--m-hat-holdout", str(world / "matches.tsv"),
                "--s-m", str(world / "matches.tsv"),
                "--s-x", str(s_x),
                "--actual", str(world / "matches.tsv"),
                "--m-size", "40",
                "--method", "hypergeometric-exact",
                "--delta", "0.05",
                "--out", str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        by_id = {r["bound_id"]: r for r in doc["reports"]}
        assert by_id["holdout-batch-recall"]["lower_bound"] == 1.0
        assert by_id["holdout-batch-precision"]["lower_bound"] == 1.0
        # one single-delta certificate and one split pair
        assert doc["joint_confidence"] == pytest.approx(1 - 0.05 - 0.05)

    def test_vacuous_exits_two(self, tmp_path, world):
        # sampled nodes carry no verified matches, so the match-density
        # lower bound collapses and the complete-recall bound is vacuous
        x_nodes = [
            line.split("\t")[1]
            for line in (world / "x.tsv").read_text().splitlines()
            if line.startswith("#node\t")
        ][:10]
        s_x = write(tmp_path / "s_x.txt", "".join(f"{n}\n" for n in x_nodes))
        actual = write(tmp_path / "actual.tsv", "")
        out = tmp_path / "report.json"
        rc = main(
            [
                "validate", "batch",
                "--x", str(world / "x.tsv"),
                "--y", str(world / "y.tsv"),
                "--m-hat-holdout", str(world / "matches.tsv"),
                "--m-hat-complete", str(world / "matches.tsv"),
                "--s-m", str(world / "matches.tsv"),
                "--s-x", str(s_x),
                "--actual", str(actual),
                "--m-size", "40",
                "--method", "hoeffding",
                "--delta", "0.05",
                "--out", str(out),
            ]
        )
        assert rc == 2
        doc = json.loads(out.read_text())
        by_id = {r["bound_id"]: r for r in doc["reports"]}
        assert "vacuous-denominator" in by_id["complete-batch-recall"]["flags"]

    def _validate(self, tmp_path, world, *extra):
        x_nodes = [
            line.split("\t")[1]
            for line in (world / "x.tsv").read_text().splitlines()
            if line.startswith("#node\t")
        ]
        s_x = write(tmp_path / "s_x.txt", "".join(f"{n}\n" for n in x_nodes))
        return main(
            [
                "validate", "batch",
                "--x", str(world / "x.tsv"),
                "--y", str(world / "y.tsv"),
                "--m-hat-holdout", str(world / "matches.tsv"),
                "--s-m", str(world / "matches.tsv"),
                "--s-x", str(s_x),
                "--actual", str(world / "matches.tsv"),
                "--m-size", "40",
                *extra,
            ]
        )

    def test_k_y_above_one_downgrades_density_term(self, tmp_path, world):
        # match counts lie in [0, 2], outside the exact method's range
        out = tmp_path / "report.json"
        rc = self._validate(tmp_path, world, "--k-y", "2", "--out", str(out))
        assert rc in (0, 2)
        doc = json.loads(out.read_text())
        by_id = {r["bound_id"]: r for r in doc["reports"]}
        methods = by_id["holdout-batch-precision"]["term_methods"]
        assert methods["match_density_term"] == "hoeffding"
        assert methods["recall_term"] == "hypergeometric-exact"

    @pytest.mark.parametrize("method", ["hypergeometric-exact", "hoeffding"])
    def test_node_over_k_y_exits_one(self, tmp_path, world, capsys, method):
        # x0 gets a second verified match, over the cap of one
        text = (world / "matches.tsv").read_text(encoding="utf-8")
        actual = write(tmp_path / "actual.tsv", text + "x0\ty1\n")
        rc = self._validate(
            tmp_path, world, "--actual", str(actual), "--k-y", "1",
            "--method", method, "--out", str(tmp_path / "r.json"),
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "ky-violated: node 'x0' has more than k_y=1 actual matches" in err

    def test_delta_is_one_number(self, tmp_path, world, capsys):
        rc = self._validate(
            tmp_path, world, "--delta", "0.02,0.03", "--out", str(tmp_path / "r.json")
        )
        assert rc == 1
        assert "invalid-confidence" in capsys.readouterr().err

    def test_unknown_s_x_node_exits_one(self, tmp_path, world, capsys):
        # argparse keeps the last --s-x given
        s_x = write(tmp_path / "stray.txt", "x0\nnobody\n")
        rc = self._validate(tmp_path, world, "--s-x", str(s_x))
        assert rc == 1
        assert "unknown-node: 'nobody'" in capsys.readouterr().err

    def test_bad_s_m_line_exits_one(self, tmp_path, world, capsys):
        # an s_m pair outside the networks, and a repeated s_m pair, which
        # would count one verified match twice
        first = (world / "matches.tsv").read_text(encoding="utf-8").splitlines()[0]
        pair = tuple(first.split("\t"))
        for text, error in (
            (f"{first}\nx0\tnobody\n", "unknown-node: s_m pair ('x0', 'nobody')"),
            (f"{first}\n{first}\n", f"duplicate-sample-item: s_m repeats {pair!r}"),
        ):
            s_m = write(tmp_path / "s_m.tsv", text)
            rc = self._validate(tmp_path, world, "--s-m", str(s_m))
            assert rc == 1
            assert error in capsys.readouterr().err

    def test_malformed_input_exits_one(self, tmp_path, world, capsys):
        bad = write(tmp_path / "bad.tsv", "only-one-field\n")
        rc = main(
            [
                "validate", "batch",
                "--x", str(world / "x.tsv"),
                "--y", str(world / "y.tsv"),
                "--m-hat-holdout", str(bad),
                "--s-m", str(world / "matches.tsv"),
                "--s-x", str(tmp_path / "bad.tsv"),
                "--actual", str(world / "matches.tsv"),
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert rc == 1
        assert "malformed-line" in capsys.readouterr().err


class TestActualMap:
    """``validate`` reads the verified matches of the sampled nodes as their
    rows of the ``--actual`` set, which give what the mapping of their ids
    (``matches_of``) gives, and checks the whole file."""

    def test_equals_whole_set_view(self, tmp_path, world):
        from matchcert.graphs import (
            NetworkPair,
            by_x,
            load_matches,
            load_network,
            matches_of,
        )

        pair = NetworkPair(load_network(world / "x.tsv"), load_network(world / "y.tsv"))
        lines = (world / "matches.tsv").read_text(encoding="utf-8").splitlines()
        actual = write(tmp_path / "actual.tsv", "\n".join(lines[::2]) + "\n")
        per_x = by_x(load_matches(actual, pair))
        nodes = sorted(pair.x_net.nodes)
        s_x = nodes[::3] + nodes[:2]  # some without matches, two repeated
        got = matches_of(load_matches(actual, pair), pair, s_x)
        assert got == {x: per_x.get(x, frozenset()) for x in s_x}
        assert list(got) == list(dict.fromkeys(s_x))
        assert any(not ys for ys in got.values()) and any(got.values())
        # the rows the certificates read: each node's keys decode to its ids
        from matchcert.reports import verified_sample

        sample = list(got)
        verified = load_matches(actual, pair)
        at, keys, counts = verified_sample(pair, sample, verified)
        assert at.tolist() == pair.x_net.index.positions(sample).tolist()
        rows = iter(verified.decode(keys))
        assert {
            x: frozenset(y for _, y in islice(rows, count))
            for x, count in zip(sample, counts.tolist())
        } == got

    def test_unsampled_bad_pair_still_rejected(self, tmp_path, world, capsys):
        from matchcert.graphs import load_network

        nodes = sorted(load_network(world / "x.tsv").nodes)[:3]
        s_x = write(tmp_path / "s_x.txt", "".join(f"{n}\n" for n in nodes))
        text = (world / "matches.tsv").read_text(encoding="utf-8")
        actual = write(tmp_path / "actual.tsv", text + "nobody\ty0\n")
        rc = main(
            [
                "validate", "batch",
                "--x", str(world / "x.tsv"),
                "--y", str(world / "y.tsv"),
                "--m-hat-holdout", str(world / "matches.tsv"),
                "--s-m", str(world / "matches.tsv"),
                "--s-x", str(s_x),
                "--actual", str(actual),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "unknown-node: match pair ('nobody', 'y0')" in err


class TestValidateQuery:
    def test_repeated_sample_line_exits_one(self, tmp_path, world, capsys):
        matcher = write(
            tmp_path / "matcher.json",
            json.dumps({"kind": "attribute-exact", "attr_key": "uid"}),
        )
        s_x = write(tmp_path / "s_x.txt", "x0\nx1\nx0\n")
        rc = main(
            [
                "validate", "query",
                "--x", str(world / "x.tsv"),
                "--y", str(world / "y.tsv"),
                "--matcher", str(matcher),
                "--s-x", str(s_x),
                "--actual", str(world / "matches.tsv"),
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert rc == 1
        assert (
            "matchcert: error: duplicate-sample-item: s_x repeats 'x0'"
            in capsys.readouterr().err
        )

    def test_full_run_with_node_stats(self, tmp_path, world):
        matcher = write(
            tmp_path / "matcher.json",
            json.dumps({"kind": "attribute-exact", "attr_key": "uid"}),
        )
        x_nodes = [
            line.split("\t")[1]
            for line in (world / "x.tsv").read_text().splitlines()
            if line.startswith("#node\t")
        ]
        s_x = write(tmp_path / "s_x.txt", "".join(f"{n}\n" for n in x_nodes[:20]))
        s_xp = write(tmp_path / "s_xp.txt", "".join(f"{n}\n" for n in x_nodes[20:]))
        out = tmp_path / "report.json"
        rc = main(
            [
                "validate", "query",
                "--x", str(world / "x.tsv"),
                "--y", str(world / "y.tsv"),
                "--matcher", str(matcher),
                "--matcher-complete", str(matcher),
                "--s-x", str(s_x),
                "--s-x-prime", str(s_xp),
                "--actual", str(world / "matches.tsv"),
                "--method", "hypergeometric-exact",
                "--delta", "0.05",
                "--emit-node-stats",
                "--out", str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        ids = {r["bound_id"] for r in doc["reports"]}
        assert ids == {
            "holdout-query-precision",
            "holdout-query-recall",
            "holdout-query-error-rate",
            "complete-query-recall",
            "complete-query-precision",
            "complete-query-error-rate",
        }
        assert len(doc["node_stats"]) == 40
        # identical matchers: no census term, and the holdout bounds
        by_id = {r["bound_id"]: r for r in doc["reports"]}
        assert by_id["complete-query-recall"]["flags"] == []
        assert by_id["complete-query-recall"]["terms"]["disagreement"] == 0.0
        assert by_id["complete-query-precision"]["terms"]["dp"] == 0.0
        for quantity in ("precision", "error-rate"):
            holdout, complete = (
                by_id[f"{variant}-query-{quantity}"] for variant in ("holdout", "complete")
            )
            bound = "upper_bound" if quantity == "error-rate" else "lower_bound"
            assert complete[bound] == holdout[bound]

    def test_sample_item_with_leading_space_names_its_node(self, tmp_path):
        x = write(tmp_path / "x.tsv", "#node\t a\n#node\tb\n#attr\t a\tuid\t1\n")
        y = write(tmp_path / "y.tsv", "#node\tc\n#attr\tc\tuid\t1\n")
        matcher = write(
            tmp_path / "matcher.json",
            json.dumps({"kind": "attribute-exact", "attr_key": "uid"}),
        )
        out = tmp_path / "report.json"
        rc = main(
            [
                "validate", "query", "--x", str(x), "--y", str(y),
                "--matcher", str(matcher),
                "--s-x", str(write(tmp_path / "s_x.txt", " a\n")),
                "--actual", str(write(tmp_path / "actual.tsv", " a\tc\n")),
                "--emit-node-stats", "--out", str(out),
            ]
        )
        assert rc == 0
        stats = json.loads(out.read_text())["node_stats"]
        assert [(row["node"], row["p"], row["r"]) for row in stats] == [(" a", 1.0, 1.0)]

    @staticmethod
    def _silent_matcher_argv(tmp_path):
        """validate query argv on X = {a, b}, where the matcher identifies
        nothing and a's actual match is c, with --emit-node-stats."""
        x = write(tmp_path / "x.tsv", "#node\ta\n#node\tb\n")
        y = write(tmp_path / "y.tsv", "#node\tc\n")
        matcher = write(
            tmp_path / "matcher.json",
            json.dumps({"kind": "attribute-exact", "attr_key": "uid"}),
        )
        return [
            "validate", "query", "--x", str(x), "--y", str(y),
            "--matcher", str(matcher), "--matcher-complete", str(matcher),
            "--s-x", str(write(tmp_path / "s_x.txt", "a\nb\n")),
            "--actual", str(write(tmp_path / "actual.tsv", "a\tc\n")),
            "--emit-node-stats", "--out", str(tmp_path / "report.json"),
        ]

    def test_sample_with_no_identified_node_exits_vacuous(self, tmp_path):
        # no sampled node has an identified match: the precision
        # certificates read 0, flagged, and the others still certify
        assert main(self._silent_matcher_argv(tmp_path)) == 2
        doc = json.loads((tmp_path / "report.json").read_text())
        flags = {r["bound_id"]: r["flags"] for r in doc["reports"]}
        assert flags == {
            "holdout-query-precision": ["vacuous-denominator"],
            "holdout-query-recall": [],
            "holdout-query-error-rate": [],
            "complete-query-recall": [],
            "complete-query-precision": ["vacuous-denominator"],
            "complete-query-error-rate": [],
        }
        assert len(doc["node_stats"]) == 2

    def test_columns_built_once_for_reports_and_node_stats(self, tmp_path, monkeypatch):
        import matchcert.query as query

        built = []
        columns = query.query_columns

        def counting(inp):
            built.append(inp)
            return columns(inp)

        monkeypatch.setattr(query, "query_columns", counting)
        assert main(self._silent_matcher_argv(tmp_path)) == 2
        assert len(built) == 1

    def test_reports_whose_deltas_sum_to_one_exit_one(self, tmp_path, world, capsys):
        # six certificates at 0.2 each: the union bound holds at no level
        matcher = write(
            tmp_path / "matcher.json",
            json.dumps({"kind": "attribute-exact", "attr_key": "uid"}),
        )
        s_x = write(tmp_path / "s_x.txt", "x0\nx1\nx2\n")
        rc = main([
            "validate", "query",
            "--x", str(world / "x.tsv"), "--y", str(world / "y.tsv"),
            "--matcher", str(matcher), "--matcher-complete", str(matcher),
            "--s-x", str(s_x), "--s-x-prime", str(s_x),
            "--actual", str(world / "matches.tsv"),
            "--delta", "0.2", "--out", str(tmp_path / "r.json"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("matchcert: error: budget-exhausted: deltas sum to 1.2")
        assert not (tmp_path / "r.json").exists()


class TestCoverage:
    def make_config(self, tmp_path, seed=11):
        return write(
            tmp_path / "exp.json",
            json.dumps(
                {
                    "generator": {
                        "n_entities": 60,
                        "base_model": {"kind": "erdos-renyi", "p": 0.1},
                        "edge_retain_x": 0.9,
                        "edge_retain_y": 0.9,
                        "node_drop_x": 0.05,
                        "node_drop_y": 0.05,
                        "rng_seed": 0,
                    },
                    "matcher_holdout": {
                        "kind": "percolation",
                        "seeds": "verified-sample",
                        "threshold": 1,
                        "max_iters": 10,
                    },
                    "sample_sizes": {"s_m": 15, "s_x": 15, "s_x_prime": 25, "train": 10},
                    "methods": ["hoeffding"],
                    "trials": 4,
                    "seed": seed,
                    "delta_total": 0.05,
                }
            ),
        )

    def test_byte_identical_reruns(self, tmp_path):
        cfg = self.make_config(tmp_path)
        rc = main(["coverage", "--config", str(cfg), "--out-prefix", str(tmp_path / "a")])
        assert rc == 0
        rc = main(["coverage", "--config", str(cfg), "--out-prefix", str(tmp_path / "b")])
        assert rc == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_empty_methods_exit_one(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path)
        write(cfg, json.dumps({**json.loads(cfg.read_text()), "methods": []}))
        rc = main(["coverage", "--config", str(cfg), "--out-prefix", str(tmp_path / "a")])
        assert rc == 1
        assert "matchcert: error: invalid-methods" in capsys.readouterr().err

    def test_jobs_do_not_change_output(self, tmp_path):
        cfg = self.make_config(tmp_path)
        for jobs, prefix in (("1", "a"), ("2", "b")):
            rc = main([
                "coverage", "--config", str(cfg), "--jobs", jobs,
                "--out-prefix", str(tmp_path / prefix),
            ])
            assert rc == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_failed_trials_counted_and_jobs_do_not_change_output(self, tmp_path, capsys):
        # under heavy attribute noise an attribute-exact matcher identifies
        # nothing in some worlds: those trials are degenerate
        doc = json.loads(self.make_config(tmp_path).read_text())
        doc["generator"] = {
            "n_entities": 10, "base_model": {"kind": "erdos-renyi", "p": 0.3},
            "attr_noise": 0.8,
        }
        doc["matcher_holdout"] = {"kind": "attribute-exact", "attr_key": "uid"}
        doc["sample_sizes"] = {"s_m": 5, "s_x": 10, "s_x_prime": 10, "train": 0}
        doc["trials"], doc["seed"] = 6, 27
        cfg = write(tmp_path / "noisy.json", json.dumps(doc))
        for jobs, prefix in (("1", "a"), ("2", "b")):
            rc = main([
                "coverage", "--config", str(cfg), "--jobs", jobs,
                "--out-prefix", str(tmp_path / prefix),
            ])
            assert rc == 0
        assert "3 of 6 trials failed" in capsys.readouterr().out
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        table = json.loads((tmp_path / "a.json").read_text())
        assert table["failed_trials"] == 3
        assert {row["trials"] for row in table["rows"]} == {3}
        assert main(["report", "--in", str(tmp_path / "a.json")]) == 0
        assert "3 failed trials" in capsys.readouterr().out

    def test_seed_changes_output(self, tmp_path):
        cfg = self.make_config(tmp_path)
        main(["coverage", "--config", str(cfg), "--out-prefix", str(tmp_path / "a")])
        main(
            [
                "coverage", "--config", str(cfg), "--seed", "12",
                "--out-prefix", str(tmp_path / "c"),
            ]
        )
        assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "c.csv").read_bytes()

    def test_single_trial_rates_are_zero_or_one(self, tmp_path):
        cfg_doc = json.loads(self.make_config(tmp_path).read_text())
        cfg_doc["trials"] = 1
        cfg = write(tmp_path / "one.json", json.dumps(cfg_doc))
        main(["coverage", "--config", str(cfg), "--out-prefix", str(tmp_path / "o")])
        doc = json.loads((tmp_path / "o.json").read_text())
        for row in doc["rows"]:
            assert row["failure_rate"] in (0.0, 1.0)
            assert row["trials"] == 1

    def test_report_renders_coverage(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path)
        main(["coverage", "--config", str(cfg), "--out-prefix", str(tmp_path / "a")])
        assert main(["report", "--in", str(tmp_path / "a.json")]) == 0
        out = capsys.readouterr().out
        assert "holdout-batch-recall" in out


class TestReport:
    def test_renders_validation_report(self, tmp_path, world, capsys):
        x_nodes = [
            line.split("\t")[1]
            for line in (world / "x.tsv").read_text().splitlines()
            if line.startswith("#node\t")
        ]
        s_x = write(tmp_path / "s_x.txt", "".join(f"{n}\n" for n in x_nodes))
        out = tmp_path / "report.json"
        main(
            [
                "validate", "batch",
                "--x", str(world / "x.tsv"),
                "--y", str(world / "y.tsv"),
                "--m-hat-holdout", str(world / "matches.tsv"),
                "--s-m", str(world / "matches.tsv"),
                "--s-x", str(s_x),
                "--actual", str(world / "matches.tsv"),
                "--m-size", "40",
                "--delta", "0.05",
                "--out", str(out),
            ]
        )
        written = capsys.readouterr().err
        assert main(["report", "--in", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "joint confidence" in printed
        assert written == printed  # validate prints the report's own lines

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("{", "JSONDecodeError"),
            ('{"a": 1}', "KeyError: 'joint_confidence'"),
            ('{"rows": [{"bound": "b"}]}', "KeyError: 'method'"),
            ("[]", "TypeError"),
        ],
    )
    def test_malformed_file_exits_one_with_token(self, tmp_path, capsys, text, reason):
        f = write(tmp_path / "odd.json", text)
        assert main(["report", "--in", str(f)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"matchcert: error: invalid-report: {f}: {reason}")


class TestBadEncoding:
    """A TSV or item file that is not UTF-8 fails with a token naming it."""

    def test_match_network_file(self, tmp_path, world, capsys):
        x = tmp_path / "x.tsv"
        x.write_bytes((world / "x.tsv").read_bytes() + b"#node\t\xff\n")
        cfg = write(tmp_path / "matcher.json", json.dumps({"kind": "attribute-exact"}))
        rc = main([
            "match", "--x", str(x), "--y", str(world / "y.tsv"),
            "--config", str(cfg), "--out", str(tmp_path / "m.tsv"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("matchcert: error: invalid-encoding: ")
        assert f"invalid start byte in {x}" in err

    def test_split_items_file(self, tmp_path, capsys):
        items = tmp_path / "items.txt"
        items.write_bytes(b"a\nb\xfe\n")
        rc = main([
            "split", "--items", str(items), "--population-n", "2",
            "--train-size", "1", "--validation-size", "1",
            "--train-out", str(tmp_path / "t.txt"),
            "--validation-out", str(tmp_path / "v.txt"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("matchcert: error: invalid-encoding: ")
        assert f"in {items}" in err


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True
    )


class TestImportSurface:
    """Each command imports only the modules it runs."""

    def _modules_after(self, argv: list[str]) -> set[str]:
        code = (
            "import json, sys\n"
            "from matchcert.cli import main\n"
            f"rc = main({argv!r})\n"
            "print(json.dumps([rc, sorted(sys.modules)]))\n"
        )
        rc, modules = json.loads(_fresh_python("-c", code).stdout.splitlines()[-1])
        assert rc == 0
        return set(modules)

    def test_match_and_validate_batch_skip_unused_layers(self, tmp_path, world):
        cfg = write(
            tmp_path / "matcher.json",
            json.dumps({"kind": "attribute-exact", "attr_key": "uid"}),
        )
        net = ["--x", str(world / "x.tsv"), "--y", str(world / "y.tsv")]
        matched = self._modules_after(
            ["match", *net, "--config", str(cfg), "--out", str(tmp_path / "mhat.tsv")]
        )
        s_x = write(tmp_path / "s_x.txt", "x0\nx1\n")
        validated = self._modules_after(
            [
                "validate", "batch", *net,
                "--m-hat-holdout", str(tmp_path / "mhat.tsv"),
                "--s-m", str(world / "matches.tsv"),
                "--s-x", str(s_x),
                "--actual", str(world / "matches.tsv"),
                "--m-size", "40",
                "--out", str(tmp_path / "report.json"),
            ]
        )
        unused = {"matchcert.coverage", "matchcert.synth", "matchcert.sampling"}
        assert "matchcert.matchers" in matched and "matchcert.batch" in validated
        assert not (unused | {"matchcert.batch"}) & matched
        assert not unused & validated

    def test_main_module_runs_the_cli(self, monkeypatch, capsys):
        import runpy

        monkeypatch.setattr(sys, "argv", ["matchcert", "--help"])
        with pytest.raises(SystemExit) as info:
            runpy.run_module("matchcert", run_name="__main__")
        assert info.value.code == 0
        assert "usage: matchcert" in capsys.readouterr().out

    def test_help_lists_every_subcommand(self):
        out = _fresh_python("-m", "matchcert", "--help").stdout
        listed = {line.split()[0] for line in out.splitlines() if line.startswith("    ")}
        assert listed == {"gen", "match", "split", "validate", "coverage", "report"}


TOP_USAGE = "usage: matchcert [-h] {gen,match,split,validate,coverage,report} ...\n"
TOP_HELP = TOP_USAGE + """
PAC certification of precision and recall for network reconciliation
algorithms

positional arguments:
  {gen,match,split,validate,coverage,report}
    gen                 synthesize a correlated network pair
    match               run a matcher in batch mode
    split               train/validation subsampling
    validate            compute certificates
    coverage            Monte Carlo failure-rate experiment
    report              pretty-print a saved report

options:
  -h, --help            show this help message and exit
"""
VALIDATE_USAGE = "usage: matchcert validate [-h] {batch,query} ...\n"
VALIDATE_HELP = VALIDATE_USAGE + """
positional arguments:
  {batch,query}
    batch        batch-matcher certificates
    query        query-matcher certificates

options:
  -h, --help     show this help message and exit
"""
GEN_USAGE = "usage: matchcert gen [-h] --config CONFIG [--seed SEED] --out-dir OUT_DIR\n"
BATCH_USAGE = """\
usage: matchcert validate batch [-h] --x X [--y Y] [--self-match]
                                --m-hat-holdout M_HAT_HOLDOUT
                                [--m-hat-complete M_HAT_COMPLETE] --s-m S_M
                                --s-x S_X --actual ACTUAL [--k-y K_Y]
                                [--m-size M_SIZE] [--method METHOD]
                                [--delta DELTA] [--out OUT]
"""


class TestParserText:
    """Each command builds only its own parser; argparse's help and error
    texts stay as they were when every parser was built up front."""

    @pytest.fixture(autouse=True)
    def _eighty_columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    def _run(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        out, err = capsys.readouterr()
        return info.value.code, out, err

    @pytest.mark.parametrize(
        "argv, text",
        [(["--help"], TOP_HELP), (["validate", "--help"], VALIDATE_HELP)],
    )
    def test_help(self, argv, text, capsys):
        assert self._run(argv, capsys) == (0, text, "")

    @pytest.mark.parametrize(
        "argv, text",
        [
            ([], TOP_USAGE + "matchcert: error: the following arguments are "
             "required: command\n"),
            (["bogus"], TOP_USAGE + "matchcert: error: argument command: invalid "
             "choice: 'bogus' (choose from 'gen', 'match', 'split', 'validate', "
             "'coverage', 'report')\n"),
            (["validate"], VALIDATE_USAGE + "matchcert validate: error: the "
             "following arguments are required: validate_mode\n"),
            (["validate", "bogus"], VALIDATE_USAGE + "matchcert validate: error: "
             "argument validate_mode: invalid choice: 'bogus' (choose from "
             "'batch', 'query')\n"),
            (["gen"], GEN_USAGE + "matchcert gen: error: the following arguments "
             "are required: --config, --out-dir\n"),
            (["validate", "batch", "--x", "a"], BATCH_USAGE + "matchcert validate "
             "batch: error: the following arguments are required: --m-hat-holdout, "
             "--s-m, --s-x, --actual\n"),
            (["gen", "--config", "c", "--out-dir", "d", "extra"], TOP_USAGE
             + "matchcert: error: unrecognized arguments: extra\n"),
        ],
    )
    def test_usage_errors(self, argv, text, capsys):
        assert self._run(argv, capsys) == (2, "", text)
