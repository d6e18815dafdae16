import json
import os
import subprocess
import sys
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
    """``validate`` groups the verified matches of the sampled nodes only."""

    def test_equals_whole_set_view(self, tmp_path, world):
        from matchcert.cli import _actual_map
        from matchcert.graphs import (
            MatchRole,
            NetworkPair,
            by_x,
            load_matches,
            load_network,
        )

        pair = NetworkPair(load_network(world / "x.tsv"), load_network(world / "y.tsv"))
        lines = (world / "matches.tsv").read_text(encoding="utf-8").splitlines()
        actual = write(tmp_path / "actual.tsv", "\n".join(lines[::2]) + "\n")
        per_x = by_x(load_matches(actual, pair, MatchRole.ACTUAL))
        nodes = sorted(pair.x_net.nodes)
        s_x = nodes[::3] + nodes[:2]  # some without matches, two repeated
        got = _actual_map(pair, str(actual), s_x)
        assert got == {x: per_x.get(x, frozenset()) for x in s_x}
        assert list(got) == list(dict.fromkeys(s_x))
        assert any(not ys for ys in got.values()) and any(got.values())

    def test_unsampled_bad_pair_still_rejected(self, tmp_path, world):
        from matchcert.cli import _actual_map
        from matchcert.errors import MatchcertError
        from matchcert.graphs import NetworkPair, load_network

        pair = NetworkPair(load_network(world / "x.tsv"), load_network(world / "y.tsv"))
        text = (world / "matches.tsv").read_text(encoding="utf-8")
        actual = write(tmp_path / "actual.tsv", text + "nobody\ty0\n")
        with pytest.raises(MatchcertError, match="unknown-node: x endpoint 'nobody'"):
            _actual_map(pair, str(actual), sorted(pair.x_net.nodes)[:3])


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
        # identical matchers: the complete certificates reduce
        by_id = {r["bound_id"]: r for r in doc["reports"]}
        assert "reduced-to-holdout" in by_id["complete-query-recall"]["flags"]


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
        doc = json.loads(self.make_config(tmp_path).read_text())
        doc["matcher_holdout"]["seeds"] = {"top-degree-k": 5}
        doc["methods"] = ["hypergeometric-exact"]
        doc["trials"], doc["seed"] = 6, 5
        cfg = write(tmp_path / "top.json", json.dumps(doc))
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
        capsys.readouterr()
        assert main(["report", "--in", str(out)]) == 0
        assert "joint confidence" in capsys.readouterr().out


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

    def test_help_lists_every_subcommand(self):
        out = _fresh_python("-m", "matchcert", "--help").stdout
        listed = {line.split()[0] for line in out.splitlines() if line.startswith("    ")}
        assert listed == {"gen", "match", "split", "validate", "coverage", "report"}
