import pytest

from matchcert.errors import MatchcertError
from matchcert.graphs import (
    MatchRole,
    NetworkPair,
    by_x,
    make_match_set,
    make_network,
)
from matchcert.matchers import (
    VERIFIED_SAMPLE,
    MatcherConfig,
    TopDegree,
    build_matcher,
    percolate_step,
    run_batch,
    run_query,
    with_extra_seeds,
)
from matchcert.synth import ErdosRenyi, GeneratorConfig, generate_pair


def mirrored_pair(names, edges, attr=None):
    """Two structurally identical copies with x/y prefixes."""
    xs = make_network(
        [f"x{n}" for n in names],
        [(f"x{u}", f"x{v}") for u, v in edges],
        {f"x{n}": {"uid": (attr or {}).get(n, str(n))} for n in names},
    )
    ys = make_network(
        [f"y{n}" for n in names],
        [(f"y{u}", f"y{v}") for u, v in edges],
        {f"y{n}": {"uid": (attr or {}).get(n, str(n))} for n in names},
    )
    return NetworkPair(xs, ys)


class TestAttributeExact:
    def test_unique_attribute_recovers_identity(self):
        pair = mirrored_pair(["a", "b", "c"], [("a", "b")])
        handle = build_matcher(MatcherConfig("attribute-exact", attr_key="uid"))
        got = run_batch(handle, pair)
        assert got.pairs == {("xa", "ya"), ("xb", "yb"), ("xc", "yc")}
        assert got.role == MatchRole.IDENTIFIED_HOLDOUT

    def test_missing_attr_key(self):
        pair = mirrored_pair(["a"], [])
        handle = build_matcher(MatcherConfig("attribute-exact"))
        with pytest.raises(MatchcertError, match="missing-attr-key"):
            run_batch(handle, pair)

    def test_shared_value_produces_all_pairs(self):
        pair = mirrored_pair(["a", "b"], [], attr={"a": "same", "b": "same"})
        handle = build_matcher(MatcherConfig("attribute-exact", attr_key="uid"))
        assert len(run_batch(handle, pair).pairs) == 4


class TestPercolation:
    def test_seeds_are_kept(self):
        pair = mirrored_pair(["a", "b", "c"], [("a", "b"), ("b", "c")])
        seeds = (("xa", "ya"), ("xb", "yb"), ("xc", "yc"))
        handle = build_matcher(MatcherConfig("percolation", seeds=seeds, threshold=1))
        got = run_batch(handle, pair)
        assert got.pairs >= set(seeds)

    def test_edgeless_empty_seeds(self):
        pair = mirrored_pair(["a", "b"], [])
        handle = build_matcher(MatcherConfig("percolation", seeds=()))
        assert run_batch(handle, pair).pairs == frozenset()

    def test_identical_copies_percolate_fully(self):
        names = [f"n{i}" for i in range(8)]
        ring = [(f"n{i}", f"n{(i + 1) % 8}") for i in range(8)]
        pair = mirrored_pair(names, ring)
        handle = build_matcher(
            MatcherConfig("percolation", seeds=(("xn0", "yn0"), ("xn1", "yn1")))
        )
        got = run_batch(handle, pair)
        assert got.pairs == {(f"xn{i}", f"yn{i}") for i in range(8)}

    def test_threshold_above_degree_adds_nothing(self):
        pair = mirrored_pair(["a", "b", "c"], [("a", "b"), ("b", "c")])
        seeds = (("xb", "yb"),)
        handle = build_matcher(MatcherConfig("percolation", seeds=seeds, threshold=3))
        assert run_batch(handle, pair).pairs == set(seeds)

    def test_star_lexicographic_conflict_resolution(self):
        # one matched center, three leaves per side, threshold 1: every
        # leaf pair is eligible with count 1, greedy lexicographic pairing
        names = ["c", "l1", "l2", "l3"]
        star = [("c", "l1"), ("c", "l2"), ("c", "l3")]
        pair = mirrored_pair(names, star)
        current = make_match_set([("xc", "yc")], pair, MatchRole.IDENTIFIED)
        grown = percolate_step(current, pair, threshold=1)
        assert grown.pairs == {
            ("xc", "yc"),
            ("xl1", "yl1"),
            ("xl2", "yl2"),
            ("xl3", "yl3"),
        }

    def test_step_monotone_and_idempotent_at_fixed_point(self):
        names = [f"n{i}" for i in range(6)]
        path = [(f"n{i}", f"n{i + 1}") for i in range(5)]
        pair = mirrored_pair(names, path)
        current = make_match_set([("xn0", "yn0")], pair, MatchRole.IDENTIFIED)
        seen = current
        for _ in range(10):
            grown = percolate_step(seen, pair, threshold=1)
            assert grown.pairs >= seen.pairs
            if grown.pairs == seen.pairs:
                break
            seen = grown
        assert percolate_step(seen, pair, threshold=1).pairs == seen.pairs

    def test_top_degree_seed_rule(self):
        names = ["hub", "a", "b", "c"]
        star = [("hub", "a"), ("hub", "b"), ("hub", "c")]
        pair = mirrored_pair(names, star)
        handle = build_matcher(MatcherConfig("percolation", seeds=TopDegree(1)))
        got = run_batch(handle, pair)
        assert ("xhub", "yhub") in got.pairs

    def test_shuffled_input_order_same_output(self):
        cfg = GeneratorConfig(
            n_entities=120,
            base_model=ErdosRenyi(0.05),
            edge_retain_x=0.9,
            edge_retain_y=0.9,
            rng_seed=5,
        )
        pair, truth = generate_pair(cfg)
        seeds = tuple(sorted(truth.pairs)[:10])
        handle = build_matcher(MatcherConfig("percolation", seeds=seeds, threshold=2))
        first = run_batch(handle, pair)
        # rebuild the pair with scrambled construction order
        import random

        rnd = random.Random(0)
        xn = list(pair.x_net.nodes)
        xe = list(pair.x_net.edges)
        yn = list(pair.y_net.nodes)
        ye = list(pair.y_net.edges)
        rnd.shuffle(xn), rnd.shuffle(xe), rnd.shuffle(yn), rnd.shuffle(ye)
        scrambled = NetworkPair(
            make_network(xn, [(v, u) for u, v in xe], dict(pair.x_net.attrs)),
            make_network(yn, ye, dict(pair.y_net.attrs)),
        )
        fresh = build_matcher(MatcherConfig("percolation", seeds=seeds, threshold=2))
        assert run_batch(fresh, scrambled).pairs == first.pairs

    def test_repeated_runs_identical(self):
        pair = mirrored_pair(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
        handle = build_matcher(
            MatcherConfig("percolation", seeds=(("xa", "ya"),), threshold=1)
        )
        assert run_batch(handle, pair).pairs == run_batch(handle, pair).pairs


class TestQueryMode:
    def test_query_matches_batch_restriction(self):
        cfg = GeneratorConfig(
            n_entities=150,
            base_model=ErdosRenyi(0.04),
            edge_retain_x=0.85,
            edge_retain_y=0.85,
            node_drop_x=0.05,
            node_drop_y=0.05,
            rng_seed=9,
        )
        pair, truth = generate_pair(cfg)
        seeds = tuple(sorted(truth.pairs)[:12])
        handle = build_matcher(MatcherConfig("percolation", seeds=seeds, threshold=2))
        full = run_batch(handle, pair)
        import random

        rnd = random.Random(1)
        for x in rnd.sample(sorted(pair.x_net.nodes), 100):
            assert run_query(handle, pair, x) == by_x(full).get(x, frozenset())

    def test_query_deterministic(self):
        pair = mirrored_pair(["a", "b"], [("a", "b")])
        handle = build_matcher(
            MatcherConfig("percolation", seeds=(("xa", "ya"),), threshold=1)
        )
        assert run_query(handle, pair, "xb") == run_query(handle, pair, "xb")

    def test_query_counter(self):
        pair = mirrored_pair(["a", "b"], [("a", "b")])
        handle = build_matcher(MatcherConfig("percolation", seeds=()))
        run_query(handle, pair, "xa")
        run_query(handle, pair, "xb")
        assert handle.queries == 2

    def test_unknown_node(self):
        pair = mirrored_pair(["a"], [])
        handle = build_matcher(MatcherConfig("percolation", seeds=()))
        with pytest.raises(MatchcertError, match="unknown-node"):
            run_query(handle, pair, "nope")


class TestSelfMatchMode:
    def test_attribute_exact_excludes_identity(self):
        # field-matching setup: one universe, pairs of distinct fields that
        # share a value, never a field with itself
        net = make_network(
            ["email1", "phone1", "phone2"],
            [],
            {
                "email1": {"owner": "alice"},
                "phone1": {"owner": "alice"},
                "phone2": {"owner": "bob"},
            },
        )
        pair = NetworkPair(net, net, self_match_mode=True)
        handle = build_matcher(MatcherConfig("attribute-exact", attr_key="owner"))
        got = run_batch(handle, pair)
        assert got.pairs == {("email1", "phone1"), ("phone1", "email1")}

    def test_percolation_excludes_identity(self):
        net = make_network(
            ["a", "b", "c", "d"],
            [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c")],
        )
        pair = NetworkPair(net, net, self_match_mode=True)
        handle = build_matcher(
            MatcherConfig("percolation", seeds=(("a", "b"),), threshold=1)
        )
        got = run_batch(handle, pair)
        assert all(x != y for x, y in got.pairs)


class TestHandles:
    def test_config_json_roundtrip(self):
        for cfg in (
            MatcherConfig("attribute-exact", attr_key="uid"),
            MatcherConfig("percolation", seeds=TopDegree(5), threshold=2, max_iters=7),
            MatcherConfig("percolation", seeds=(("a", "b"),)),
            MatcherConfig("percolation", seeds=VERIFIED_SAMPLE),
        ):
            doc = cfg.to_json_dict()
            assert set(doc) == {"kind", "attr_key", "seeds", "threshold", "max_iters"}
            assert MatcherConfig.from_json_dict(doc) == cfg

    def test_complete_handle_provenance(self):
        holdout = build_matcher(
            MatcherConfig("percolation", seeds=VERIFIED_SAMPLE),
            training_matches=[("xa", "ya")],
            trained_on=["train-seeds"],
        )
        assert holdout.holdout
        complete = with_extra_seeds(holdout, [("xb", "yb")], ["validation-sample"])
        assert not complete.holdout
        assert "validation-sample" in complete.trained_on
        assert not complete.same_function(holdout)
        unchanged = with_extra_seeds(holdout, [], [])
        assert unchanged.same_function(holdout)

    def test_invalid_configs(self):
        with pytest.raises(MatchcertError, match="unknown-matcher-kind"):
            MatcherConfig("magic")
        with pytest.raises(MatchcertError, match="invalid-threshold"):
            MatcherConfig("percolation", threshold=0)
        with pytest.raises(MatchcertError, match="unknown-seed-rule"):
            MatcherConfig("percolation", seeds="all-of-them")
