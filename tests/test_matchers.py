import random

import pytest
from oracles import percolate_reference, top_degree_reference

from matchcert.errors import MatchcertError
from matchcert.graphs import NetworkPair, by_x, make_match_set, make_network
from matchcert.matchers import (
    VERIFIED_SAMPLE,
    MatcherConfig,
    TopDegree,
    build_matcher,
    run_batch,
    run_query,
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


def one_round(pair, seeds):
    """The pairs after one percolation round from ``seeds``, threshold 1."""
    config = MatcherConfig(
        "percolation", seeds=tuple(sorted(seeds)), threshold=1, max_iters=1
    )
    return run_batch(build_matcher(config), pair).pairs


class TestAttributeExact:
    def test_unique_attribute_recovers_identity(self):
        pair = mirrored_pair(["a", "b", "c"], [("a", "b")])
        handle = build_matcher(MatcherConfig("attribute-exact", attr_key="uid"))
        got = run_batch(handle, pair)
        assert got.pairs == {("xa", "ya"), ("xb", "yb"), ("xc", "yc")}

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
        grown = one_round(pair, [("xc", "yc")])
        assert grown == {
            ("xc", "yc"),
            ("xl1", "yl1"),
            ("xl2", "yl2"),
            ("xl3", "yl3"),
        }

    def test_step_monotone_and_idempotent_at_fixed_point(self):
        names = [f"n{i}" for i in range(6)]
        path = [(f"n{i}", f"n{i + 1}") for i in range(5)]
        pair = mirrored_pair(names, path)
        seen = frozenset({("xn0", "yn0")})
        for _ in range(10):
            grown = one_round(pair, seen)
            assert grown >= seen
            if grown == seen:
                break
            seen = grown
        assert one_round(pair, seen) == seen

    def test_identity_seed_rejected_in_self_match_mode(self):
        net = make_network(["a", "b", "c"], [("a", "b"), ("b", "c")])
        pair = NetworkPair(net, net, self_match_mode=True)
        handle = build_matcher(
            MatcherConfig("percolation", seeds=(("a", "b"), ("c", "c")))
        )
        with pytest.raises(MatchcertError, match="identity-pair-forbidden"):
            run_batch(handle, pair)

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


def random_pair(rnd: random.Random) -> NetworkPair:
    """A small ER pair whose ids sort differently from their numbers
    ("n10" < "n2"); a fifth of the pairs share one universe in self-match
    mode, and some edge sets are empty."""
    def net(prefix, n, p):
        names = [f"{prefix}{i}" for i in range(n)]
        edges = [
            (names[u], names[v])
            for u in range(n)
            for v in range(u + 1, n)
            if rnd.random() < p
        ]
        return make_network(names, edges)

    p = rnd.choice([0.0, 0.05, 0.15, 0.3, 0.5])
    if rnd.random() < 0.2:
        shared = net("n", rnd.randint(2, 30), p)
        return NetworkPair(shared, shared, self_match_mode=True)
    return NetworkPair(
        net("x", rnd.randint(1, 30), p), net("y", rnd.randint(1, 30), p)
    )


def random_seeds(rnd: random.Random, pair: NetworkPair) -> list[tuple[str, str]]:
    """Random seed pairs, often repeating an x or a y."""
    xs, ys = sorted(pair.x_net.nodes), sorted(pair.y_net.nodes)
    seeds = []
    for _ in range(rnd.randint(0, 6)):
        x, y = rnd.choice(xs), rnd.choice(ys)
        seeds.append((x, y))
        if rnd.random() < 0.3:
            seeds.append((x, rnd.choice(ys)))
        if rnd.random() < 0.3:
            seeds.append((rnd.choice(xs), y))
    return [(x, y) for x, y in seeds if not (pair.self_match_mode and x == y)]


class TestPercolationMatchesReference:
    """The array rounds give the set the per-pair dict loop gives."""

    def test_random_small_pairs(self):
        rnd = random.Random(20260808)
        seen = dict.fromkeys(
            ("self-mode", "no-edges", "isolated", "repeated-x", "repeated-y",
             "max-iters-stop", "grew", "top-degree"), 0
        )
        for _ in range(400):
            pair = random_pair(rnd)
            seeds = random_seeds(rnd, pair)
            threshold, max_iters = rnd.randint(1, 3), rnd.randint(1, 5)
            top = TopDegree(rnd.randint(1, 4)) if rnd.random() < 0.25 else None
            start = seeds
            if top is not None:
                start = seeds + top_degree_reference(pair, top.k)
            handle = build_matcher(
                MatcherConfig(
                    "percolation",
                    seeds=top if top is not None else VERIFIED_SAMPLE,
                    threshold=threshold,
                    max_iters=max_iters,
                ),
                training_matches=seeds,
            )
            want = percolate_reference(pair, start, threshold, max_iters)
            assert run_batch(handle, pair).pairs == want

            seen["self-mode"] += pair.self_match_mode
            seen["no-edges"] += not pair.x_net.edges
            seen["isolated"] += any(
                all(n not in e for e in pair.x_net.edges) for n in pair.x_net.nodes
            )
            seen["repeated-x"] += len({x for x, _ in start}) < len(set(start))
            seen["repeated-y"] += len({y for _, y in start}) < len(set(start))
            seen["max-iters-stop"] += want != percolate_reference(
                pair, start, threshold, max_iters + 1
            )
            seen["grew"] += len(want) > len(set(start))
            seen["top-degree"] += top is not None
        assert min(seen.values()) >= 10, seen

    def test_key_seeds_give_the_string_seeds_set(self):
        # the same 400 pairs: training pairs given as a MatchSet are taken
        # in key order, so they give the set that their string pairs give
        # in sorted order, under a TopDegree rule and in self-match mode too
        rnd = random.Random(20260808)
        seen = dict.fromkeys(("self-mode", "top-degree", "conflict"), 0)
        for _ in range(400):
            pair = random_pair(rnd)
            seeds = random_seeds(rnd, pair)
            threshold, max_iters = rnd.randint(1, 3), rnd.randint(1, 5)
            top = TopDegree(rnd.randint(1, 4)) if rnd.random() < 0.25 else None
            config = MatcherConfig(
                "percolation",
                seeds=top or VERIFIED_SAMPLE,
                threshold=threshold,
                max_iters=max_iters,
            )
            ordered = sorted(set(seeds))
            as_keys = run_batch(build_matcher(config, make_match_set(seeds, pair)), pair)
            assert as_keys == run_batch(build_matcher(config, ordered), pair)
            start = ordered + (top_degree_reference(pair, top.k) if top else [])
            assert as_keys.pairs == percolate_reference(pair, start, threshold, max_iters)

            seen["self-mode"] += pair.self_match_mode
            seen["top-degree"] += top is not None
            seen["conflict"] += len({x for x, _ in ordered}) < len(ordered)
        assert min(seen.values()) >= 10, seen

    @pytest.mark.parametrize("threshold", [1, 2, 3])
    def test_generated_world(self, threshold):
        cfg = GeneratorConfig(
            n_entities=400,
            base_model=ErdosRenyi(8 / 400),
            edge_retain_x=0.8,
            edge_retain_y=0.8,
            node_drop_x=0.1,
            node_drop_y=0.1,
            rng_seed=threshold,
        )
        pair, truth = generate_pair(cfg)
        seeds = sorted(truth.pairs)[:80]
        handle = build_matcher(
            MatcherConfig("percolation", seeds=tuple(seeds), threshold=threshold)
        )
        got = run_batch(handle, pair).pairs
        assert got == percolate_reference(pair, seeds, threshold, 25)
        assert len(got) > 1.5 * len(seeds)


class TestOneToOneSeeds:
    """Percolation takes its seeds in order, the training pairs first, and
    drops a seed whose x or y an earlier seed took."""

    def test_training_pairs_win_a_conflict(self):
        pair = mirrored_pair(["a", "b", "c"], [])
        handle = build_matcher(
            MatcherConfig(
                "percolation", seeds=(("xa", "yb"), ("xc", "ya"), ("xc", "yc"))
            ),
            training_matches=[("xa", "ya")],
        )
        assert run_batch(handle, pair).pairs == {("xa", "ya"), ("xc", "yc")}

    def test_conflicting_seed_lists_give_one_match_per_node(self):
        rnd = random.Random(20261019)
        conflicts = 0
        for _ in range(300):
            pair = random_pair(rnd)
            training, extra = random_seeds(rnd, pair), random_seeds(rnd, pair)
            rule = TopDegree(rnd.randint(1, 4)) if rnd.random() < 0.3 else tuple(extra)
            handle = build_matcher(
                MatcherConfig(
                    "percolation",
                    seeds=rule,
                    threshold=rnd.randint(1, 3),
                    max_iters=rnd.randint(1, 5),
                ),
                training_matches=training,
            )
            got = run_batch(handle, pair).sorted_pairs
            assert len({x for x, _ in got}) == len(got) == len({y for _, y in got})
            taken_x, taken_y = set(), set()
            for x, y in training:  # the training pairs are taken first, in order
                if x not in taken_x and y not in taken_y:
                    assert (x, y) in got
                    taken_x.add(x)
                    taken_y.add(y)
            conflicts += len(taken_x) < len(set(training))
        assert conflicts >= 30, conflicts


def percolate_rounds(pair, seeds, threshold, rounds=4):
    """run_batch's pairs after 1..``rounds`` rounds, each checked against
    the reference loop, with no pair accepted twice."""
    out = []
    for max_iters in range(1, rounds + 1):
        handle = build_matcher(
            MatcherConfig(
                "percolation", seeds=tuple(seeds), threshold=threshold,
                max_iters=max_iters,
            )
        )
        got = run_batch(handle, pair)
        assert got.pairs == percolate_reference(pair, seeds, threshold, max_iters)
        assert got.keys.size == len(got.pairs)
        out.append(got.pairs)
    return out


def union_pair(pair):
    """Both networks of ``pair`` as one universe, in self-match mode."""
    net = make_network(
        sorted(pair.x_net.nodes | pair.y_net.nodes),
        sorted(pair.x_net.edges | pair.y_net.edges),
    )
    return NetworkPair(net, net, self_match_mode=True)


class TestMarksAddUpAcrossRounds:
    """Each matched pair marks its candidates once, in the round after it is
    matched; a candidate's marks from different rounds add up, and a
    candidate with a matched end is gone for good."""

    SEEDS = [("xs1", "ys1"), ("xs2", "ys2")]

    @staticmethod
    def chain():
        # threshold 2: b (next to both seeds) is matched in round 1, d (next
        # to s1 and b) in round 2, and c, next to b and d only, gets one
        # mark from each and is matched in round 3
        return mirrored_pair(
            ["s1", "s2", "b", "c", "d"],
            [("s1", "b"), ("s2", "b"), ("s1", "d"), ("b", "d"), ("b", "c"),
             ("d", "c")],
        )

    @staticmethod
    def stolen():
        # threshold 2: round 1 gives (xu, yt) one mark (from s1) and matches
        # xu to yu; p and q are matched in round 2, and in round 3 each is
        # next to xu and yt. Marks there would give (xu, yt) count 2 and the
        # win over (xu, yu) by id order, so yt would take a matched x.
        xs = ["xs1", "xs2", "xu", "xp", "xq"]
        ys = ["ys1", "ys2", "yu", "yt", "yp", "yq"]
        x_edges = [("xs1", "xu"), ("xs2", "xu"), ("xs1", "xp"), ("xu", "xp"),
                   ("xs2", "xq"), ("xu", "xq")]
        y_edges = [("ys1", "yu"), ("ys2", "yu"), ("ys1", "yt"), ("ys1", "yp"),
                   ("yu", "yp"), ("ys2", "yq"), ("yu", "yq"), ("yp", "yt"),
                   ("yq", "yt")]
        return NetworkPair(make_network(xs, x_edges), make_network(ys, y_edges))

    def test_marks_from_two_rounds_add_up(self):
        one, two, three, four = percolate_rounds(self.chain(), self.SEEDS, 2)
        assert one - set(self.SEEDS) == {("xb", "yb")}
        assert two - one == {("xd", "yd")}
        assert three - two == {("xc", "yc")}
        assert four == three

    def test_candidate_with_matched_end_is_not_revived(self):
        one, two, three, _ = percolate_rounds(self.stolen(), self.SEEDS, 2)
        assert one - set(self.SEEDS) == {("xu", "yu")}
        assert two - one == {("xp", "yp"), ("xq", "yq")}
        assert three == two  # yt stays unmatched

    def test_eligible_candidate_that_loses_an_end_is_dropped(self):
        # threshold 1: (xl1, yl1) and (xl2, yl1) are both eligible in round
        # 1; the first takes yl1, and the second must not come back later
        pair = NetworkPair(
            make_network(["xc", "xl1", "xl2"], [("xc", "xl1"), ("xc", "xl2")]),
            make_network(["yc", "yl1"], [("yc", "yl1")]),
        )
        one, two = percolate_rounds(pair, [("xc", "yc")], 1, rounds=2)
        assert one == two == {("xc", "yc"), ("xl1", "yl1")}

    def test_new_marks_repeat_a_key_in_the_table(self):
        # threshold 3: round 1 gives (xa, ya) and (xb, yb) three marks each
        # (from s1, s2, s3) and (xc, yc) one (from s1); in round 2 the table
        # still holds that mark, and a and b mark (xc, yc) once each, so
        # the round's marks repeat the key twice and the merge adds to 3
        names = ["s1", "s2", "s3", "a", "b", "c"]
        edges = [(s, t) for s in ("s1", "s2", "s3") for t in ("a", "b")]
        edges += [("a", "c"), ("b", "c")]
        seeds = [("xs1", "ys1"), ("xs2", "ys2"), ("xs3", "ys3")]
        pair = mirrored_pair(names, edges + [("s1", "c")])
        one, two, three = percolate_rounds(pair, seeds, 3, rounds=3)
        assert one - set(seeds) == {("xa", "ya"), ("xb", "yb")}
        assert two - one == {("xc", "yc")}
        assert three == two
        # without the table's mark from round 1, (xc, yc) stays at 2
        one, two = percolate_rounds(mirrored_pair(names, edges), seeds, 3, rounds=2)
        assert two == one

    @pytest.mark.parametrize("graph", ["chain", "stolen"])
    @pytest.mark.parametrize("threshold", [1, 2, 3])
    def test_one_round_and_self_match_mode(self, graph, threshold):
        # percolate_rounds starts at max_iters=1; in one universe the same
        # pairs come out, round by round
        pair = getattr(self, graph)()
        rounds = percolate_rounds(pair, self.SEEDS, threshold)
        assert percolate_rounds(union_pair(pair), self.SEEDS, threshold) == rounds

    def test_first_bad_seed_is_named(self):
        net = make_network(["a", "b", "c"], [("a", "b"), ("b", "c")])
        pair = NetworkPair(net, net, self_match_mode=True)
        for seeds, error in (
            ((("a", "b"), ("zz", "c"), ("c", "c")), "unknown-node: seed pair ('zz', 'c')"),
            ((("a", "b"), ("c", "c"), ("a", "zz")), "identity-pair-forbidden: ('c', 'c')"),
        ):
            handle = build_matcher(MatcherConfig("percolation", seeds=seeds))
            with pytest.raises(MatchcertError) as info:
                run_batch(handle, pair)
            assert str(info.value) == error


class TestPercolationEdges:
    """Edge cases of the joint gather and the multiset mark table, each
    checked against the reference loop round by round."""

    def test_threshold_three(self):
        # b is next to all three seeds, c to two of them: only (xb, yb) has
        # 3 marks in round 1, and (xc, yc) gets its third from b in round 2
        pair = mirrored_pair(
            ["s1", "s2", "s3", "b", "c"],
            [("s1", "b"), ("s2", "b"), ("s3", "b"), ("s1", "c"), ("s2", "c"),
             ("b", "c")],
        )
        seeds = [("xs1", "ys1"), ("xs2", "ys2"), ("xs3", "ys3")]
        one, two, three = percolate_rounds(pair, seeds, 3, rounds=3)
        assert one - set(seeds) == {("xb", "yb")}
        assert two - one == {("xc", "yc")}
        assert three == two
        union = union_pair(pair)
        assert percolate_rounds(union, seeds, 3, rounds=3) == [one, two, three]

    @pytest.mark.parametrize("threshold", [3, 4, 5])
    def test_fewer_marks_than_the_threshold(self, threshold):
        # one mark per candidate, and from (xs, ya) fewer marks in all than
        # the threshold
        pair = mirrored_pair(["s", "a", "b", "c"], [("s", "a"), ("s", "b"), ("s", "c")])
        for seeds in ([("xs", "ys")], [("xs", "ya")]):
            assert percolate_rounds(pair, seeds, threshold, rounds=2)[-1] == set(seeds)

    def test_seed_without_unmatched_neighbour(self):
        # s1's only neighbour is the seed s2, and i has no edge at all; the
        # gather skips their rows, wherever they fall among the seeds
        pair = mirrored_pair(
            ["s1", "s2", "a", "i"], [("s1", "s2"), ("s2", "a")]
        )
        for seeds in (
            [("xs1", "ys1"), ("xs2", "ys2"), ("xi", "yi")],
            [("xi", "yi"), ("xs1", "ys1"), ("xs2", "ys2")],
            [("xs2", "ys2"), ("xi", "yi"), ("xs1", "ys1")],
        ):
            rounds = percolate_rounds(pair, seeds, 1, rounds=2)
            assert rounds == [set(seeds) | {("xa", "ya")}] * 2
        # an x end with unmatched neighbours paired with a y end without any
        lone = [("xs2", "yi")]
        assert percolate_rounds(pair, lone, 1, rounds=2)[-1] == set(lone)

    def test_round_without_marks_keeps_table_and_stops(self):
        # threshold 2: round 1 matches b (next to both seeds) and leaves
        # (xl, yl) with one mark; b has no unmatched neighbour, so round 2
        # adds no marks, finds nothing eligible and ends the run
        pair = mirrored_pair(
            ["s1", "s2", "b", "l"], [("s1", "b"), ("s2", "b"), ("s1", "l")]
        )
        seeds = [("xs1", "ys1"), ("xs2", "ys2")]
        rounds = percolate_rounds(pair, seeds, 2, rounds=3)
        assert rounds == [set(seeds) | {("xb", "yb")}] * 3
        assert percolate_rounds(union_pair(pair), seeds, 2, rounds=3) == rounds

    def test_self_match_mode_drops_identity_candidates(self):
        # one universe: a and b share the neighbour c, so the seed (a, b)
        # would mark (c, c); without it (c, e) and (d, c) are accepted
        net = make_network(
            ["a", "b", "c", "d", "e"], [("a", "c"), ("b", "c"), ("a", "d"), ("b", "e")]
        )
        pair = NetworkPair(net, net, self_match_mode=True)
        one, two = percolate_rounds(pair, [("a", "b")], 1, rounds=2)
        assert one == two == {("a", "b"), ("c", "e"), ("d", "c")}

    @pytest.mark.parametrize("threshold", [1, 2, 3])
    def test_one_round_on_generated_worlds(self, threshold):
        cfg = GeneratorConfig(
            n_entities=200, base_model=ErdosRenyi(0.05), edge_retain_x=0.8,
            edge_retain_y=0.8, node_drop_x=0.1, node_drop_y=0.1, rng_seed=threshold,
        )
        pair, truth = generate_pair(cfg)
        seeds = sorted(truth.pairs)[::4]
        handle = build_matcher(
            MatcherConfig("percolation", seeds=tuple(seeds), threshold=threshold,
                          max_iters=1)
        )
        got = run_batch(handle, pair).pairs
        assert got == percolate_reference(pair, seeds, threshold, 1)
        assert len(got) > len(seeds)

    def test_first_bad_seed_is_named_across_networks(self):
        pair = mirrored_pair(["a", "b"], [("a", "b")])
        for seeds, error in (
            ((("xa", "ya"), ("xa", "yzz"), ("xzz", "ya")),
             "unknown-node: seed pair ('xa', 'yzz')"),
            ((("xb", "yb"), ("xzz", "ya"), ("xa", "yzz")),
             "unknown-node: seed pair ('xzz', 'ya')"),
        ):
            handle = build_matcher(MatcherConfig("percolation", seeds=seeds))
            with pytest.raises(MatchcertError) as info:
                run_batch(handle, pair)
            assert str(info.value) == error


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

    def test_match_set_seeds(self):
        pair = mirrored_pair(["a", "b", "c"], [])
        seeds = make_match_set([("xc", "yc"), ("xa", "ya")], pair)
        handle = build_matcher(MatcherConfig("percolation"), seeds)
        assert handle.training_matches is seeds
        assert run_batch(handle, pair) == seeds
        with pytest.raises(MatchcertError, match="^universe-mismatch:"):
            run_batch(handle, mirrored_pair(["a", "b"], []))

    def test_invalid_configs(self):
        with pytest.raises(MatchcertError, match="unknown-matcher-kind"):
            MatcherConfig("magic")
        with pytest.raises(MatchcertError, match="invalid-threshold"):
            MatcherConfig("percolation", threshold=0)
        with pytest.raises(MatchcertError, match="unknown-seed-rule"):
            MatcherConfig("percolation", seeds="all-of-them")

    def test_negative_top_degree_is_rejected(self):
        # read as a slice bound, k = -1 would seed every ranked pair but
        # the last
        with pytest.raises(MatchcertError, match="^invalid-top-degree: -1$"):
            MatcherConfig.from_json_dict(
                {"kind": "percolation", "seeds": {"top-degree-k": -1}}
            )
        # k = 0 seeds nothing, so a path world percolates to nothing
        pair = mirrored_pair([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3)])
        handle = build_matcher(MatcherConfig("percolation", seeds=TopDegree(0)))
        assert run_batch(handle, pair).keys.size == 0

    @pytest.mark.parametrize("seeds", [True, 5, 2.5, ["ab"], [["a", "b"], "cd"]])
    def test_json_seeds_that_cannot_run(self, seeds):
        # "ab" would unpack to the seed ("a", "b"), and True or 5 would
        # fail only when match iterates them
        with pytest.raises(MatchcertError, match="^unknown-seed-rule: "):
            MatcherConfig.from_json_dict({"kind": "percolation", "seeds": seeds})

    @pytest.mark.parametrize(
        "seeds", [[("a", "b")], (("a", "b", "c"),), (("a", 1),), ("ab",), (["a", "b"],)]
    )
    def test_seeds_are_a_rule_or_a_tuple_of_string_pairs(self, seeds):
        with pytest.raises(MatchcertError, match="^unknown-seed-rule: "):
            MatcherConfig("percolation", seeds=seeds)
