import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    by_x_reference,
    canonical_edges_reference,
    csr_reference,
    load_network_reference,
    read_items_reference,
    read_pairs_reference,
    two_sort_csr_reference,
)

from matchcert.errors import MatchcertError
from matchcert.synth import ErdosRenyi, GeneratorConfig, generate_pair
from matchcert.graphs import (
    NetworkPair,
    NodeIndex,
    by_x,
    load_matches,
    load_network,
    make_match_set,
    make_network,
    matches_of,
    read_items,
    read_pairs,
    save_matches,
    save_network,
    split_keys,
)


@pytest.fixture
def small_pair():
    x = make_network(["a", "b", "c"], [("a", "b"), ("b", "c")])
    y = make_network(["p", "q", "r"], [("p", "q")])
    return NetworkPair(x, y)


class TestNetwork:
    def test_edges_canonical_and_deduped(self):
        net = make_network(["a", "b"], [("b", "a"), ("a", "b")])
        assert net.edges == frozenset({("a", "b")})

    def test_self_loop_rejected(self):
        with pytest.raises(MatchcertError, match="self-loop"):
            make_network(["a"], [("a", "a")])

    def test_dangling_endpoint_rejected(self):
        with pytest.raises(MatchcertError, match="unknown-node"):
            make_network(["a"], [("a", "b")])

    def test_self_match_requires_shared_universe(self):
        x = make_network(["a", "b"], [("a", "b")])
        y = make_network(["a", "c"], [])
        with pytest.raises(MatchcertError, match="self-match-universe"):
            NetworkPair(x, y, self_match_mode=True)

    def test_index_is_sorted_csr(self):
        # "n10" < "n2" < "n9" in id order; n5 is isolated
        net = make_network(
            ["n9", "n2", "n10", "n5"], [("n9", "n2"), ("n10", "n9"), ("n2", "n10")]
        )
        index = net.index
        assert index.ids == ["n10", "n2", "n5", "n9"]
        probe = ["n10", "n2", "n5", "n9", "n1", "n"]
        assert index.positions(probe).tolist() == [0, 1, 2, 3, -1, -1]
        assert index.indptr.tolist() == [0, 2, 4, 4, 6]
        assert index.nbr.tolist() == [1, 3, 0, 3, 0, 1]
        assert net.index is index  # built once per network

    def test_index_of_edgeless_network(self):
        index = make_network(["b", "a"], []).index
        assert index.ids == ["a", "b"]
        assert index.indptr.tolist() == [0, 0, 0]
        assert index.nbr.size == 0

    def test_index_leaves_equality_and_repr_alone(self):
        a = make_network(["a", "b", "c"], [("a", "b")])
        b = make_network(["c", "b", "a"], [("b", "a")])
        before = repr(a)
        assert a.index.ids == ["a", "b", "c"]
        assert repr(a) == before and "index" not in before
        assert a == b  # built from edges in another order and orientation
        NetworkPair(a, b, self_match_mode=True)


class TestMatchSet:
    def test_build_and_views(self, small_pair):
        ms = make_match_set([("a", "p"), ("a", "q"), ("b", "p")], small_pair)
        views = by_x(ms)
        assert views["a"] == {"p", "q"}
        assert "c" not in views
        assert len(views["a"]) == 2

    def test_view_grows_with_added_pair(self, small_pair):
        base = [("a", "p")]
        ms1 = make_match_set(base, small_pair)
        ms2 = make_match_set(base + [("a", "q")], small_pair)
        assert ms2.pairs - ms1.pairs == {("a", "q")}
        assert by_x(ms2)["a"] - by_x(ms1)["a"] == {"q"}

    def test_unknown_endpoints_rejected(self, small_pair):
        with pytest.raises(MatchcertError, match="unknown-node"):
            make_match_set([("a", "zzz")], small_pair)

    @pytest.mark.parametrize(
        "pairs, message",
        [
            # the first bad pair in input order
            ([("a", "p"), ("zz", "yy")], "unknown-node: match pair ('zz', 'yy')"),
            ([("a", "yy"), ("zz", "p")], "unknown-node: match pair ('a', 'yy')"),
            ([("a", "p"), ("a", "q"), ("b", "zz")], "unknown-node: match pair ('b', 'zz')"),
        ],
    )
    def test_first_bad_pair_named(self, small_pair, pairs, message):
        with pytest.raises(MatchcertError) as got:
            make_match_set(iter(pairs), small_pair)
        assert str(got.value) == message

    def test_identity_checked_after_endpoints(self):
        net = make_network(["a", "b"], [("a", "b")])
        pair = NetworkPair(net, net, self_match_mode=True)
        with pytest.raises(MatchcertError, match="^identity-pair-forbidden:"):
            make_match_set([("b", "a"), ("a", "a"), ("a", "zz")], pair)
        bad = r"^unknown-node: match pair \('a', 'zz'\)"
        with pytest.raises(MatchcertError, match=bad):
            make_match_set([("a", "zz"), ("a", "a")], pair)

    def test_multiple_x_one_y_allowed(self, small_pair):
        # aggregation case: several x may share one y
        ms = make_match_set([("a", "p"), ("b", "p")], small_pair)
        assert len(ms.pairs) == 2

    def test_identity_pair_forbidden_in_self_mode(self):
        net = make_network(["a", "b", "c"], [("a", "b")])
        pair = NetworkPair(net, net, self_match_mode=True)
        make_match_set([("a", "b")], pair)
        with pytest.raises(MatchcertError, match="identity-pair-forbidden"):
            make_match_set([("b", "b")], pair)

    def test_match_total_identity(self, small_pair):
        # sum over x of m(x) equals |M|
        ms = make_match_set(
            [("a", "p"), ("a", "q"), ("b", "r"), ("c", "p")],
            small_pair,
        )
        total = sum(len(ys) for ys in by_x(ms).values())
        assert total == len(ms.pairs)

    def test_by_x(self, small_pair):
        ms = make_match_set([("a", "p"), ("a", "q"), ("b", "r")], small_pair)
        assert by_x(ms) == {"a": frozenset({"p", "q"}), "b": frozenset({"r"})}

    def test_by_x_view_is_shared_and_read_only(self, small_pair):
        ms = make_match_set([("a", "p")], small_pair)
        view = by_x(ms)
        with pytest.raises(TypeError):
            view["b"] = frozenset({"q"})
        with pytest.raises(TypeError):
            del view["a"]
        assert by_x(ms) == {"a": frozenset({"p"})}
        assert by_x(ms)["a"] is view["a"]  # one pass per set, shared


# ids whose string order differs from their numeric order ("n10" < "n9")
_IDS = [f"n{i}" for i in range(12)]


@st.composite
def match_worlds(draw):
    """(pair, pairs): a small NetworkPair, in self-match mode or not, and a
    list of its pairs with repeats, where an x may have several y."""
    self_mode = draw(st.booleans())
    xs = draw(st.lists(st.sampled_from(_IDS), min_size=1, max_size=8, unique=True))
    x = make_network(xs, [])
    if self_mode:
        pair = NetworkPair(x, x, self_match_mode=True)
        ys = xs
    else:
        ys = draw(st.lists(st.sampled_from(_IDS), min_size=1, max_size=8, unique=True))
        pair = NetworkPair(x, make_network(ys, []))
    pairs = draw(st.lists(st.tuples(st.sampled_from(xs), st.sampled_from(ys)), max_size=30))
    if self_mode:
        pairs = [(a, b) for a, b in pairs if a != b]
    return pair, pairs


class TestMatchSetKeys:
    @settings(max_examples=150, deadline=None)
    @given(match_worlds())
    def test_keys_and_views(self, world):
        pair, pairs = world
        ms = make_match_set(pairs, pair)
        keys = ms.keys
        assert keys.dtype == np.int64
        assert (np.diff(keys) > 0).all()  # sorted and distinct
        assert ms.x_ids is pair.x_net.index.ids and ms.y_ids is pair.y_net.index.ids
        assert ms.pairs == frozenset(pairs)
        assert ms.sorted_pairs == tuple(sorted(ms.pairs))
        assert ms.decode(keys) == list(ms.sorted_pairs)
        assert dict(by_x(ms)) == by_x_reference(ms)
        nodes = list(reversed(pair.x_net.index.ids)) + ["absent", "n0"]
        # every distinct node, in order; the empty set for one without a
        # match or not in X
        got = matches_of(ms, pair, nodes)
        assert got == {x: by_x_reference(ms).get(x, frozenset()) for x in nodes}
        assert list(got) == list(dict.fromkeys(nodes))

    @settings(max_examples=60, deadline=None)
    @given(match_worlds())
    def test_save_load_round_trip(self, tmp_path_factory, world):
        pair, pairs = world
        ms = make_match_set(pairs, pair)
        first = tmp_path_factory.mktemp("m") / "m.tsv"
        save_matches(ms, first)
        again = load_matches(first, pair)
        assert again == ms and np.array_equal(again.keys, ms.keys)
        second = first.with_name("again.tsv")
        save_matches(again, second)
        assert second.read_bytes() == first.read_bytes()
        lines = first.read_text(encoding="utf-8").splitlines()
        assert lines == [f"{x}\t{y}" for x, y in sorted(set(pairs))]

    def test_equality(self, small_pair):
        a = make_match_set([("b", "q"), ("a", "p")], small_pair)
        b = make_match_set([("a", "p"), ("b", "q")], small_pair)
        assert a == b and hash(a) == hash(b)
        assert a != make_match_set([("a", "p")], small_pair)
        # an equal pair built apart has equal id lists: the sets compare
        x = make_network(["c", "b", "a"], [("b", "c"), ("a", "b")])
        y = make_network(["r", "q", "p"], [("q", "p")])
        twin = make_match_set([("a", "p"), ("b", "q")], NetworkPair(x, y))
        assert twin.x_ids is not a.x_ids and twin == a

    def test_universe_mismatch(self, small_pair):
        from matchcert.batch import true_batch_metrics
        from matchcert.query import true_error_rate, true_query_metrics

        a = make_match_set([("a", "p")], small_pair)
        wider = NetworkPair(
            make_network(["a", "b", "c", "d"], []), small_pair.y_net
        )
        b = make_match_set([("a", "p")], wider)
        for compare in (
            lambda: a == b,
            lambda: a.found_in(b),
            lambda: true_batch_metrics(small_pair, a, b),
            lambda: true_query_metrics(small_pair, a, b),
            lambda: true_error_rate(small_pair, a, b),
            lambda: matches_of(b, small_pair, ["a"]),
        ):
            with pytest.raises(MatchcertError, match="^universe-mismatch:"):
                compare()


def _check_against_reference(nodes, edges):
    """make_network agrees with the string-loop reference: the same error
    token, or the same node set, edge set and CSR arrays."""
    try:
        node_set, edge_set = canonical_edges_reference(nodes, edges)
    except ValueError as e:
        with pytest.raises(MatchcertError, match=f"^{e}:"):
            make_network(nodes, edges)
        return None
    net = make_network(nodes, edges)
    assert net.nodes == node_set
    assert net.edges == edge_set
    ids, indptr, nbr = csr_reference(node_set, edge_set)
    assert net.index.ids == ids
    assert net.index.positions([*ids, "#"]).tolist() == [*range(len(ids)), -1]
    assert net.index.indptr.tolist() == indptr
    assert net.index.nbr.tolist() == nbr
    return net


class TestKeyKernels:
    """The int64 key kernels against the numpy calls they replaced."""

    # (nodes, edges, seed); at 70,001 nodes the arc keys pass 2**32
    @pytest.mark.parametrize(
        "n, m, seed", [(2, 1, 1), (9, 40, 2), (500, 3_000, 3), (70_001, 20_000, 4)]
    )
    def test_build_equals_the_two_sort_build(self, n, m, seed):
        rng = np.random.default_rng(seed)
        u = rng.integers(0, n, m)
        v = (u + rng.integers(1, n, m)) % n  # u != v
        u[0], v[0] = n - 1, n - 2  # the largest arc keys
        # repeats, in the same and in the other orientation
        again = rng.integers(0, m, m // 3 + 1)
        flip = rng.random(again.size) < 0.5
        u2 = np.where(flip, v[again], u[again])
        v2 = np.where(flip, u[again], v[again])
        u, v = np.concatenate([u, u2]), np.concatenate([v, v2])
        ids = [f"{i:06d}" for i in range(n)]
        got = NodeIndex.build(ids, u, v)
        indptr, nbr = two_sort_csr_reference(n, u, v)
        assert np.array_equal(got.indptr, indptr)
        assert np.array_equal(got.nbr, nbr)
        assert got.indptr.dtype == got.nbr.dtype == np.int64
        if n == 70_001:
            assert (np.diff(got.indptr) == 0).any()  # isolated nodes
            assert got.indptr[-1] < 2 * u.size  # repeats dropped
            assert (n - 1) * n + (n - 2) >= 2**32

    def test_split_equals_divmod(self):
        rng = np.random.default_rng(20261019)
        n_x = n_y = 10**5
        keys = np.concatenate([
            rng.integers(0, n_x * n_y, 100_000),
            [0, n_y - 1, n_y, n_x * n_y - 1],
        ])
        for got, want in zip(split_keys(keys, n_y), np.divmod(keys, n_y)):
            assert np.array_equal(got, want)
            assert got.dtype == want.dtype


class TestMakeNetworkReference:
    @pytest.mark.parametrize(
        "nodes, edges",
        [
            (["a", "b", "c", "d"], [("b", "a"), ("c", "d"), ("d", "b")]),  # orientations
            (["a", "b", "c"], [("a", "b"), ("b", "a"), ("a", "b"), ("c", "b")]),  # dups
            (["a", "b", "c", "z"], [("a", "b")]),  # isolated nodes
            (["n9", "n10", "n2"], [("n9", "n10"), ("n2", "n9")]),  # "n10" < "n2"
            (["b", "a"], []),  # empty edge list
            ([], []),  # empty network
        ],
    )
    def test_cases(self, nodes, edges):
        net = _check_against_reference(nodes, edges)
        assert net == make_network(iter(nodes), iter(edges))
        assert net == make_network(list(reversed(nodes)), [(v, u) for u, v in edges])

    @pytest.mark.parametrize(
        "nodes, edges, token",
        [
            (["a", "b"], [("a", "b"), ("b", "b")], "self-loop"),
            (["a"], [("q", "q")], "self-loop"),  # a self-loop on no node
            (["a", "b"], [("a", "b"), ("a", "zz")], "unknown-node"),
            (["a", "b"], [("zz", "yy")], "unknown-node"),
            (["a", "b"], [("a", "zz"), ("b", "b")], "unknown-node"),  # first bad edge
            (["a", "b"], [("b", "b"), ("a", "zz")], "self-loop"),
            (["a", ""], [], "invalid-node-id"),
            (["a", "b\tc"], [("a", "zz")], "invalid-node-id"),  # ids before edges
            (["a\nb"], [], "invalid-node-id"),
            (["a\rb"], [], "invalid-node-id"),
            (["#x", "c"], [("#x", "c")], "invalid-node-id"),
            ([" ", "\u3000"], [(" ", "\u3000")], "invalid-node-id"),
        ],
    )
    def test_bad_input(self, nodes, edges, token):
        with pytest.raises(MatchcertError, match=f"^{token}:"):
            make_network(nodes, edges)

    def test_bad_id_named_is_the_least(self):
        cases = [(["z", "#b", "", "#a"], ""), (["z", "#b", "a\r", "#a"], "#a")]
        for nodes, least in cases:
            with pytest.raises(MatchcertError) as got:
                make_network(nodes, [])
            assert str(got.value) == f"invalid-node-id: {least!r}"

    @pytest.mark.parametrize(
        "attrs", [{"a": {"k": "v\tw"}}, {"a": {"k\nx": "v"}}, {"a": {"k": "v\rw"}}]
    )
    def test_attribute_text_holds_no_line_or_field_break(self, attrs):
        with pytest.raises(MatchcertError, match="^invalid-attribute: 'a': "):
            make_network(["a"], [], attrs)

    def test_edge_that_is_not_a_pair(self):
        # a triple and a single must not pair up into two edges
        with pytest.raises(ValueError):
            make_network(["a", "b", "c", "d"], [("a", "b", "c"), ("d",)])

    def test_unknown_attribute_node(self):
        with pytest.raises(MatchcertError, match="^unknown-node:"):
            make_network(["a"], [], {"b": {"uid": "1"}})

    def test_random_inputs(self):
        rng = random.Random(7)
        pool = ["a", "b", "c", "n1", "n2", "n9", "n10", "n11", "x", "y"]
        outcomes = {"ok": 0, "error": 0}
        for _ in range(400):
            nodes = rng.sample(pool, rng.randint(0, len(pool)))
            nodes += rng.sample(nodes, min(len(nodes), rng.randint(0, 2)))  # repeats
            ends = nodes if rng.random() < 0.8 else pool
            edges = [
                (rng.choice(ends), rng.choice(ends))
                for _ in range(rng.randint(0, 12) if ends else 0)
            ]
            if rng.random() < 0.8:  # mostly valid inputs
                edges = [(u, v) for u, v in edges if u != v and {u, v} <= set(nodes)]
            net = _check_against_reference(nodes, edges)
            outcomes["ok" if net is not None else "error"] += 1
        assert min(outcomes.values()) >= 40, outcomes

    def test_save_writes_edges_in_sorted_order(self, tmp_path):
        net = make_network(
            ["n9", "n10", "n2", "a"], [("n9", "n10"), ("n2", "n9"), ("n10", "a")]
        )
        f = tmp_path / "net.tsv"
        save_network(net, f)
        lines = [ln for ln in f.read_text().split("\n") if ln and not ln.startswith("#")]
        assert lines == [f"{u}\t{v}" for u, v in sorted(net.edges)]


class TestNetworkIO:
    def test_parse_edges(self, tmp_path):
        f = tmp_path / "net.tsv"
        f.write_text("a\tb\nb\tc\n")
        net = load_network(f)
        assert net.nodes == {"a", "b", "c"}
        assert len(net.edges) == 2

    def test_duplicate_edges_collapse(self, tmp_path):
        f = tmp_path / "net.tsv"
        f.write_text("a\tb\nb\ta\na\tb\n")
        assert len(load_network(f).edges) == 1

    def test_self_loop_line(self, tmp_path):
        f = tmp_path / "net.tsv"
        f.write_text("a\ta\n")
        with pytest.raises(MatchcertError, match="self-loop"):
            load_network(f)

    def test_malformed_line_reports_lineno(self, tmp_path):
        f = tmp_path / "net.tsv"
        f.write_text("a\tb\na b c\n")
        with pytest.raises(MatchcertError, match="malformed-line.*:2"):
            load_network(f)

    def test_attr_lines_merge(self, tmp_path):
        f = tmp_path / "net.tsv"
        f.write_text("#attr\ta\tuid\t1\n#attr\ta\tcolor\tred\na\tb\n")
        net = load_network(f)
        assert net.attrs["a"] == {"uid": "1", "color": "red"}

    def test_declared_nodes_strict(self, tmp_path):
        f = tmp_path / "net.tsv"
        f.write_text("#node\ta\n#node\tb\na\tc\n")
        with pytest.raises(MatchcertError, match="unknown-node"):
            load_network(f)

    def test_isolated_node_roundtrip(self, tmp_path):
        net = make_network(
            ["a", "b", "lonely"], [("a", "b")], {"lonely": {"uid": "7"}}
        )
        f = tmp_path / "net.tsv"
        save_network(net, f)
        again = load_network(f)
        assert again == net
        # serialization is stable byte-for-byte
        f2 = tmp_path / "net2.tsv"
        save_network(again, f2)
        assert f.read_bytes() == f2.read_bytes()

    def test_every_network_make_network_accepts_round_trips(self, tmp_path):
        # ids and attribute text with the bytes a line-based file treats
        # specially: make_network rejects them, or they survive save/load
        rng = random.Random(20261019)
        odd = ["", "#", "\t", "\n", "\r", "\r\n", " ", "\0", "é", "\x85"]
        f = tmp_path / "net.tsv"
        outcomes = {"round-trip": 0, "invalid-node-id": 0, "invalid-attribute": 0}
        for _ in range(300):
            ids = [
                rng.choice([f"{rng.choice(odd)}n{i}{rng.choice(odd)}", " \x85" * i])
                if rng.random() < 0.3 else f"n{i}"
                for i in range(1, rng.randint(3, 7))
            ]
            edges = [tuple(rng.sample(ids, 2)) for _ in range(rng.randint(0, 6))]
            attrs = {
                node: {f"k{rng.choice(odd)}": f"{rng.choice(odd)}v{rng.choice(odd)}"}
                for node in rng.sample(ids, rng.randint(0, 2))
            }
            try:
                net = make_network(ids, edges, attrs)
            except MatchcertError as e:
                outcomes[str(e).split(":")[0]] += 1
                continue
            save_network(net, f)
            again = load_network(f)
            assert again == net and dict(again.attrs) == attrs
            outcomes["round-trip"] += 1
        assert min(outcomes.values()) >= 30, outcomes

    @pytest.mark.parametrize(
        "text, bad",
        [
            # save_network would write the edge (#x, c) as the comment "#x\tc"
            ("#node\t#x\n#node\tc\nc\t#x\n", "#x"),
            ("c\t#x\n", "#x"),
            ("a\tb\n#attr\t#x\tk\tv\n", "#x"),
            # and an edge between two such ids as a blank line
            ("#node\t\u3000\n#node\ta\na\t\u3000\n", "\u3000"),
            ("a\t \n", " "),
        ],
    )
    def test_load_rejects_an_id_no_line_can_hold(self, tmp_path, text, bad):
        f = tmp_path / "net.tsv"
        f.write_text(text, encoding="utf-8")
        with pytest.raises(MatchcertError) as got:
            load_network(f)
        assert str(got.value) == f"invalid-node-id: {bad!r}"

    def test_generated_world_round_trip(self, tmp_path):
        cfg = GeneratorConfig(
            n_entities=300, base_model=ErdosRenyi(0.02), node_drop_x=0.1,
            node_drop_y=0.1, attr_noise=0.3, rng_seed=5,
        )
        pair, truth = generate_pair(cfg)
        for name, net in (("x", pair.x_net), ("y", pair.y_net)):
            f = tmp_path / f"{name}.tsv"
            save_network(net, f)
            again = load_network(f)
            assert again == net
            assert dict(again.attrs) == dict(net.attrs)
        f = tmp_path / "m.tsv"
        save_matches(truth, f)
        assert load_matches(f, pair) == truth

    def test_comments_ignored(self, tmp_path):
        f = tmp_path / "net.tsv"
        f.write_text("# a comment line\na\tb\n")
        assert load_network(f).nodes == {"a", "b"}


# first characters of 1 to 4 UTF-8 bytes, and run lengths of a shared
# prefix, for ids whose byte order the scanner must get right
_WIDE_PREFIXES = ["z", "é", "ß", "ÿ", "Ā", "日", "\uffff", "\U0001f600", ""]
_LONG_RUNS = [5, 6, 7, 8, 13, 14, 15, 16, 20, 21, 22]
_ID_CASES = {"multibyte-ids", "long-ids", "nul-suffix"}


def _random_network_file(rng: random.Random) -> tuple[str, set[str]]:
    """The text of a network file, mostly well formed, and the case classes
    it holds."""
    names = [f"n{i}" for i in range(rng.randint(1, 10))]
    cases = set()
    style = rng.random()
    if style < 0.1:  # code-point order across 1- to 4-byte characters
        names = [f"{rng.choice(_WIDE_PREFIXES)}{name}" for name in names]
        cases.add("multibyte-ids")
    elif style < 0.2:  # ids across the 8- and 16-byte word edges
        names = [f"{'a' * rng.choice(_LONG_RUNS)}{name}" for name in names]
        cases.add("long-ids")
    elif style < 0.3:
        names += [f"{name}\0" for name in rng.sample(names, rng.randint(1, len(names)))]
        cases.add("nul-suffix")
    edges = [(rng.choice(names), rng.choice(names)) for _ in range(rng.randint(0, 12))]
    edges = [(u, v) for u, v in edges if u != v]
    if edges and rng.random() < 0.3:
        u, v = rng.choice(edges)
        edges += [(v, u), (u, v)]
        cases.add("duplicate-edges")
    lines = [f"{u}\t{v}" for u, v in edges]
    attr_nodes = rng.sample(names, rng.randint(0, len(names)))
    if rng.random() < 0.2:
        attr_nodes.append("stranger")
        cases.add("attr-unknown-node")
    lines += [f"#attr\t{n}\tuid\t{rng.randint(0, 3)}" for n in attr_nodes]
    if attr_nodes and rng.random() < 0.2:  # a second value for one key: the later wins
        lines.append(f"#attr\t{rng.choice(attr_nodes)}\tuid\t9")
        cases.add("attr-override")
    if rng.random() < 0.5:
        declared = [n for n in names if rng.random() < 0.95]
        used = {n for e in edges for n in e} | set(attr_nodes)
        if used - set(declared):
            cases.add("undeclared-endpoint")
        lines += [f"#node\t{n}" for n in declared]
        cases.add("node-lines")
    else:
        cases.add("no-node-lines")
    extras = {
        "comment": ["# a comment", "#nodes\tx", "#attr", "#"],
        "blank": ["", " ", " \t", "\t", "\r"],
        "unicode-blank": [
            "\x1c", "\x85", "\xa0", "\u3000", " \x1f\u3000\t", "\xa0\x1e",
        ],
        "empty-id": ["n0\t", "\tn0", "#attr\t\tuid\t1", "#node\t"],
        "hash-id": ["n0\t#h", "#node\t#h", "#attr\t#h\tuid\t1", "#h\tn0"],
        "self-loop-line": ["n0\tn0"],
        "wrong-field-count": [
            "#node\tn0\tn1", "#node", "#attr\tn0\tuid", "#attr\tn0\tuid\t1\t2",
            "n0\tn1\tn2", "n0",
        ],
    }
    for case, pool in extras.items():
        if rng.random() < 0.25:
            cases.add(case)
            for _ in range(rng.randint(1, 2)):
                lines.append(rng.choice(pool))
    rng.shuffle(lines)
    if rng.random() < 0.1:  # a 0-tab line next to a 2-tab line
        at = rng.randint(0, len(lines))
        lines[at:at] = rng.choice([["n0", "n1\tn2\tn3"], ["n1\tn2\tn3", "n0"]])
        cases.add("tab-counts-cancel")
    newline = "\n"
    if rng.random() < 0.2:
        newline = "\r\n"
        cases.add("crlf")
    text = newline.join(lines) + rng.choice(["", newline])
    if lines and not text.endswith(newline):
        cases.add("no-trailing-newline")
    if "\n" in text and rng.random() < 0.15:  # a lone CR also ends a line
        at = rng.choice([i for i, c in enumerate(text) if c == "\n"])
        text = text[:at] + "\r" + text[at + 1 :]
        cases.add("lone-cr")
    if rng.random() < 0.03:
        text = ""
        cases = {"empty-file"}
    return text, cases


def _outcome(function, path):
    """(what function(path) returns, None), or (None, the message of the
    MatchcertError it raises)."""
    try:
        return function(path), None
    except MatchcertError as e:
        return None, str(e)


class TestBulkParseReference:
    def test_random_files(self, tmp_path):
        rng = random.Random(20261018)
        seen: dict[str, int] = {}
        f = tmp_path / "net.tsv"
        for _ in range(600):
            text, cases = _random_network_file(rng)
            f.write_bytes(text.encode("utf-8"))
            expected, error = _outcome(load_network_reference, f)
            net, got_error = _outcome(load_network, f)
            assert (net, got_error) == (expected, error)
            if net is not None:
                assert net.attrs == expected.attrs
            cases.add("loads" if error is None else error.split(":")[0])
            if error is None:  # the id order was checked
                cases.update(f"loads {c}" for c in _ID_CASES & cases)
            # the same lines as a match file: #node and #attr lines are comments
            pairs = _outcome(read_pairs, f)
            assert pairs == _outcome(read_pairs_reference, f)
            if pairs[1] is not None:
                cases.add("pairs-malformed")
            assert read_items(f) == read_items_reference(f)
            for case in cases:
                seen[case] = seen.get(case, 0) + 1
        expected_cases = {
            # what the files hold
            "node-lines", "no-node-lines", "undeclared-endpoint", "attr-unknown-node",
            "attr-override", "comment", "blank", "crlf", "empty-id", "hash-id",
            "self-loop-line",
            "duplicate-edges", "wrong-field-count", "tab-counts-cancel",
            "multibyte-ids", "long-ids", "nul-suffix", "unicode-blank", "lone-cr",
            "empty-file", "no-trailing-newline",
            *(f"loads {c}" for c in _ID_CASES),
            # how they parse
            "loads", "malformed-line", "self-loop", "unknown-node", "invalid-node-id",
            "pairs-malformed",
        }
        assert expected_cases <= seen.keys(), seen
        assert min(seen[c] for c in expected_cases) >= 10, seen

    def test_long_shared_prefixes_sort_as_str(self, tmp_path):
        prefix = "ü" * 40  # 80 bytes in common
        tails = ["", "\0", "\0\0", "a", "a\0", "é" * 9, "b" * 30, "\U0001f600", "\x7f"]
        ids = [prefix + tail for tail in tails] + ["ü" * 39, "ü" * 41]
        f = tmp_path / "net.tsv"
        lines = [f"{u}\t{v}" for u, v in zip(ids, ids[1:])] + [f"#attr\t{ids[0]}\tk\tv"]
        f.write_text("\n".join(lines), encoding="utf-8")
        net = load_network(f)
        assert net.index.ids == sorted(ids)
        assert net == load_network_reference(f)
        assert net.attrs == {ids[0]: {"k": "v"}}

    def test_invalid_utf8_raises_as_read_text_does(self, tmp_path):
        f = tmp_path / "net.tsv"
        f.write_bytes(b"a\tb\n#node\t\xff\n")
        for read in (load_network, read_pairs, read_items):
            with pytest.raises(UnicodeDecodeError):
                read(f)

    def test_items_are_taken_verbatim(self, tmp_path):
        # a node id may start or end with a space (load_network accepts
        # "#node\t a"), so an item list keeps each line as it is
        f = tmp_path / "items.txt"
        f.write_text(" a\nb \n\t\n# c\n \u3000\nd\td\r\n", encoding="utf-8")
        assert read_items(f) == [" a", "b ", "d\td"]
        assert read_items_reference(f) == [" a", "b ", "d\td"]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a\tb\nc\n\nb\tb\n", "malformed-line: {f}:2: 'c'"),
            ("a\tb\nb\tb\nc\n", "self-loop: {f}:2: 'b\\tb'"),
            ("#node\ta\n#node\tb\na\tb\tc\nb\n", "malformed-line: {f}:3: 'a\\tb\\tc'"),
            ("#node\tb\nb\tz\nb\ty\n", "unknown-node: 'y' used but not declared in {f}"),
            ("a\t\n", "invalid-node-id: ''"),
        ],
    )
    def test_first_bad_line_named(self, tmp_path, text, message):
        f = tmp_path / "net.tsv"
        f.write_text(text, encoding="utf-8")
        with pytest.raises(MatchcertError) as got:
            load_network(f)
        assert str(got.value) == message.format(f=f)


class TestMatchIO:
    def test_load_three_pairs(self, small_pair, tmp_path):
        f = tmp_path / "m.tsv"
        f.write_text("a\tp\nb\tq\nc\tr\n")
        ms = load_matches(f, small_pair)
        assert len(ms.pairs) == 3

    def test_unknown_y_rejected(self, small_pair, tmp_path):
        f = tmp_path / "m.tsv"
        f.write_text("a\tnope\n")
        with pytest.raises(MatchcertError, match="unknown-node"):
            load_matches(f, small_pair)

    def test_identity_rejected_in_self_mode(self, tmp_path):
        net = make_network(["a", "b"], [("a", "b")])
        pair = NetworkPair(net, net, self_match_mode=True)
        f = tmp_path / "m.tsv"
        f.write_text("a\ta\n")
        with pytest.raises(MatchcertError, match="identity-pair-forbidden"):
            load_matches(f, pair)

    def test_roundtrip(self, small_pair, tmp_path):
        ms = make_match_set([("b", "q"), ("a", "p")], small_pair)
        f = tmp_path / "m.tsv"
        save_matches(ms, f)
        again = load_matches(f, small_pair)
        assert again.pairs == ms.pairs
