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
)

from matchcert.errors import MatchcertError
from matchcert.graphs import (
    MatchRole,
    NetworkPair,
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
        assert index.pos == {"n10": 0, "n2": 1, "n5": 2, "n9": 3}
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
        ms = make_match_set(
            [("a", "p"), ("a", "q"), ("b", "p")], small_pair, MatchRole.IDENTIFIED
        )
        views = by_x(ms)
        assert views["a"] == {"p", "q"}
        assert "c" not in views
        assert len(views["a"]) == 2

    def test_view_grows_with_added_pair(self, small_pair):
        base = [("a", "p")]
        ms1 = make_match_set(base, small_pair, MatchRole.IDENTIFIED)
        ms2 = make_match_set(base + [("a", "q")], small_pair, MatchRole.IDENTIFIED)
        assert ms2.pairs - ms1.pairs == {("a", "q")}
        assert by_x(ms2)["a"] - by_x(ms1)["a"] == {"q"}

    def test_unknown_endpoints_rejected(self, small_pair):
        with pytest.raises(MatchcertError, match="unknown-node"):
            make_match_set([("a", "zzz")], small_pair, MatchRole.ACTUAL)

    @pytest.mark.parametrize(
        "pairs, message",
        [
            # x before y, the first bad pair in input order, endpoints before k_y
            ([("a", "p"), ("zz", "yy")], "unknown-node: x endpoint 'zz'"),
            ([("a", "yy"), ("zz", "p")], "unknown-node: y endpoint 'yy'"),
            ([("a", "p"), ("a", "q"), ("b", "zz")], "unknown-node: y endpoint 'zz'"),
        ],
    )
    def test_first_bad_pair_named(self, small_pair, pairs, message):
        with pytest.raises(MatchcertError) as got:
            make_match_set(iter(pairs), small_pair, MatchRole.ACTUAL, k_y=1)
        assert str(got.value) == message

    def test_identity_checked_after_endpoints(self):
        net = make_network(["a", "b"], [("a", "b")])
        pair = NetworkPair(net, net, self_match_mode=True)
        with pytest.raises(MatchcertError, match="^identity-pair-forbidden:"):
            make_match_set([("b", "a"), ("a", "a"), ("a", "zz")], pair, MatchRole.ACTUAL)
        with pytest.raises(MatchcertError, match="^unknown-node: y endpoint 'zz'"):
            make_match_set([("a", "zz"), ("a", "a")], pair, MatchRole.ACTUAL)

    def test_ky_cap(self, small_pair):
        make_match_set([("a", "p")], small_pair, MatchRole.ACTUAL, k_y=1)
        with pytest.raises(MatchcertError, match="ky-violated"):
            make_match_set(
                [("a", "p"), ("a", "q")], small_pair, MatchRole.ACTUAL, k_y=1
            )

    def test_multiple_x_one_y_allowed(self, small_pair):
        # aggregation case: several x may share one y
        ms = make_match_set(
            [("a", "p"), ("b", "p")], small_pair, MatchRole.ACTUAL, k_y=1
        )
        assert len(ms.pairs) == 2

    def test_identity_pair_forbidden_in_self_mode(self):
        net = make_network(["a", "b", "c"], [("a", "b")])
        pair = NetworkPair(net, net, self_match_mode=True)
        make_match_set([("a", "b")], pair, MatchRole.ACTUAL)
        with pytest.raises(MatchcertError, match="identity-pair-forbidden"):
            make_match_set([("b", "b")], pair, MatchRole.ACTUAL)

    def test_match_total_identity(self, small_pair):
        # sum over x of m(x) equals |M|
        ms = make_match_set(
            [("a", "p"), ("a", "q"), ("b", "r"), ("c", "p")],
            small_pair,
            MatchRole.IDENTIFIED,
        )
        total = sum(len(ys) for ys in by_x(ms).values())
        assert total == len(ms.pairs)

    def test_by_x(self, small_pair):
        ms = make_match_set(
            [("a", "p"), ("a", "q"), ("b", "r")], small_pair, MatchRole.IDENTIFIED
        )
        assert by_x(ms) == {"a": frozenset({"p", "q"}), "b": frozenset({"r"})}

    def test_by_x_view_is_shared_and_read_only(self, small_pair):
        ms = make_match_set([("a", "p")], small_pair, MatchRole.IDENTIFIED)
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
        ms = make_match_set(pairs, pair, MatchRole.IDENTIFIED)
        keys = ms.keys
        assert keys.dtype == np.int64
        assert (np.diff(keys) > 0).all()  # sorted and distinct
        assert ms.x_ids is pair.x_net.index.ids and ms.y_ids is pair.y_net.index.ids
        assert ms.pairs == frozenset(pairs)
        assert ms.sorted_pairs == tuple(sorted(ms.pairs))
        assert ms.decode(keys) == list(ms.sorted_pairs)
        assert dict(by_x(ms)) == by_x_reference(ms)
        nodes = list(reversed(pair.x_net.index.ids)) + ["absent", "n0"]
        want = {x: ys for x, ys in by_x_reference(ms).items() if x in nodes}
        assert matches_of(ms, pair, nodes) == want

    @settings(max_examples=60, deadline=None)
    @given(match_worlds())
    def test_save_load_round_trip(self, tmp_path_factory, world):
        pair, pairs = world
        ms = make_match_set(pairs, pair, MatchRole.IDENTIFIED)
        first = tmp_path_factory.mktemp("m") / "m.tsv"
        save_matches(ms, first)
        again = load_matches(first, pair, MatchRole.IDENTIFIED)
        assert again == ms and np.array_equal(again.keys, ms.keys)
        second = first.with_name("again.tsv")
        save_matches(again, second)
        assert second.read_bytes() == first.read_bytes()
        lines = first.read_text(encoding="utf-8").splitlines()
        assert lines == [f"{x}\t{y}" for x, y in sorted(set(pairs))]

    def test_equality(self, small_pair):
        a = make_match_set([("b", "q"), ("a", "p")], small_pair, MatchRole.IDENTIFIED)
        b = make_match_set([("a", "p"), ("b", "q")], small_pair, MatchRole.IDENTIFIED)
        assert a == b and hash(a) == hash(b)
        assert a != make_match_set([("a", "p")], small_pair, MatchRole.IDENTIFIED)
        assert a != make_match_set([("a", "p"), ("b", "q")], small_pair, MatchRole.ACTUAL)
        # an equal pair built apart has equal id lists: the sets compare
        x = make_network(["c", "b", "a"], [("b", "c"), ("a", "b")])
        y = make_network(["r", "q", "p"], [("q", "p")])
        twin = make_match_set([("a", "p"), ("b", "q")], NetworkPair(x, y),
                              MatchRole.IDENTIFIED)
        assert twin.x_ids is not a.x_ids and twin == a

    def test_universe_mismatch(self, small_pair):
        from matchcert.batch import true_batch_metrics
        from matchcert.query import true_error_rate, true_query_metrics

        a = make_match_set([("a", "p")], small_pair, MatchRole.IDENTIFIED)
        wider = NetworkPair(
            make_network(["a", "b", "c", "d"], []), small_pair.y_net
        )
        b = make_match_set([("a", "p")], wider, MatchRole.ACTUAL)
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

    def test_ky_violation_names_the_smallest_x(self, small_pair):
        pairs = [("c", "p"), ("c", "q"), ("b", "p"), ("b", "r")]
        with pytest.raises(MatchcertError, match="^ky-violated: node 'b' "):
            make_match_set(pairs, small_pair, MatchRole.ACTUAL, k_y=1)


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
    assert net.index.pos == {node: i for i, node in enumerate(ids)}
    assert net.index.indptr.tolist() == indptr
    assert net.index.nbr.tolist() == nbr
    return net


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
        ],
    )
    def test_bad_input(self, nodes, edges, token):
        with pytest.raises(MatchcertError, match=f"^{token}:"):
            make_network(nodes, edges)

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

    def test_comments_ignored(self, tmp_path):
        f = tmp_path / "net.tsv"
        f.write_text("# a comment line\na\tb\n")
        assert load_network(f).nodes == {"a", "b"}


def _random_network_file(rng: random.Random) -> tuple[str, set[str]]:
    """The text of a network file, mostly well formed, and the case classes
    it holds."""
    names = [f"n{i}" for i in range(rng.randint(1, 10))]
    cases = set()
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
        "empty-id": ["n0\t", "\tn0", "#attr\t\tuid\t1", "#node\t"],
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
    return newline.join(lines) + rng.choice(["", newline]), cases


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
        for _ in range(500):
            text, cases = _random_network_file(rng)
            f.write_bytes(text.encode("utf-8"))
            expected, error = _outcome(load_network_reference, f)
            net, got_error = _outcome(load_network, f)
            assert (net, got_error) == (expected, error)
            if net is not None:
                assert net.attrs == expected.attrs
            cases.add("loads" if error is None else error.split(":")[0])
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
            "attr-override", "comment", "blank", "crlf", "empty-id", "self-loop-line",
            "duplicate-edges", "wrong-field-count", "tab-counts-cancel",
            # how they parse
            "loads", "malformed-line", "self-loop", "unknown-node", "invalid-node-id",
            "pairs-malformed",
        }
        assert expected_cases <= seen.keys(), seen
        assert min(seen[c] for c in expected_cases) >= 10, seen

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
        ms = load_matches(f, small_pair, MatchRole.ACTUAL, k_y=1)
        assert len(ms.pairs) == 3

    def test_unknown_y_rejected(self, small_pair, tmp_path):
        f = tmp_path / "m.tsv"
        f.write_text("a\tnope\n")
        with pytest.raises(MatchcertError, match="unknown-node"):
            load_matches(f, small_pair, MatchRole.ACTUAL)

    def test_identity_rejected_in_self_mode(self, tmp_path):
        net = make_network(["a", "b"], [("a", "b")])
        pair = NetworkPair(net, net, self_match_mode=True)
        f = tmp_path / "m.tsv"
        f.write_text("a\ta\n")
        with pytest.raises(MatchcertError, match="identity-pair-forbidden"):
            load_matches(f, pair, MatchRole.ACTUAL)

    def test_roundtrip(self, small_pair, tmp_path):
        ms = make_match_set(
            [("b", "q"), ("a", "p")], small_pair, MatchRole.IDENTIFIED
        )
        f = tmp_path / "m.tsv"
        save_matches(ms, f)
        again = load_matches(f, small_pair, MatchRole.IDENTIFIED)
        assert again.pairs == ms.pairs
