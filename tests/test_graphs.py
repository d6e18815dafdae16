import random

import pytest
from oracles import canonical_edges_reference, csr_reference

from matchcert.errors import MatchcertError
from matchcert.graphs import (
    MatchRole,
    NetworkPair,
    by_x,
    load_matches,
    load_network,
    make_match_set,
    make_network,
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
