"""Every ``MatchcertError`` the package raises starts with a stable
kebab-case token, followed by ``:`` or the end of the message, so callers
and tests can match on the token alone (see ``matchcert.errors``). Two
tables call token sites that no other test reaches, and Python-API input
that must fail with a token rather than a numpy or type error."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import matchcert
from matchcert.batch import BatchValidationInput, batch_reports, holdout_batch_recall
from matchcert.bounds import (
    BoundMethod,
    Confidence,
    PopulationSpec,
    SampleSummary,
    bound_mean,
    hoeffding_bounds,
    hypergeom_invert_lower,
    hypergeom_pmf,
    rho_s,
    sample_mean,
    sample_sigma_hat,
)
from matchcert.coverage import ExperimentConfig
from matchcert.errors import MatchcertError, read_fields
from matchcert.graphs import MatchSet, NetworkPair, make_match_set, make_network, pair_keys
from matchcert.matchers import MatcherConfig, TopDegree, build_matcher, run_batch
from matchcert.query import QueryValidationInput, query_reports
from matchcert.sampling import (
    SplitSpec,
    hypergeometric_draw,
    sample_indices,
    sample_without_replacement,
    spawn_rng,
)
from matchcert.synth import ErdosRenyi, GeneratorConfig, PreferentialAttachment

SRC = Path(matchcert.__file__).parent
TOKEN = re.compile(r"[a-z0-9]+(?:-[a-z0-9]+)*")
# Messages built elsewhere and raised again: coverage re-raises the
# ``trial-failed:`` message of a worker's MatchcertError.
RERAISED = {("coverage.py", "failed[0]")}


def _leading_text(message: ast.expr) -> tuple[str, bool] | None:
    """The literal text a message starts with and whether that text is the
    whole message; None when it starts with a computed value."""
    if isinstance(message, ast.Constant) and isinstance(message.value, str):
        return message.value, True
    if isinstance(message, ast.JoinedStr) and message.values:
        first = message.values[0]
        if isinstance(first, ast.Constant):
            return first.value, len(message.values) == 1
    return None


def _error_messages():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "MatchcertError"
            ):
                yield path.name, node.lineno, node.args[0]


def _has_token(text: str, whole: bool) -> bool:
    token = TOKEN.match(text)
    if token is None:
        return False
    rest = text[token.end():]
    return rest.startswith(":") or (whole and not rest)


def test_every_error_message_starts_with_a_token():
    checked, bad = 0, []
    for name, line, message in _error_messages():
        if (name, ast.unparse(message)) in RERAISED:
            continue
        leading = _leading_text(message)
        if leading is None or not _has_token(*leading):
            bad.append(f"{name}:{line}: {ast.unparse(message)}")
        checked += 1
    assert not bad, "\n".join(bad)
    # the walk reaches every call in the text, including those whose
    # message is on the line after ``MatchcertError(``; the class statement
    # of errors.py is the one other occurrence
    text = "".join(path.read_text(encoding="utf-8") for path in SRC.glob("*.py"))
    assert checked + len(RERAISED) == text.count("MatchcertError(") - 1


def test_token_rule():
    assert _has_token("unknown-node: 'x'", whole=False)
    assert _has_token("budget-exhausted", whole=True)
    assert not _has_token("budget-exhausted", whole=False)  # "{...}" follows
    assert not _has_token("Unknown node: 'x'", whole=True)
    assert not _has_token("unknown node: 'x'", whole=True)
    assert not _has_token("-node: 'x'", whole=True)


D05 = Confidence(0.05)
COVERAGE = {
    "generator": {"n_entities": 20, "base_model": {"kind": "erdos-renyi", "p": 0.1}},
    "matcher_holdout": {"kind": "percolation", "seeds": "verified-sample"},
    "sample_sizes": {"s_m": 5, "s_x": 5, "s_x_prime": 5, "train": 5},
    "methods": ["hoeffding"],
    "seed": 0,
}

def _verified_on_ab(certify, actual_for, s_x=("b", "a"), s_m=(("a", "a"),), **query):
    """``certify``'s reports on pair AB, with s_x (b, a) and the verified
    matches ``actual_for`` of a, where b has none, unless given; ``s_m``
    feeds a batch input and ``query`` (s_x_prime) a query input."""
    actual_for = {"b": frozenset(), **actual_for}
    if certify is batch_reports:
        return certify(BatchValidationInput(
            AB, make_match_set([("a", "a")], AB), s_m, s_x, actual_for,
            BoundMethod.HOEFFDING, 0.05,
        ))
    holdout = build_matcher(MatcherConfig("attribute-exact", attr_key="m"))
    return certify(QueryValidationInput(
        AB, holdout, s_x, actual_for, BoundMethod.HOEFFDING, 0.05, **query
    ))


def _recall_on_two_nodes(s_m, k_y):
    pair = NetworkPair(make_network(["a", "b"], []), make_network(["p", "q"], []))
    return holdout_batch_recall(
        BatchValidationInput(
            pair, make_match_set([], pair), s_m, ("a",), {"a": frozenset()},
            BoundMethod.HOEFFDING, 0.05, k_y=k_y,
        )
    )


# (token, call, the message's text after the token): token sites that the
# other tests do not reach
SITES = [
    ("invalid-population", lambda: PopulationSpec(0), "n must be >= 1"),
    ("invalid-population", lambda: PopulationSpec(5, 1.0, 0.0), "got [1.0, 0.0]"),
    ("unknown-method", lambda: BoundMethod.parse("exact"), "'exact'"),
    (
        "empty-sample",
        lambda: hoeffding_bounds(PopulationSpec(5), SampleSummary(()), D05),
        "bound requires",
    ),
    (
        "invalid-sample-size",
        lambda: hoeffding_bounds(PopulationSpec(2), SampleSummary.of([0, 1, 1]), D05),
        "s=3 exceeds population n=2",
    ),
    ("invalid-hypergeom-params", lambda: hypergeom_invert_lower(5, 3, 4, D05), "n=5"),
    (
        "invalid-side",
        lambda: bound_mean(
            PopulationSpec(5), SampleSummary.of([1]), BoundMethod.HOEFFDING, D05, "mid"
        ),
        "'mid'",
    ),
    (
        "invalid-trials",
        lambda: ExperimentConfig.from_json_dict({**COVERAGE, "trials": 0}),
        "0",
    ),
    ("invalid-config", lambda: read_fields(TopDegree, [3]), "TopDegree takes an object"),
    ("invalid-max-iters", lambda: MatcherConfig("percolation", max_iters=0), "0"),
    (
        "unknown-seed-rule",
        lambda: MatcherConfig.from_json_dict(
            {"kind": "percolation", "seeds": {"top-degree": 3}}
        ),
        "{'top-degree': 3}",
    ),
    ("invalid-split", lambda: SplitSpec(10, (1, 2), -1, 3, 0), "t=-1 and s=3"),
    ("invalid-split", lambda: SplitSpec(10, (1, 1), 1, 1, 0), "labeled items"),
    ("invalid-generator", lambda: ErdosRenyi(1.5), "edge probability 1.5"),
    ("invalid-generator", lambda: PreferentialAttachment(0), "m_edges 0"),
    (
        "invalid-generator",
        lambda: GeneratorConfig.from_json_dict(
            {"n_entities": 10, "base_model": {"kind": "ring"}}
        ),
        "model kind 'ring'",
    ),
    (
        "invalid-generator",
        lambda: GeneratorConfig(10, ErdosRenyi(0.1), node_drop_y=-0.5),
        "node_drop_y=-0.5",
    ),
    (
        # three actual matches cannot lie on two x nodes with one match each
        "ky-violated",
        lambda: _recall_on_two_nodes(
            (("a", "p"), ("a", "q"), ("b", "p")), k_y=1
        ),
        "s_m gives node 'a' more than k_y=1 actual matches",
    ),
]


def _ids(table):
    return [f"{token}-{i}" for i, (token, _, _) in enumerate(table)]


def _raises(token, call, text):
    with pytest.raises(MatchcertError) as info:
        call()
    assert str(info.value).startswith(f"{token}: ")
    assert text in str(info.value)


@pytest.mark.parametrize("token, call, text", SITES, ids=_ids(SITES))
def test_token_site_raises_its_token(token, call, text):
    _raises(token, call, text)


# X = {a, b} and Y = {a, b, c}
AB = NetworkPair(make_network(["a", "b"], []), make_network(["a", "b", "c"], []))

# Python-API input that once escaped the tokens as a numpy or type error,
# or was accepted: an infinite bound, a seed truncated to an integer, a
# population of 2.5 items, a string or a mapping read as a pair of ids, a
# longer pair cut to two ids
ESCAPES = [
    ("invalid-seed", lambda: spawn_rng(-3), "seed -3"),
    ("invalid-seed", lambda: sample_without_replacement([1, 2], 1, -1), "seed -1"),
    ("invalid-seed", lambda: hypergeometric_draw(10, 3, 4, -5), "seed -5"),
    ("invalid-population", lambda: PopulationSpec(10, 0, float("inf")), "inf"),
    ("invalid-attribute", lambda: make_network(["a"], [], {"a": {"k": 3}}), "'a': 3"),
    ("invalid-node-id", lambda: make_network([1], []), "1"),
    ("invalid-node-id", lambda: make_network(["a", 1], []), "1"),
    ("invalid-attribute", lambda: make_network(["a"], [], {"a": "k"}), "'a': 'k'"),
    ("invalid-attribute", lambda: make_network(["a"], [], {"a": None}), "'a': None"),
    ("invalid-edge", lambda: make_network(["a", "b"], [("a",)]), "('a',)"),
    ("invalid-edge", lambda: make_network(["a", "b"], ["ab"]), "'ab'"),
    ("invalid-edge", lambda: make_network(["a", "b"], [(["a"], "b")]), "(['a'], 'b')"),
    ("invalid-attribute", lambda: make_network(["a"], [], ["a"]), "['a'] is not a mapping"),
    (
        # two pairs fit k_y·|X| = 2 by count, but give x = a two matches
        "ky-violated",
        lambda: _recall_on_two_nodes((("a", "p"), ("a", "q")), k_y=1),
        "s_m gives node 'a' more than k_y=1 actual matches",
    ),
    ("invalid-seed", lambda: spawn_rng(1.5), "seed 1.5"),
    ("invalid-seed", lambda: spawn_rng(1, 0.5), "key (0.5,)"),
    ("invalid-seed", lambda: sample_indices(5, 2, 1.5), "seed 1.5"),
    ("invalid-population", lambda: PopulationSpec(2.5), "integer, got 2.5"),
    ("invalid-edge", lambda: make_match_set(["ab"], AB), "match pair 'ab' is not"),
    ("invalid-edge", lambda: make_match_set([{"a": 0, "b": 1}], AB), "{'a': 0, 'b': 1}"),
    (
        "invalid-edge",
        lambda: make_match_set([("a", "b", "c"), ("a", "c")], AB),
        "match pair ('a', 'b', 'c')",
    ),
    ("invalid-edge", lambda: make_match_set([("a", "b", "c")], AB), "('a', 'b', 'c')"),
    ("invalid-edge", lambda: make_match_set([("a", ["b"])], AB), "('a', ['b'])"),
    ("invalid-edge", lambda: make_match_set([None], AB), "match pair None"),
    ("invalid-edge", lambda: pair_keys(AB, "seed", [("a", "b"), ("a", 1)]), "('a', 1)"),
    (
        # a verified match that is no string, alone or among node ids that
        # do not sort with it, on either certifier
        "invalid-edge",
        lambda: _verified_on_ab(batch_reports, {"a": frozenset({5})}),
        "actual_for pair ('a', 5) is not a pair of node ids",
    ),
    (
        "invalid-edge",
        lambda: _verified_on_ab(batch_reports, {"a": frozenset({"a", 5, "b", 7})}),
        "actual_for pair ('a', 5) is not a pair of node ids",
    ),
    (
        "invalid-edge",
        lambda: _verified_on_ab(query_reports, {"a": frozenset({"a", 5, "b", 7})}),
        "actual_for pair ('a', 5) is not a pair of node ids",
    ),
    # verified matches that are no collection of ids: a string was read as
    # its characters (here the two nodes a and b of Y), None and an int
    # escaped from len(), on either certifier
    ("invalid-actual", lambda: _verified_on_ab(batch_reports, {"a": "ab"}), "'a' maps to 'ab'"),
    ("invalid-actual", lambda: _verified_on_ab(query_reports, {"a": "ab"}), "'a' maps to 'ab'"),
    ("invalid-actual", lambda: _verified_on_ab(batch_reports, {"a": None}), "'a' maps to None"),
    ("invalid-actual", lambda: _verified_on_ab(query_reports, {"a": 3}), "'a' maps to 3"),
    (
        "invalid-edge",
        lambda: _verified_on_ab(query_reports, {"a": [["a"]]}),
        "actual_for pair ('a', ['a']) is not a pair of node ids",
    ),
    # unhashable sample items, which escaped from the duplicate check
    (
        "unknown-node",
        lambda: _verified_on_ab(batch_reports, {}, s_x=("b", ["a"])),
        "['a']",
    ),
    (
        "unknown-node",
        lambda: _verified_on_ab(query_reports, {}, s_x=("b", ["a"])),
        "['a']",
    ),
    (
        "unknown-node",
        lambda: _verified_on_ab(query_reports, {"a": ()}, s_x_prime=("a", ["b"])),
        "['b']",
    ),
    (
        "invalid-edge",
        lambda: _verified_on_ab(batch_reports, {}, s_m=(("a", ["a"]),)),
        "s_m pair ('a', ['a']) is not a pair of node ids",
    ),
    (
        # a list pair is the pair of its ids, as graphs.pair_keys reads it
        "duplicate-sample-item",
        lambda: _verified_on_ab(batch_reports, {}, s_m=(["a", "a"], ("a", "a"))),
        "s_m repeats ('a', 'a')",
    ),
    # a verified match listed twice counted twice: p(a) = 2.0 and w(a) = 1
    # in the query columns, two matches in the batch density term
    (
        "invalid-actual",
        lambda: _verified_on_ab(batch_reports, {"a": ["a", "a"]}),
        "'a' lists 'a' more than once",
    ),
    (
        "invalid-actual",
        lambda: _verified_on_ab(query_reports, {"a": ("c", "a", "c", "a")}),
        "'a' lists 'a' more than once",
    ),
    # a string sample was read as its characters: s_x "ab" as (a, b)
    (
        "invalid-sample",
        lambda: _verified_on_ab(batch_reports, {"a": ()}, s_x="ab"),
        "s_x is the string 'ab'",
    ),
    (
        "invalid-sample",
        lambda: _verified_on_ab(query_reports, {"a": ()}, s_x="ab"),
        "s_x is the string 'ab'",
    ),
    (
        "invalid-sample",
        lambda: _verified_on_ab(query_reports, {"a": ()}, s_x_prime="ab"),
        "s_x_prime is the string 'ab'",
    ),
    (
        "invalid-sample",
        lambda: _verified_on_ab(query_reports, {"a": ()}, s_x_prime=""),
        "s_x_prime is the string ''",
    ),
    # a method given by its name ran EBS in bound_mean, and failed as an
    # AttributeError in the runners
    (
        "unknown-method",
        lambda: bound_mean(PopulationSpec(100), SampleSummary.of([1.0] * 30 + [0.0] * 10),
                           "hoeffding", D05),
        "'hoeffding'",
    ),
    ("unknown-method", lambda: _on_ab(batch_reports, method="hoeffding"), "'hoeffding'"),
    ("unknown-method", lambda: _on_ab(query_reports, method=None), "None"),
    # caller-built MatchSets, over X = {a, b} and Y = {p, q}: out of order,
    # repeated and out-of-range keys gave wrong counts, or a misleading
    # ky-violated for s_m
    ("invalid-keys", lambda: _keys_on_pq("actual_for", [3, 0]), "actual_for is no sorted set"),
    ("invalid-keys", lambda: _keys_on_pq("actual_for", [0, 0, 3], query_reports), "actual_for"),
    ("invalid-keys", lambda: _keys_on_pq("actual_for", [0, 9]), "actual_for is no sorted set"),
    ("invalid-keys", lambda: _keys_on_pq("s_m", [0, 0, 3]), "s_m is no sorted set"),
    ("invalid-keys", lambda: _keys_on_pq("m_hat_holdout", [-1, 0]), "m_hat_holdout is no"),
    ("invalid-keys", lambda: _keys_on_pq("m_hat_complete", [0, 1.5]), "m_hat_complete is no"),
    ("invalid-keys", lambda: _keys_on_pq("s_m", [0], self_match=True), "s_m is no sorted set"),
    # a matcher seeded with such a set ran into an IndexError
    (
        "invalid-keys",
        lambda: run_batch(build_matcher(MatcherConfig("percolation"), MatchSet(
            ["a", "b"], ["a", "b", "c"], np.array([0, 9]))), AB),
        "training_matches is no sorted set",
    ),
    # the bounds and sampling entry points on values of the wrong type
    ("invalid-hypergeom-params", lambda: hypergeom_invert_lower(0, 0, 0, Confidence(0.1)), "n=0"),
    ("invalid-confidence", lambda: Confidence("0.1"), "got '0.1'"),
    ("invalid-confidence", lambda: Confidence(None), "got None"),
    ("invalid-hypergeom-params", lambda: hypergeom_pmf(2.5, 10, 3, 1), "m=2.5"),
    ("invalid-hypergeom-params", lambda: hypergeom_invert_lower(10.5, 3, 1, D05), "n=10.5"),
    ("invalid-value", lambda: SampleSummary.of(["a"]), "['a'] holds a non-number"),
    ("invalid-value", lambda: SampleSummary.of([10**400]), "holds a non-number"),
    ("invalid-population", lambda: PopulationSpec(10, "a", 1.0), "got ['a', 1.0]"),
    ("invalid-population", lambda: PopulationSpec(True), "integer, got True"),
    ("invalid-sample-size", lambda: sample_indices(10, 2.5, 1), "s=2.5"),
    ("invalid-sample-size", lambda: rho_s(10, "2"), "s='2'"),
    ("invalid-split", lambda: SplitSpec(10, ([1], [2]), 1, 1, 0), "distinct and hashable"),
    ("invalid-split", lambda: SplitSpec(10, (1, 2), 1.5, 0.5, 0), "t=1.5"),
    ("invalid-seed", lambda: SplitSpec(10, (1, 2), 1, 1, "0"), "rng_seed '0'"),
    ("invalid-seed", lambda: spawn_rng(True), "seed True"),
    ("invalid-hypergeom-params", lambda: hypergeometric_draw(10, "3", 4, 0), "t='3'"),
    # values in range whose sum overflows a float raised a bare OverflowError
    ("invalid-value", lambda: _on_huge(BoundMethod.HOEFFDING), "its sum overflows a float"),
    ("invalid-value", lambda: _on_huge(BoundMethod.EBS), "its sum overflows a float"),
    ("invalid-value", lambda: sample_mean(SampleSummary.of([1.7e308] * 3)), "overflows"),
    ("invalid-value", lambda: sample_sigma_hat(SampleSummary.of([1.7e308] * 3)), "overflows"),
    # a SampleSummary built directly, whose values nothing converted, raised
    # a TypeError
    (
        "invalid-value",
        lambda: bound_mean(
            PopulationSpec(10), SampleSummary(("a",)), BoundMethod.HOEFFDING, Confidence(0.1)
        ),
        "'a' is not a number",
    ),
    (
        "invalid-value",
        lambda: bound_mean(
            PopulationSpec(10), SampleSummary((1.0, None)), BoundMethod.HYPERGEOMETRIC, D05
        ),
        "None is not a number",
    ),
    ("invalid-value", lambda: sample_mean(SampleSummary(("a",))), "holds a non-number"),
    ("invalid-value", lambda: sample_sigma_hat(SampleSummary((0.5, "a"))), "non-number"),
]


def _on_huge(method):
    """``method``'s bound on three values of 1.7e308 over [0, 1.7e308]."""
    return bound_mean(
        PopulationSpec(10, 0.0, 1.7e308), SampleSummary.of([1.7e308] * 3), method,
        Confidence(0.1),
    )


def _on_ab(certify, method):
    """``certify``'s reports on pair AB with ``method``, which is no
    BoundMethod: the input rejects it."""
    if certify is batch_reports:
        return certify(BatchValidationInput(
            AB, make_match_set([("a", "a")], AB), (("a", "a"),), ("a",), {"a": ()},
            method, 0.05,
        ))
    holdout = build_matcher(MatcherConfig("attribute-exact", attr_key="m"))
    return certify(QueryValidationInput(AB, holdout, ("a",), {"a": ()}, method, 0.05))


def _keys_on_pq(field, keys, certify=batch_reports, self_match=False):
    """``certify``'s reports on X = {a, b} and Y = {p, q} (or, in
    self-match mode, X = Y = {a, b}) with the field ``field`` a MatchSet of
    the raw ``keys``, which the input rejects."""
    x, y = make_network(["a", "b"], []), make_network(["a", "b"] if self_match else ["p", "q"], [])
    pair = NetworkPair(x, y, self_match_mode=self_match)
    ids = pair.x_net.index.ids, pair.y_net.index.ids
    fields = {
        "m_hat_holdout": make_match_set([("a", y.index.ids[1])], pair),
        "s_m": ((("a", y.index.ids[1])),),
        "actual_for": {"a": (), "b": ()},
        field: MatchSet(*ids, np.array(keys)),
    }
    if certify is query_reports:
        holdout = build_matcher(MatcherConfig("attribute-exact", attr_key="m"))
        return certify(QueryValidationInput(
            pair, holdout, ("a", "b"), fields["actual_for"], BoundMethod.HOEFFDING, 0.05
        ))
    return certify(BatchValidationInput(
        pair, fields["m_hat_holdout"], fields["s_m"], ("a", "b"), fields["actual_for"],
        BoundMethod.HOEFFDING, 0.05, m_hat_complete=fields.get("m_hat_complete"),
    ))


@pytest.mark.parametrize("token, call, text", ESCAPES, ids=_ids(ESCAPES))
def test_python_api_input_fails_with_its_token(token, call, text):
    _raises(token, call, text)


@pytest.mark.parametrize("certify", [batch_reports, query_reports])
def test_list_matches_and_list_pairs_read_as_sets_and_tuples(certify):
    want = _verified_on_ab(certify, {"a": frozenset({"a"})})
    for actual_for in ({"a": ["a"], "b": []}, {"a": ("a",), "b": set()}):
        assert _verified_on_ab(certify, actual_for) == want
    if certify is batch_reports:
        assert _verified_on_ab(certify, {"a": {"a"}}, s_m=(["a", "a"],)) == want


def test_numpy_integers_are_seeds_and_sizes():
    assert spawn_rng(np.int64(3), np.int32(2)).random() == spawn_rng(3, 2).random()
    assert sample_indices(10, 3, np.int64(4)).tolist() == sample_indices(10, 3, 4).tolist()
    assert PopulationSpec(np.int64(4)).n == 4
