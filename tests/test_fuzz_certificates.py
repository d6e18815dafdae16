"""The certificate entry points, ``batch_reports`` and ``query_reports``,
either return reports or raise a ``MatchcertError`` whose message starts
with a kebab-case token, on one tiny world, whatever items the samples
s_x, s_x' and s_m hold and whatever values ``actual_for`` maps them to.
The samples are sequences and ``actual_for`` is a mapping, as the input
types say, or s_m and ``actual_for`` are MatchSets, over the world's pair
or over another one (``universe-mismatch``)."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchcert.batch import BatchValidationInput, batch_reports
from matchcert.bounds import BoundMethod
from matchcert.errors import MatchcertError
from matchcert.graphs import NetworkPair, make_match_set, make_network
from matchcert.matchers import MatcherConfig, build_matcher
from matchcert.query import QueryValidationInput, query_reports
from matchcert.reports import ValidationReport

TOKEN = re.compile(r"^[a-z]+(-[a-z]+)*: ")
FUZZ = settings(max_examples=200, deadline=None, derandomize=True)

# ids of X = {a, b}, of Y = {a, c}, and of neither; then other values
x_ids, y_ids = st.sampled_from(["a", "b"]), st.sampled_from(["a", "c"])
ids = st.sampled_from(["a", "b", "c", "z", ""])
scalars = st.one_of(st.none(), st.integers(-1, 2), st.binary(max_size=2), ids)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.tuples(inner, inner),
        st.frozensets(scalars, max_size=3),
        st.dictionaries(ids, inner, max_size=2),
    ),
    max_leaves=5,
)


def hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def sample(items):
    """Lists or tuples of ``items``."""
    lists = st.lists(items, max_size=4)
    return st.one_of(lists, lists.map(tuple))


def mostly(good, bad):
    """``good`` three times in four, so that most inputs reach the checks
    past the first, else ``bad``."""
    return st.integers(0, 3).flatmap(lambda i: good if i else bad)


# each field is mostly valid on its own, and otherwise arbitrary
nodes = st.one_of(ids, values)
matches = st.one_of(st.frozensets(ids, max_size=3), st.lists(ids, max_size=3), values)
s_xs = mostly(st.lists(x_ids, min_size=1, max_size=2, unique=True), sample(nodes))
s_ms = mostly(
    st.lists(st.tuples(x_ids, y_ids), min_size=1, max_size=2, unique=True),
    sample(st.one_of(st.tuples(ids, ids), st.lists(nodes, max_size=3), values)),
)
actual_maps = mostly(
    st.fixed_dictionaries({x: st.frozensets(y_ids, max_size=1) for x in "ab"}),
    st.dictionaries(st.one_of(x_ids, nodes.filter(hashable)), matches, max_size=3),
)


# which field a MatchSet replaces: one over the world's pair, or over
# another pair with the same ids
set_fields = st.sampled_from(
    [None, ("s_m", "own"), ("actual_for", "own"), ("s_m", "other"),
     ("actual_for", "other")]
)


@pytest.fixture(scope="module")
def world():
    """Networks X = {a, b}, Y = {a, c}, an identified set of each matcher
    for the batch inputs and two attribute-exact matchers for the query
    inputs, which identify (a, a) and (a, a), (b, c); and the set of those
    two pairs over the pair and over another pair, whose Y is {a, b, c}."""
    x_net = make_network(["a", "b"], [], {"a": {"h": "1", "c": "1"}, "b": {"c": "2"}})
    y_net = make_network(["a", "c"], [], {"a": {"h": "1", "c": "1"}, "c": {"c": "2"}})
    pair = NetworkPair(x_net, y_net)
    sets = make_match_set([("a", "a")], pair), make_match_set([("a", "a"), ("b", "c")], pair)
    handles = tuple(build_matcher(MatcherConfig("attribute-exact", attr_key=k)) for k in "hc")
    other = NetworkPair(x_net, make_network(["a", "b", "c"], []))
    as_set = {
        "own": sets[1],
        "other": make_match_set([("a", "a"), ("b", "c")], other),
    }
    return pair, sets, handles, as_set


@FUZZ
@given(
    s_xs,
    st.one_of(st.just(()), s_xs),
    s_ms,
    actual_maps,
    st.sampled_from(list(BoundMethod)),
    st.booleans(),
    set_fields,
)
def test_certificates_return_or_raise_a_token(
    world, s_x, s_x_prime, s_m, actual_for, method, complete, set_field
):
    pair, (m_hat_h, m_hat_c), (holdout, other), as_set = world
    if set_field and set_field[0] == "s_m":
        s_m = as_set[set_field[1]]
    elif set_field:
        actual_for = as_set[set_field[1]]
    inputs = (
        lambda: batch_reports(BatchValidationInput(
            pair, m_hat_h, s_m, s_x, actual_for, method, 0.05,
            m_hat_complete=m_hat_c if complete else None,
        )),
        lambda: query_reports(QueryValidationInput(
            pair, holdout, s_x, actual_for, method, 0.05,
            complete=other if complete else None, s_x_prime=s_x_prime,
        )),
    )
    for certify in inputs:
        try:
            reports = certify()
        except MatchcertError as e:
            assert TOKEN.match(str(e)), str(e)
        else:
            assert reports and all(isinstance(r, ValidationReport) for r in reports)


def test_a_match_set_over_another_pair_fails_universe_mismatch(world):
    pair, (m_hat_h, _), (holdout, _), as_set = world
    good = {"a": frozenset({"a"}), "b": frozenset({"c"})}  # as_set["own"]
    calls = [
        lambda s_m, actual_for: batch_reports(BatchValidationInput(
            pair, m_hat_h, s_m, ("a", "b"), actual_for, BoundMethod.HOEFFDING, 0.05,
        )),
        lambda s_m, actual_for: query_reports(QueryValidationInput(
            pair, holdout, ("a", "b"), actual_for, BoundMethod.HOEFFDING, 0.05,
        )),
    ]
    for certify in calls:
        assert certify((("a", "a"),), as_set["own"]) == certify((("a", "a"),), good)
        with pytest.raises(MatchcertError, match="^universe-mismatch: "):
            certify((("a", "a"),), as_set["other"])
    with pytest.raises(MatchcertError, match="^universe-mismatch: "):
        calls[0](as_set["other"], good)
