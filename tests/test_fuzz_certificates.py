"""The certificate entry points, ``batch_reports`` and ``query_reports``,
either return reports or raise a ``MatchcertError`` whose message starts
with a kebab-case token, on one tiny world, whatever items the samples
s_x and s_x' hold and whatever each set field holds. A set field (both
identified sets, s_m and ``actual_for``) is mostly a MatchSet over the
world's pair, else a MatchSet over another pair (``universe-mismatch``),
one built by the caller from arbitrary keys (``invalid-keys`` unless
valid), or a value that is no MatchSet (``invalid-keys``). The method is
mostly a ``BoundMethod``, else its name or None (``unknown-method``)."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchcert.batch import BatchValidationInput, batch_reports
from matchcert.bounds import BoundMethod
from matchcert.errors import MatchcertError
from matchcert.graphs import MatchSet, NetworkPair, make_match_set, make_network
from matchcert.query import QueryValidationInput, query_reports
from matchcert.reports import ValidationReport

TOKEN = re.compile(r"^[a-z]+(-[a-z]+)*: ")
FUZZ = settings(max_examples=200, deadline=None, derandomize=True)

# X = {a, b} and Y = {a, c}; the other pair's Y is {a, b, c}
X_NET = make_network(["a", "b"], [])
PAIR = NetworkPair(X_NET, make_network(["a", "c"], []))
OTHER = NetworkPair(X_NET, make_network(["a", "b", "c"], []))

# ids of X, of Y, and of neither; then other values
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


def sample(items):
    """Lists or tuples of ``items``."""
    lists = st.lists(items, max_size=4)
    return st.one_of(lists, lists.map(tuple))


def mostly(good, bad):
    """``good`` three times in four, so that most inputs reach the checks
    past the first, else ``bad``."""
    return st.integers(0, 3).flatmap(lambda i: good if i else bad)


def pairs_over(pair):
    """MatchSets over ``pair`` of up to three pairs of X and Y = {a, c}."""
    return st.lists(st.tuples(x_ids, y_ids), max_size=3).map(
        lambda pairs: make_match_set(pairs, pair)
    )


# each field is mostly valid on its own, and otherwise arbitrary
nodes = st.one_of(ids, values)
s_xs = mostly(st.lists(x_ids, min_size=1, max_size=2, unique=True), sample(nodes))
# keys over X and Y, of which 0 to 3 are valid, in any order
keys = st.lists(st.integers(-1, 4), max_size=4).map(
    lambda drawn: MatchSet(PAIR.x_net.index.ids, PAIR.y_net.index.ids,
                           np.array(drawn, dtype=np.int64))
)
sets = mostly(pairs_over(PAIR), st.one_of(pairs_over(OTHER), keys, values))
methods = mostly(
    st.sampled_from(list(BoundMethod)),
    st.sampled_from([None, *(m.value for m in BoundMethod)]),
)


@FUZZ
@given(
    s_xs,
    st.one_of(st.just(()), s_xs),
    sets,
    sets,
    sets,
    st.one_of(st.none(), sets),
    methods,
)
def test_certificates_return_or_raise_a_token(
    s_x, s_x_prime, m_hat_h, s_m, actual_for, m_hat_c, method
):
    inputs = (
        lambda: batch_reports(BatchValidationInput(
            PAIR, m_hat_h, s_m, s_x, actual_for, method, 0.05, m_hat_complete=m_hat_c,
        )),
        lambda: query_reports(QueryValidationInput(
            PAIR, m_hat_h, s_x, actual_for, method, 0.05, m_hat_complete=m_hat_c,
            s_x_prime=s_x_prime,
        )),
    )
    for certify in inputs:
        try:
            reports = certify()
        except MatchcertError as e:
            assert TOKEN.match(str(e)), str(e)
        else:
            assert reports and all(isinstance(r, ValidationReport) for r in reports)


def test_a_match_set_over_another_pair_fails_universe_mismatch():
    own = make_match_set([("a", "a"), ("b", "c")], PAIR)
    other = make_match_set([("a", "a"), ("b", "c")], OTHER)
    fields = {"m_hat_holdout": own, "s_m": own, "actual_for": own, "m_hat_complete": own}

    def certify(**changed):
        given = {**fields, **changed}
        batch = batch_reports(BatchValidationInput(
            PAIR, given["m_hat_holdout"], given["s_m"], ("a", "b"), given["actual_for"],
            BoundMethod.HOEFFDING, 0.05, m_hat_complete=given["m_hat_complete"],
        ))
        query = query_reports(QueryValidationInput(
            PAIR, given["m_hat_holdout"], ("a", "b"), given["actual_for"],
            BoundMethod.HOEFFDING, 0.05, m_hat_complete=given["m_hat_complete"],
        ))
        return batch + query

    assert len(certify()) == 10
    for name in fields:
        with pytest.raises(MatchcertError, match="^universe-mismatch: "):
            certify(**{name: other})
