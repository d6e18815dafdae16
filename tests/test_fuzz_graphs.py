"""The ``graphs`` entry points that take plain data either return or raise
a ``MatchcertError`` whose message starts with a kebab-case token, on
arbitrary values and on arbitrary file bytes. Invalid UTF-8 in a file is
the one other error: ``UnicodeDecodeError``, as ``read_text`` raises."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchcert.errors import MatchcertError
from matchcert.graphs import (
    NetworkPair,
    load_network,
    make_match_set,
    make_network,
    pair_keys,
    read_items,
    read_pairs,
)

TOKEN = re.compile(r"^[a-z]+(-[a-z]+)*: ")
FUZZ = settings(max_examples=150, deadline=None, derandomize=True)

# short ids over the characters the formats treat specially
ids = st.text(st.sampled_from("ab #\t\n\r\x00é"), max_size=3)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2), st.floats(), st.binary(max_size=2), ids
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.tuples(inner, inner),
        st.tuples(inner, inner, inner),
        st.dictionaries(ids, inner, max_size=2),
    ),
    max_leaves=6,
)
# id-like values: mostly strings, which reach the checks past the type test
nodes = st.one_of(ids, ids, values)
pairs = st.one_of(st.tuples(nodes, nodes), st.lists(nodes, max_size=3), values)


def hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def returns_or_raises_a_token(call, *args):
    try:
        call(*args)
    except MatchcertError as e:
        assert TOKEN.match(str(e)), str(e)


@FUZZ
@given(
    st.lists(nodes, max_size=5),
    st.lists(pairs, max_size=4),
    st.one_of(
        st.none(),
        values,
        st.dictionaries(nodes.filter(hashable), values, max_size=3),
    ),
)
def test_make_network(node_list, edges, attrs):
    returns_or_raises_a_token(make_network, node_list, edges, attrs)


@pytest.fixture(scope="module")
def networks():
    x = make_network(["a", "b", "a b"], [("a", "b")])
    y = make_network(["a", "c", "d"], [])
    return NetworkPair(x, y), NetworkPair(x, x, self_match_mode=True)


@FUZZ
@given(st.lists(pairs, max_size=4), st.booleans())
def test_make_match_set_and_pair_keys(networks, pair_list, self_mode):
    pair = networks[self_mode]
    returns_or_raises_a_token(make_match_set, pair_list, pair)
    returns_or_raises_a_token(pair_keys, pair, "match", pair_list)


# file bytes near the formats: their tags, tabs, line breaks and ids
chunks = st.sampled_from(
    [b"#node\t", b"#attr\t", b"#", b"\t", b"\n", b"\r", b"\r\n", b" ", b"a", b"b",
     b"\xc3\xa9", b"\xff", b"\x00", b"k", b"v"]
)
file_bytes = st.one_of(st.binary(max_size=24), st.lists(chunks, max_size=16).map(b"".join))


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.tsv"


@FUZZ
@given(file_bytes)
def test_file_readers(scratch_file, data):
    scratch_file.write_bytes(data)
    for read in (read_items, read_pairs, load_network):
        try:
            returns_or_raises_a_token(read, scratch_file)
        except UnicodeDecodeError:
            with pytest.raises(UnicodeDecodeError):
                data.decode("utf-8")  # only invalid UTF-8 raises it
