"""Networks, match sets, and their TSV serialization.

Two node universes X and Y, undirected edges, flat string attributes per
node, and sets of x-y pairs (actual or identified matches alike). A
NetworkPair may run in self-match mode (X and Y are the same universe,
e.g. when matching data fields against each other), in which case
identity pairs are illegal everywhere.

File formats (UTF-8, tab-separated; LF, CRLF and a lone CR each end a
line, as in Python's universal newlines):

* network file: ``u<TAB>v`` edge lines; ``#node<TAB>id`` declares a node
  (needed for isolated nodes); ``#attr<TAB>node<TAB>key<TAB>value`` sets an
  attribute; other ``#`` lines are comments. If any ``#node`` line is
  present the declared set is authoritative and undeclared endpoints are
  rejected.
* match file: ``x<TAB>y`` lines, ``#`` comments.

A node id is not empty or whitespace only, holds no tab, LF or CR, and
does not start with ``#``; an attribute key or value holds no tab, LF or
CR. So every network ``make_network`` accepts, ``save_network`` writes a
file that ``load_network`` reads back equal.

Blank and whitespace-only lines (whitespace as ``str.isspace`` defines
it) are skipped. Node ids sort by Unicode code point.

A Network is its int index (``Network.index``) plus its attributes: node
ids sorted once, so index order is id order, an id table that resolves an
id to its position (``NodeIndex.positions``, the one lookup), and CSR
adjacency arrays. ``make_network`` builds the index from string edges;
``load_network`` and the generator build it straight from int edge arrays
with ``NodeIndex.build``, and both defer their attribute dicts (a
``Network`` holds the function that builds them, ``build_attrs``).
``Network.nodes`` and ``Network.edges`` are read-only views of the
index, built on first use. Equality compares nodes, edges and
attributes (equal ids and CSR arrays are equal node and edge sets), and
``repr`` shows the views, not the arrays.

A MatchSet is int-native in the same way: the X and Y id lists of its
pair, and one sorted, distinct int64 key ``x_pos * len(y_ids) + y_pos``
per pair. Because index order is id order, key order is (x, y) id order.
``pair_keys`` is the one checked path from string pairs to keys: match
files and ``make_match_set``, matcher seeds and a string verified sample
``s_m`` all go through it. The generator and the matchers build keys
directly. ``pairs``, ``sorted_pairs`` and ``by_x`` are string views of the
keys, built on first use; ``sorted_pairs`` needs no sort. Set arithmetic
(``MatchSet.found_in``, ``MatchSet.contains``) and per-node lookups
(``MatchSet.rows``, ``matches_of``) read the keys with binary searches.
Two sets are compared only over the same X and Y id lists (the same
lists, or equal ones); otherwise the comparison raises
``universe-mismatch``. Equality means equal pairs.
String ids stay at the I/O boundary and in the views.

Network and match files go through one scanner (``_scan``), a few numpy
passes over the file's bytes: the newline and tab positions, each line's
tab count and first tab by a binary search of the tab positions, and
each line's kind from its first six bytes. Only a line that starts with
ASCII whitespace or a byte >= 0x80 is decoded to test whether it is
blank. The endpoints of a network file never become strings:
``_distinct`` sorts the id tokens as bytes, 7 at a time packed into
uint64 keys, which for UTF-8 is code-point order, and numbers them. Only
the distinct ids are decoded, in one pass, already sorted: they are
``NodeIndex.ids``, and the edge arrays come from the endpoints' numbers.
``#attr`` lines are checked at load; their dicts are built on the first
read of ``Network.attrs``. A bad file fails as a line-by-line reader
would fail: only when a bulk check fails does a walk over the decoded
lines find the first bad line in file order and raise ``malformed-line``
or ``self-loop`` with its line number. A file whose lines are all well
formed can still fail as a whole: ``unknown-node`` names the smallest id
used but not declared, and ``invalid-node-id`` the least id that is empty,
whitespace only or starts with ``#``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import islice, repeat
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, NoReturn, Sequence

import numpy as np

from .errors import MatchcertError

__all__ = [
    "Network",
    "NodeIndex",
    "NetworkPair",
    "MatchSet",
    "make_network",
    "make_match_set",
    "by_x",
    "matches_of",
    "pair_keys",
    "load_network",
    "save_network",
    "read_pairs",
    "read_items",
    "load_matches",
    "save_matches",
]


def _check_node_id(node: str) -> None:
    """Raise unless the string ``node`` is a node id: not empty or whitespace
    only, with no tab, LF or CR, and not starting with ``#``, so a network file
    holds it as one field of a line that is neither blank nor a comment."""
    if not node.strip() or node[0] == "#" or any(c in node for c in "\t\n\r"):
        raise MatchcertError(f"invalid-node-id: {node!r}")


def _is_id_pair(value) -> bool:
    """Whether ``value`` is a tuple or list of two strings."""
    return (
        isinstance(value, (tuple, list))
        and len(value) == 2
        and isinstance(value[0], str)
        and isinstance(value[1], str)
    )


def distinct_sorted(keys: np.ndarray) -> np.ndarray:
    """The distinct values of an int array, ascending: sorted, then repeats
    dropped (np.unique's first call imports numpy.ma, ~15 ms)."""
    keys = np.sort(keys)
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def split_keys(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.divmod(keys, n)`` for int keys >= 0 and n >= 1, by one floor
    division and a multiply-subtract: numpy's int64 ``divmod`` and ``%``
    cost about four times ``//``."""
    high = keys // n
    return high, keys - high * n


class NodeIndex(NamedTuple):
    """Int positions for a network's nodes and CSR adjacency over them.

    The neighbours of the node at position i are
    ``nbr[indptr[i]:indptr[i + 1]]``, in ascending order.

    Ids resolve through an id table that several indexes may share:
    ``rank`` maps each id of a sorted id list that contains the network's
    ids to its rank there, and ``at`` maps rank r to the position of its
    id, or -1 when that id is no node here. ``at`` ends with one more -1,
    the entry of rank -1, which stands for an id missing from the table.
    A loaded or ``make_network`` network's table holds its own ids; a
    generated copy shares its universe's (see ``synth``).
    """

    ids: list[str]  # node ids in sorted order
    rank: Mapping[str, int]  # id -> rank in a sorted id list holding ids
    at: np.ndarray  # int64 rank -> position or -1, then a -1 for rank -1
    indptr: np.ndarray  # int64, len(ids) + 1 row offsets
    nbr: np.ndarray  # int64 neighbour positions, two per edge

    @classmethod
    def build(
        cls,
        ids: list[str],
        u: np.ndarray,
        v: np.ndarray,
        rank: Mapping[str, int] | None = None,
        at: np.ndarray | None = None,
    ) -> "NodeIndex":
        """The index over ``ids`` (sorted, distinct) with an edge between
        positions ``u[i]`` and ``v[i]`` for each i. u != v elementwise;
        edges may come in either orientation and repeat. ``rank`` and ``at``
        are the id table (see the class docstring); without them the table
        is the ids' own, and ``rank`` when given alone maps each id to its
        position.

        Both directions of every edge, as arc keys ``src * n + dst``, go
        through one distinct sort: sorted by (src, dst), each arc once,
        whatever orientation and repeats the input held. The CSR rows are
        then the runs of equal ``src``."""
        n = len(ids)
        if rank is None:
            rank = dict(zip(ids, range(n)))
        if at is None:
            at = np.arange(n + 1, dtype=np.int64)
            at[n] = -1
        arcs = distinct_sorted(np.concatenate([u * n + v, v * n + u]))
        src, nbr = split_keys(arcs, n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return cls(ids, rank, at, indptr, nbr)

    def positions(self, ids: Sequence[str]) -> np.ndarray:
        """The position of each of ``ids``, in order; -1 for an id that is
        not a node."""
        ranks = np.fromiter(map(self.rank.get, ids, repeat(-1)), np.int64, len(ids))
        return self.at[ranks]


def _edge_ids(index: NodeIndex) -> tuple[list[str], list[str]]:
    """The ends u and v, u < v, of each edge once, as two id lists in
    sorted edge order: the CSR rows in position order, which is id order."""
    src = np.repeat(np.arange(len(index.ids)), np.diff(index.indptr))
    upper = src < index.nbr
    id_of = index.ids.__getitem__
    return (
        list(map(id_of, src[upper].tolist())),
        list(map(id_of, index.nbr[upper].tolist())),
    )


@dataclass(frozen=True, eq=False, repr=False)
class Network:
    """A network: its int index plus flat string attributes per node.

    ``nodes`` and ``edges`` are read-only views of the index, and ``attrs``
    is what ``build_attrs`` returns, each built on first use and cached on
    the object: a coverage trial and most commands never read ``attrs``.
    """

    index: NodeIndex
    build_attrs: Callable[[], Mapping[str, Mapping[str, str]]] = dict

    @cached_property
    def attrs(self) -> Mapping[str, Mapping[str, str]]:
        return self.build_attrs()

    @cached_property
    def nodes(self) -> frozenset[str]:
        return frozenset(self.index.ids)

    @cached_property
    def edges(self) -> frozenset[tuple[str, str]]:
        """Each edge once, as (u, v) with u < v."""
        return frozenset(zip(*_edge_ids(self.index)))

    def __eq__(self, other: object) -> bool:
        # equal ids and CSR arrays mean equal node and edge sets
        if not isinstance(other, Network):
            return NotImplemented
        a, b = self.index, other.index
        return (
            a.ids == b.ids
            and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.nbr, b.nbr)
            and self.attrs == other.attrs
        )

    def __repr__(self) -> str:
        return (
            f"Network(nodes={self.nodes!r}, edges={self.edges!r}, "
            f"attrs={self.attrs!r})"
        )


def make_network(
    nodes: Iterable[str],
    edges: Iterable[tuple[str, str]],
    attrs: Mapping[str, Mapping[str, str]] | None = None,
) -> Network:
    """Build a validated Network; edges are deduplicated and canonicalized.
    A node id is a string (``invalid-node-id`` names the first that is not,
    in input order), and an edge a tuple or list of two string ids
    (``invalid-edge``). ``attrs`` maps nodes to their attributes, each a
    mapping whose keys and values are strings with no tab, LF or CR
    (``invalid-attribute``), so ``save_network`` writes each as one
    field."""
    nodes = list(nodes)
    for node in nodes:  # ids of other types do not sort with strings
        if not isinstance(node, str):
            raise MatchcertError(f"invalid-node-id: {node!r}")
    ids = sorted(set(nodes))
    for node in ids:  # a bad id fails naming the least
        _check_node_id(node)
    pos = dict(zip(ids, range(len(ids))))
    edges = list(edges)
    for edge in edges:
        if not _is_id_pair(edge):
            raise MatchcertError(f"invalid-edge: {edge!r} is not a pair of node ids")
    ends = np.fromiter(
        (pos.get(node, -1) for u, v in edges for node in (u, v)),
        dtype=np.int64,
        count=2 * len(edges),
    )
    u, v = ends[0::2], ends[1::2]
    bad = (u == v) | (u < 0) | (v < 0)
    if bad.any():
        a, b = edges[int(np.argmax(bad))]  # the first bad edge
        if a == b:
            raise MatchcertError(f"self-loop: edge ({a!r}, {b!r})")
        raise MatchcertError(f"unknown-node: edge endpoint {a!r} or {b!r}")
    if attrs is not None and not isinstance(attrs, Mapping):
        raise MatchcertError(f"invalid-attribute: {attrs!r} is not a mapping")
    attrs = dict(attrs or {})
    for node, values in attrs.items():
        if node not in pos:
            raise MatchcertError(f"unknown-node: attribute for {node!r}")
        if not isinstance(values, Mapping):
            raise MatchcertError(f"invalid-attribute: {node!r}: {values!r}")
        for text in (*values, *values.values()):
            if not isinstance(text, str) or any(c in text for c in "\t\n\r"):
                raise MatchcertError(f"invalid-attribute: {node!r}: {text!r}")
    return Network(NodeIndex.build(ids, u, v, pos), attrs.copy)


@dataclass(frozen=True)
class NetworkPair:
    x_net: Network
    y_net: Network
    self_match_mode: bool = False

    def __post_init__(self) -> None:
        if self.self_match_mode and self.x_net != self.y_net:
            raise MatchcertError(
                "self-match-universe: self_match_mode requires one shared universe"
            )


@dataclass(frozen=True, eq=False, repr=False)
class MatchSet:
    """A set of x-y pairs over one NetworkPair's universes, as int keys.

    ``keys`` holds ``x_pos * len(y_ids) + y_pos`` for each pair, sorted and
    distinct, with positions into ``x_ids`` and ``y_ids`` (the pair's node
    ids, sorted), so key order is (x, y) id order. ``pairs``,
    ``sorted_pairs`` and the per-x view are built from the keys on first
    use and cached on the object.
    """

    x_ids: list[str]
    y_ids: list[str]
    keys: np.ndarray  # int64, ascending, distinct

    def decode(self, keys) -> list[tuple[str, str]]:
        """The (x, y) id pair of each of ``keys``, in order."""
        xs, ys = split_keys(np.asarray(keys, dtype=np.int64), max(len(self.y_ids), 1))
        x_ids, y_ids = self.x_ids, self.y_ids
        return [(x_ids[a], y_ids[b]) for a, b in zip(xs.tolist(), ys.tolist())]

    @cached_property
    def sorted_pairs(self) -> tuple[tuple[str, str], ...]:
        """The pairs in sorted order: key order, so nothing is sorted."""
        return tuple(self.decode(self.keys))

    @cached_property
    def pairs(self) -> frozenset[tuple[str, str]]:
        return frozenset(self.sorted_pairs)

    @cached_property
    def _per_x(self) -> dict[str, frozenset[str]]:
        acc: dict[str, list[str]] = {}
        for x, y in self.sorted_pairs:
            acc.setdefault(x, []).append(y)
        return {x: frozenset(ys) for x, ys in acc.items()}

    def check_universe(self, x_ids: list[str], y_ids: list[str]) -> None:
        """Raise ``universe-mismatch`` unless the set's id lists are these
        (the same lists, or equal ones)."""
        if not (
            (self.x_ids is x_ids or self.x_ids == x_ids)
            and (self.y_ids is y_ids or self.y_ids == y_ids)
        ):
            raise MatchcertError(
                "universe-mismatch: match sets over different X or Y node id lists"
            )

    def contains(self, keys: np.ndarray) -> np.ndarray:
        """Whether the set holds each of ``keys`` (keys of its universe)."""
        at = np.searchsorted(self.keys, keys)
        found = at < self.keys.size
        found[found] = self.keys[at[found]] == keys[found]
        return found

    def rows(self, x_at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The keys of the pairs of the x at each of the X positions
        ``x_at``, row after row and each row in key order, and each row's
        count, by binary search. A position -1 has no row: count 0."""
        ny = len(self.y_ids)
        row = x_at * ny  # -1 gives a row below every key
        lo = np.searchsorted(self.keys, row)
        count = np.searchsorted(self.keys, row + ny) - lo
        # every matched key of the rows, row after row
        at = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())
        return self.keys[at], count

    def found_in(self, other: "MatchSet") -> np.ndarray:
        """Whether ``other`` holds each of this set's pairs, in key order."""
        other.check_universe(self.x_ids, self.y_ids)
        return other.contains(self.keys)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatchSet):
            return NotImplemented
        other.check_universe(self.x_ids, self.y_ids)
        return np.array_equal(self.keys, other.keys)

    def __hash__(self) -> int:
        return hash(self.keys.tobytes())

    def __repr__(self) -> str:
        return f"MatchSet(pairs={self.pairs!r})"


def pair_keys(
    pair: NetworkPair, name: str, pairs: Sequence[tuple[str, str]]
) -> np.ndarray:
    """The key of each (x, y) of ``pairs`` over ``pair``'s universes, in
    order. Each of ``pairs`` must be a tuple or list of two string ids
    (``invalid-edge``, checked first), hold nodes of X and Y
    (``unknown-node``) and, in self-match mode, be no identity pair
    (``identity-pair-forbidden``). An error names the first pair that
    fails its check, in input order, and the first two name the list as
    ``name``."""
    for p in pairs:
        if not _is_id_pair(p):
            raise MatchcertError(
                f"invalid-edge: {name} pair {p!r} is not a pair of node ids"
            )
    xs, ys = zip(*pairs) if pairs else ((), ())
    u, v = pair.x_net.index.positions(xs), pair.y_net.index.positions(ys)
    bad = (u < 0) | (v < 0)
    if pair.self_match_mode:
        bad |= u == v  # one shared universe: equal positions, equal ids
    if bad.any():
        i = int(np.argmax(bad))  # the first bad pair
        x, y = pairs[i]
        if u[i] < 0 or v[i] < 0:
            raise MatchcertError(f"unknown-node: {name} pair ({x!r}, {y!r})")
        raise MatchcertError(f"identity-pair-forbidden: ({x!r}, {y!r})")
    return u * len(pair.y_net.index.ids) + v


def make_match_set(pairs: Iterable[tuple[str, str]], pair: NetworkPair) -> MatchSet:
    """Build a MatchSet against a NetworkPair from checked string pairs
    (see :func:`pair_keys`); repeated pairs count once."""
    keys = distinct_sorted(pair_keys(pair, "match", list(pairs)))
    return MatchSet(pair.x_net.index.ids, pair.y_net.index.ids, keys)


def by_x(ms: MatchSet) -> Mapping[str, frozenset[str]]:
    """Per-x view of the whole set: {x: set of matched y}.

    Built in one pass on the first call for a set and shared by every
    later caller, so callers get a read-only proxy of it. A caller that
    reads a few nodes only uses :func:`matches_of`.
    """
    return MappingProxyType(ms._per_x)


def matches_of(
    ms: MatchSet, pair: NetworkPair, nodes: Iterable[str]
) -> dict[str, frozenset[str]]:
    """{x: set of matched y} for each distinct node of ``nodes``, in
    ``ms``, a set over ``pair``'s universes: found by binary search on the
    keys. A node with no match in ``ms``, or that is not a node of X, maps
    to the empty set."""
    ix = pair.x_net.index
    ms.check_universe(ix.ids, pair.y_net.index.ids)
    xs = list(dict.fromkeys(nodes))
    keys, count = ms.rows(ix.positions(xs))
    y_ids = ms.y_ids
    ys = iter([y_ids[k] for k in split_keys(keys, len(y_ids))[1].tolist()])
    return {x: frozenset(islice(ys, c)) for x, c in zip(xs, count.tolist())}


# line kinds
_BLANK, _COMMENT, _NODE, _ATTR, _DATA = range(5)
_NODE_TAG = int.from_bytes(b"#node\t", "big")
_ATTR_TAG = int.from_bytes(b"#attr\t", "big")
# the first bytes a whitespace-only line can have: an ASCII character that
# str.isspace accepts (a newline: the line is empty) or any byte >= 0x80
_MAYBE_BLANK = np.zeros(256, dtype=bool)
_MAYBE_BLANK[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True
_MAYBE_BLANK[0x80:] = True
# _HIGH7[r] keeps the r high bytes of a 7-byte word
_HIGH7 = np.array([(1 << 56) - (1 << (56 - 8 * r)) for r in range(8)], dtype=np.uint64)


def gather_runs(src: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """``src[starts[i] : starts[i] + lens[i]]`` for each i, concatenated."""
    shift = np.repeat(starts - (np.cumsum(lens) - lens), lens)
    return src[shift + np.arange(shift.size)]


class _Lines(NamedTuple):
    """A text file's lines, as int arrays over its bytes."""

    text: bytes  # the file's bytes, line breaks made "\n"
    buf: np.ndarray  # uint8: text, "\n", then 8 NULs
    start: np.ndarray  # each line's first byte
    end: np.ndarray  # each line's closing "\n"
    tab: np.ndarray  # every tab's position, ascending
    first: np.ndarray  # each line's first tab, as an index into tab
    tabs: np.ndarray  # each line's tab count
    kind: np.ndarray  # each line's kind, _BLANK to _DATA

    def strings(self, start: np.ndarray, stop: np.ndarray) -> list[str]:
        """The text ``buf[start[i]:stop[i]]`` of each i, in order, decoded
        in one pass. Each is followed by a tab or a newline, so no text
        spans a multi-byte character's end."""
        lens = stop - start + 1  # each text and the byte after it
        out = gather_runs(self.buf, start, lens)
        out[np.cumsum(lens) - 1] = ord("\n")
        texts = out.tobytes().decode("utf-8").split("\n")
        texts.pop()  # the empty text after the last newline
        return texts


def _words(buf: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The 8 bytes of ``buf`` from each of ``at``, as a big-endian uint64."""
    view = np.ndarray((buf.size - 7,), dtype=">u8", buffer=buf, strides=(1,))
    return view[at].astype(np.uint64)


def _scan(path: str | Path) -> _Lines:
    """The lines of a UTF-8 text file, each classified by its first bytes.

    The lines are those of ``read_text(...).split("\n")``: CRLF and a lone
    CR end a line as LF does (universal newlines), and invalid UTF-8
    raises UnicodeDecodeError. Only a line that starts with a byte of
    ``_MAYBE_BLANK`` is decoded here, to test it for ``str.strip``'s
    whitespace.
    """
    text = Path(path).read_bytes()
    try:
        text.decode("utf-8")  # fails as read_text fails, naming the file
    except UnicodeDecodeError as e:
        reason = f"{e.reason} in {path}"
        raise UnicodeDecodeError(e.encoding, e.object, e.start, e.end, reason) from None
    if b"\r" in text:
        text = text.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    buf = np.frombuffer(text + b"\n" + bytes(8), dtype=np.uint8)
    end = np.flatnonzero(buf == ord("\n"))
    start = np.concatenate([[0], end[:-1] + 1])
    tab = np.flatnonzero(buf == ord("\t"))
    upto = np.searchsorted(tab, end)  # the tabs before each line's end
    first = np.concatenate([[0], upto[:-1]])
    lead = buf[start]
    kind = np.full(end.size, _DATA, dtype=np.int8)
    hashed = np.flatnonzero(lead == ord("#"))
    tag = _words(buf, start[hashed]) >> 16  # the first six bytes
    kind[hashed] = np.where(
        tag == _NODE_TAG, _NODE, np.where(tag == _ATTR_TAG, _ATTR, _COMMENT)
    )
    maybe = np.flatnonzero(_MAYBE_BLANK[lead]).tolist()
    blank = [
        i for i, a, b in zip(maybe, start[maybe].tolist(), end[maybe].tolist())
        if not text[a:b].decode("utf-8").strip()
    ]
    kind[blank] = _BLANK
    return _Lines(text, buf, start, end, tab, first, upto - first, kind)


def _distinct(buf: np.ndarray, start: np.ndarray, stop: np.ndarray):
    """Number the tokens ``buf[start[i]:stop[i]]`` 0, 1, ... by distinct
    value in byte order, which for UTF-8 is code-point order: (each
    token's number, the index of one token of each number).

    Tokens are sorted 7 bytes at a time. Each round sorts the runs of
    tokens still tied by one uint64 key: the next 7 bytes, zero-padded and
    packed big-endian, then how many of them the token holds, or 8 when
    more bytes follow. Only runs of tied tokens with more bytes go on, so
    a long id costs more rounds only while it shares its prefix.
    """
    order = np.arange(start.size)  # the tokens in the order found so far
    head = np.zeros(start.size, dtype=bool)  # slot i starts a run of equals
    head[:1] = True
    todo = order.copy()  # the slots of runs still tied
    done = 0  # the bytes compared so far
    while todo.size:
        tok = order[todo]
        held = np.minimum(stop[tok] - start[tok] - done, 8)
        word = (_words(buf, start[tok] + done) >> 8) & _HIGH7[np.minimum(held, 7)]
        key = (word << 8) | held.astype(np.uint64)
        run = np.cumsum(head[todo])
        by_key = np.argsort(key)
        perm = by_key[np.argsort(run[by_key], kind="stable")]
        order[todo] = tok[perm]
        run, key = run[perm], key[perm]
        new = np.ones(todo.size, dtype=bool)
        new[1:] = (run[1:] != run[:-1]) | (key[1:] != key[:-1])
        head[todo] = new
        label = np.cumsum(new) - 1
        todo = todo[(np.bincount(label)[label] > 1) & (held[perm] == 8)]
        done += 7
    number = np.empty(start.size, dtype=np.int64)
    number[order] = np.cumsum(head) - 1
    return number, order[head]


def _raise_first_bad_line(path: str | Path, lines: _Lines, network: bool) -> NoReturn:
    """Raise for the first malformed line, or in a network file the first
    self-loop, in file order: a walk over the decoded lines that runs only
    after a bulk check failed."""
    for lineno, raw in enumerate(lines.text.decode("utf-8").split("\n"), start=1):
        tabs = raw.count("\t")
        if network and raw.startswith("#node\t"):
            ok = tabs == 1 and raw != "#node\t"
        elif network and raw.startswith("#attr\t"):
            ok = tabs == 3
        elif not raw.strip() or raw[0] == "#":
            continue
        else:
            ok = tabs == 1
            u, _, v = raw.partition("\t")
            if ok and network and u == v:
                raise MatchcertError(f"self-loop: {path}:{lineno}: {raw!r}")
        if not ok:
            raise MatchcertError(f"malformed-line: {path}:{lineno}: {raw!r}")
    raise AssertionError(f"no bad line in {path}")


def _file_attrs(rows: bytes) -> dict[str, dict[str, str]]:
    """The attributes of ``#attr`` lines' ``node<TAB>key<TAB>value<LF>``
    rows, in file order: a later value for a key wins."""
    attrs: dict[str, dict[str, str]] = {}
    for row in rows.decode("utf-8").split("\n")[:-1]:
        node, key, value = row.split("\t")
        attrs.setdefault(node, {})[key] = value
    return attrs


def load_network(path: str | Path) -> Network:
    """Parse a network TSV file. See the module docstring for the format."""
    lines = _scan(path)
    tabs, start, end, tab = lines.tabs, lines.start, lines.end, lines.tab
    node, attr, edge = (np.flatnonzero(lines.kind == k) for k in (_NODE, _ATTR, _DATA))
    ok = (
        (tabs[node] == 1).all()
        and (end[node] > start[node] + 6).all()  # "#node\t" has an empty id
        and (tabs[attr] == 3).all()
        and (tabs[edge] == 1).all()
    )
    if ok:
        mid = tab[lines.first[edge]]
        attr_node = tab[lines.first[attr]] + 1
        # the tokens: declared ids, then the ids the edges and attributes use
        tok_start = np.concatenate([start[node] + 6, start[edge], mid + 1, attr_node])
        tok_stop = np.concatenate(
            [end[node], mid, end[edge], tab[lines.first[attr] + 1]]
        )
        number, rep = _distinct(lines.buf, tok_start, tok_stop)
        u, v = number[node.size :][: 2 * edge.size].reshape(2, -1)
        ok = not (u == v).any()
    if not ok:
        _raise_first_bad_line(path, lines, network=True)
    at = np.arange(rep.size)  # each distinct token's position in ids
    if node.size:
        declared = np.zeros(rep.size, dtype=bool)
        declared[number[: node.size]] = True
        used = number[node.size :]
        dangling = used[~declared[used]]
        if dangling.size:
            least = rep[[dangling.min()]]
            name = lines.strings(tok_start[least], tok_stop[least])[0]
            raise MatchcertError(
                f"unknown-node: {name!r} used but not declared in {path}"
            )
        rep, at = rep[declared], np.cumsum(declared) - 1
    ids = lines.strings(tok_start[rep], tok_stop[rep])
    # _check_node_id, in id order, on the ids it can reject here: those whose
    # first byte is "#" or may start whitespace (an empty id's is a tab or LF)
    lead = lines.buf[tok_start[rep]]
    for i in np.flatnonzero((lead == ord("#")) | _MAYBE_BLANK[lead]).tolist():
        _check_node_id(ids[i])
    rows = gather_runs(lines.buf, attr_node, end[attr] + 1 - attr_node).tobytes()
    return Network(
        NodeIndex.build(ids, at[u], at[v]),
        partial(_file_attrs, rows),
    )


def save_network(net: Network, path: str | Path) -> None:
    """Write a network TSV that load_network reads back identically."""
    lines = list(map("#node\t".__add__, net.index.ids))
    lines += [
        f"#attr\t{node}\t{key}\t{value}"
        for node in sorted(net.attrs)
        for key, value in sorted(net.attrs[node].items())
    ]
    lines += map("\t".join, zip(*_edge_ids(net.index)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_pairs(path: str | Path) -> list[tuple[str, str]]:
    """Parse the ``x<TAB>y`` lines of a match TSV file, in file order."""
    lines = _scan(path)
    rows = np.flatnonzero(lines.kind == _DATA)
    if (lines.tabs[rows] != 1).any():
        _raise_first_bad_line(path, lines, network=False)
    mid = lines.tab[lines.first[rows]]
    ends = lines.strings(
        np.column_stack([lines.start[rows], mid + 1]).ravel(),
        np.column_stack([mid, lines.end[rows]]).ravel(),
    )
    return list(zip(ends[0::2], ends[1::2]))


def read_items(path: str | Path) -> list[str]:
    """The lines of a one-item-per-line file, verbatim and in file order;
    ``#`` lines are comments and blank lines are skipped."""
    lines = _scan(path)
    rows = np.flatnonzero(lines.kind == _DATA)
    return lines.strings(lines.start[rows], lines.end[rows])


def load_matches(path: str | Path, pair: NetworkPair) -> MatchSet:
    """Parse a match TSV file against a NetworkPair."""
    return make_match_set(read_pairs(path), pair)


def save_matches(ms: MatchSet, path: str | Path) -> None:
    out = [f"{x}\t{y}" for x, y in ms.sorted_pairs]
    Path(path).write_text("\n".join(out) + ("\n" if out else ""), encoding="utf-8")
