"""Networks, match sets, and their TSV serialization.

Two node universes X and Y, undirected edges, flat string attributes per
node, and sets of x-y pairs playing one of two roles: actual matches or
identified matches. A NetworkPair may run in self-match mode (X and Y are
the same universe, e.g. when matching data fields against each other), in
which case identity pairs are illegal everywhere.

File formats (UTF-8, LF, tab-separated):

* network file: ``u<TAB>v`` edge lines; ``#node<TAB>id`` declares a node
  (needed for isolated nodes); ``#attr<TAB>node<TAB>key<TAB>value`` sets an
  attribute; other ``#`` lines are comments. If any ``#node`` line is
  present the declared set is authoritative and undeclared endpoints are
  rejected.
* match file: ``x<TAB>y`` lines, ``#`` comments.

Blank and whitespace-only lines are skipped.

A Network is its int index (``Network.index``) plus its attributes: node
ids sorted once, so index order is id order, an id -> position map, and
CSR adjacency arrays. ``make_network`` builds the index from string edges;
``load_network`` and the generator build it straight from int edge arrays
with ``NodeIndex.build``. ``Network.nodes`` and ``Network.edges`` are
read-only views of the index, built on first use. Equality compares
nodes, edges and attributes (equal ids and CSR arrays are equal node and
edge sets), and ``repr`` shows the views, not the arrays.

A MatchSet is int-native in the same way: the X and Y id lists of its
pair, and one sorted, distinct int64 key ``x_pos * len(y_ids) + y_pos``
per pair. Because index order is id order, key order is (x, y) id order.
``make_match_set`` maps checked string pairs to keys, and the generator
and the matchers build keys directly. ``pairs``, ``sorted_pairs`` and
``by_x`` are string views of the keys, built on first use;
``sorted_pairs`` needs no sort. Set arithmetic (``MatchSet.found_in``,
``MatchSet.contains``) and per-node lookups (``matches_of``) read the
keys with binary searches. Two sets are compared only over the same X and
Y id lists (the same lists, or equal ones); otherwise the comparison
raises ``universe-mismatch``. Equality means equal pairs, role and k_y.
String ids stay at the I/O boundary and in the views.

The parsers read a whole file in bulk passes: one split into lines, list
comprehensions that pick out each kind of line, a tab count per line, and
one join and split on tabs that yields every row's fields. Endpoints map to
positions through ``map(pos.__getitem__, ...)`` into ``np.fromiter``. A
bad file fails as a line-by-line reader would fail: only when a bulk check
fails does a walk over the lines find the first bad line in file order
and raise ``malformed-line`` or ``self-loop`` with its line number. A file
whose lines are all well formed can still fail as a whole:
``unknown-node`` names the smallest id used but not declared, and
``invalid-node-id`` an empty id.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import islice, repeat
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, NoReturn, Sequence

import numpy as np

from .errors import MatchcertError

__all__ = [
    "Network",
    "NodeIndex",
    "NetworkPair",
    "MatchRole",
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


def _check_node_id(node: str) -> str:
    if not node or "\t" in node or "\n" in node:
        raise MatchcertError(f"invalid-node-id: {node!r}")
    return node


def distinct_sorted(keys: np.ndarray) -> np.ndarray:
    """The distinct values of an int array, ascending: sorted, then repeats
    dropped (np.unique's first call imports numpy.ma, ~15 ms)."""
    keys = np.sort(keys)
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _member(keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """Whether each of ``keys`` occurs in the ascending ``sorted_keys``."""
    at = np.searchsorted(sorted_keys, keys)
    found = at < sorted_keys.size
    found[found] = sorted_keys[at[found]] == keys[found]
    return found


class NodeIndex(NamedTuple):
    """Int positions for a network's nodes and CSR adjacency over them.

    The neighbours of the node at position i are
    ``nbr[indptr[i]:indptr[i + 1]]``, in ascending order.
    """

    ids: list[str]  # node ids in sorted order
    pos: dict[str, int]  # id -> position in ids
    indptr: np.ndarray  # int64, len(ids) + 1 row offsets
    nbr: np.ndarray  # int64 neighbour positions, two per edge

    @classmethod
    def build(
        cls, ids: list[str], pos: dict[str, int], u: np.ndarray, v: np.ndarray
    ) -> "NodeIndex":
        """The index over ``ids`` (sorted, distinct; ``pos`` maps each to
        its position) with an edge between positions ``u[i]`` and ``v[i]``
        for each i. u != v elementwise; edges may come in either
        orientation and repeat."""
        n = len(ids)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        keys = distinct_sorted(lo * n + hi)  # one key per distinct edge
        lo, hi = np.divmod(keys, n)
        # both directions of every edge as src * n + dst, sorted by (src, dst)
        arcs = np.sort(np.concatenate([keys, hi * n + lo]))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(arcs // n, minlength=n), out=indptr[1:])
        return cls(ids, pos, indptr, arcs % n)

    def positions(self, ids: Sequence[str]) -> np.ndarray:
        """The position of each of ``ids``, in order; -1 for an id that is
        not a node."""
        return np.fromiter(map(self.pos.get, ids, repeat(-1)), np.int64, len(ids))


def _edge_rows(index: NodeIndex) -> list[tuple[str, str]]:
    """Each edge once as (u, v) with u < v, in sorted order: the CSR rows
    in position order, which is id order."""
    src = np.repeat(np.arange(len(index.ids)), np.diff(index.indptr))
    upper = src < index.nbr
    ids = index.ids
    return [
        (ids[a], ids[b])
        for a, b in zip(src[upper].tolist(), index.nbr[upper].tolist())
    ]


@dataclass(frozen=True, eq=False, repr=False)
class Network:
    """A network: its int index plus flat string attributes per node.

    ``nodes`` and ``edges`` are read-only views of the index, built on
    first use and cached on the object.
    """

    index: NodeIndex
    attrs: Mapping[str, Mapping[str, str]] = field(default_factory=dict)

    @cached_property
    def nodes(self) -> frozenset[str]:
        return frozenset(self.index.ids)

    @cached_property
    def edges(self) -> frozenset[tuple[str, str]]:
        """Each edge once, as (u, v) with u < v."""
        return frozenset(_edge_rows(self.index))

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


def _sorted_ids(nodes: Iterable[str]) -> tuple[list[str], dict[str, int]]:
    """The distinct checked ids in sorted order, and id -> position."""
    ids = sorted({_check_node_id(n) for n in nodes})
    return ids, dict(zip(ids, range(len(ids))))


def make_network(
    nodes: Iterable[str],
    edges: Iterable[tuple[str, str]],
    attrs: Mapping[str, Mapping[str, str]] | None = None,
) -> Network:
    """Build a validated Network; edges are deduplicated and canonicalized."""
    ids, pos = _sorted_ids(nodes)
    edges = list(edges)
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
    attrs = dict(attrs or {})
    for node in attrs:
        if node not in pos:
            raise MatchcertError(f"unknown-node: attribute for {node!r}")
    return Network(NodeIndex.build(ids, pos, u, v), attrs)


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


class MatchRole(Enum):
    ACTUAL = "actual"
    IDENTIFIED = "identified"


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
    role: MatchRole
    k_y: int | None = None  # declared cap on actual matches per x node

    def decode(self, keys) -> list[tuple[str, str]]:
        """The (x, y) id pair of each of ``keys``, in order."""
        xs, ys = np.divmod(np.asarray(keys, dtype=np.int64), max(len(self.y_ids), 1))
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
        return _member(keys, self.keys)

    def found_in(self, other: "MatchSet") -> np.ndarray:
        """Whether ``other`` holds each of this set's pairs, in key order."""
        other.check_universe(self.x_ids, self.y_ids)
        return other.contains(self.keys)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatchSet):
            return NotImplemented
        other.check_universe(self.x_ids, self.y_ids)
        return (
            self.role is other.role
            and self.k_y == other.k_y
            and np.array_equal(self.keys, other.keys)
        )

    def __hash__(self) -> int:
        return hash((self.keys.tobytes(), self.role, self.k_y))

    def __repr__(self) -> str:
        return f"MatchSet(pairs={self.pairs!r}, role={self.role!r}, k_y={self.k_y!r})"


def pair_positions(
    pair: NetworkPair, pairs: Sequence[tuple[str, str]]
) -> tuple[np.ndarray, np.ndarray]:
    """(u, v): the X position of each x and the Y position of each y of
    ``pairs``, in order; -1 for an id that is not a node of its network."""
    xs, ys = zip(*pairs) if pairs else ((), ())
    return pair.x_net.index.positions(xs), pair.y_net.index.positions(ys)


def pair_keys(pair: NetworkPair, pairs: Sequence[tuple[str, str]]) -> np.ndarray:
    """The key of each (x, y) of ``pairs`` over ``pair``'s universes, in
    order; -1 where x is not a node of X or y not a node of Y."""
    u, v = pair_positions(pair, pairs)
    keys = u * len(pair.y_net.index.ids) + v
    keys[(u < 0) | (v < 0)] = -1
    return keys


def make_match_set(
    pairs: Iterable[tuple[str, str]],
    pair: NetworkPair,
    role: MatchRole,
    k_y: int | None = None,
) -> MatchSet:
    """Build a validated MatchSet against a NetworkPair.

    Rejects endpoints outside the universes, identity pairs in self-match
    mode, and (for the actual role with a declared cap) any x matched more
    than k_y times; the error names the first bad pair in input order, or
    the smallest x over the cap.
    """
    pairs = list(pairs)
    ix, iy = pair.x_net.index, pair.y_net.index
    ny = len(iy.ids)
    u, v = pair_positions(pair, pairs)
    bad = (u < 0) | (v < 0)
    if pair.self_match_mode:
        bad |= u == v  # one shared universe: equal positions, equal ids
    if bad.any():
        x, y = pairs[int(np.argmax(bad))]  # the first bad pair
        if x not in ix.pos:
            raise MatchcertError(f"unknown-node: x endpoint {x!r}")
        if y not in iy.pos:
            raise MatchcertError(f"unknown-node: y endpoint {y!r}")
        raise MatchcertError(f"identity-pair-forbidden: ({x!r}, {y!r})")
    keys = distinct_sorted(u * ny + v)
    if role is MatchRole.ACTUAL and k_y is not None and keys.size:
        over = np.flatnonzero(np.bincount(keys // ny) > k_y)
        if over.size:
            raise MatchcertError(
                f"ky-violated: node {ix.ids[over[0]]!r} has more than "
                f"k_y={k_y} actual matches"
            )
    return MatchSet(ix.ids, iy.ids, keys, role, k_y)


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
    """{x: set of matched y} for each of ``nodes`` that has a match in
    ``ms``, a set over ``pair``'s universes: the entries of ``by_x(ms)``
    for those nodes, found by binary search on the keys. A node that is
    not a node of X has no entry."""
    ix = pair.x_net.index
    ms.check_universe(ix.ids, pair.y_net.index.ids)
    xs = [x for x in dict.fromkeys(nodes) if x in ix.pos]
    ny = len(ms.y_ids)
    row = np.fromiter(map(ix.pos.__getitem__, xs), dtype=np.int64, count=len(xs)) * ny
    lo = np.searchsorted(ms.keys, row)
    count = np.searchsorted(ms.keys, row + ny) - lo
    hit = np.flatnonzero(count)
    lo, count = lo[hit], count[hit]
    # every matched key of the hit rows, row after row
    at = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())
    y_ids = ms.y_ids
    ys = iter([y_ids[k] for k in (ms.keys[at] % ny).tolist()])
    return {
        xs[i]: frozenset(islice(ys, c)) for i, c in zip(hit.tolist(), count.tolist())
    }


def _read_lines(path: str | Path) -> list[str]:
    return Path(path).read_text(encoding="utf-8").split("\n")


def _data_rows(lines: list[str]) -> list[str]:
    """The lines that are neither blank, whitespace-only nor ``#`` lines."""
    return [raw for raw in lines if raw.strip() and raw[0] != "#"]


def _tabs_ok(rows: list[str], tabs: int) -> bool:
    """Whether every row holds exactly ``tabs`` tabs."""
    return set(map(str.count, rows, repeat("\t"))) <= {tabs}


def _fields(rows: list[str], width: int) -> list[list[str]]:
    """Field i of every row, for each i < width, from rows of ``width``
    tab-separated fields."""
    flat = "\t".join(rows).split("\t") if rows else []
    return [flat[i::width] for i in range(width)]


def _raise_first_bad_line(
    path: str | Path, lines: list[str], network: bool
) -> NoReturn:
    """Raise for the first malformed line, or in a network file the first
    self-loop, in file order. Runs only after a bulk check failed."""
    for lineno, raw in enumerate(lines, start=1):
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


def load_network(path: str | Path) -> Network:
    """Parse a network TSV file. See the module docstring for the format."""
    lines = _read_lines(path)
    hashed = [raw for raw in lines if raw and raw[0] == "#"]
    node_rows = [raw for raw in hashed if raw.startswith("#node\t")]
    attr_rows = [raw for raw in hashed if raw.startswith("#attr\t")]
    edge_rows = _data_rows(lines)
    ok = (
        _tabs_ok(node_rows, 1)
        and "#node\t" not in node_rows  # an empty id
        and _tabs_ok(attr_rows, 3)
        and _tabs_ok(edge_rows, 1)
    )
    if ok:
        us, vs = _fields(edge_rows, 2)
        ok = not any(map(operator.eq, us, vs))
    if not ok:
        _raise_first_bad_line(path, lines, network=True)
    _, attr_nodes, keys, values = _fields(attr_rows, 4)
    implicit = set(us)
    implicit.update(vs, attr_nodes)
    if node_rows:
        nodes = set(_fields(node_rows, 2)[1])
        dangling = implicit - nodes
        if dangling:
            raise MatchcertError(
                f"unknown-node: {min(dangling)!r} used but not declared in {path}"
            )
    else:
        nodes = implicit
    ids, pos = _sorted_ids(nodes)
    attrs: dict[str, dict[str, str]] = {}
    for node, key, value in zip(attr_nodes, keys, values):
        attrs.setdefault(node, {})[key] = value
    u = np.fromiter(map(pos.__getitem__, us), dtype=np.int64, count=len(us))
    v = np.fromiter(map(pos.__getitem__, vs), dtype=np.int64, count=len(vs))
    return Network(NodeIndex.build(ids, pos, u, v), attrs)


def save_network(net: Network, path: str | Path) -> None:
    """Write a network TSV that load_network reads back identically."""
    out = []
    for node in net.index.ids:
        out.append(f"#node\t{node}")
    for node in sorted(net.attrs):
        for key in sorted(net.attrs[node]):
            out.append(f"#attr\t{node}\t{key}\t{net.attrs[node][key]}")
    for u, v in _edge_rows(net.index):
        out.append(f"{u}\t{v}")
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def read_pairs(path: str | Path) -> list[tuple[str, str]]:
    """Parse the ``x<TAB>y`` lines of a match TSV file, in file order."""
    lines = _read_lines(path)
    rows = _data_rows(lines)
    if not _tabs_ok(rows, 1):
        _raise_first_bad_line(path, lines, network=False)
    return list(zip(*_fields(rows, 2)))


def read_items(path: str | Path) -> list[str]:
    """The stripped lines of a one-item-per-line file, in file order;
    ``#`` lines are comments."""
    return [raw.strip() for raw in _data_rows(_read_lines(path))]


def load_matches(
    path: str | Path,
    pair: NetworkPair,
    role: MatchRole,
    k_y: int | None = None,
) -> MatchSet:
    """Parse a match TSV file against a NetworkPair."""
    return make_match_set(read_pairs(path), pair, role, k_y)


def save_matches(ms: MatchSet, path: str | Path) -> None:
    out = [f"{x}\t{y}" for x, y in ms.sorted_pairs]
    Path(path).write_text("\n".join(out) + ("\n" if out else ""), encoding="utf-8")
