"""Networks, match sets, and their TSV serialization.

Two node universes X and Y, undirected edges, flat string attributes per
node, and sets of x-y pairs playing one of three roles: actual matches,
identified matches, or identified matches from a holdout matcher. A
NetworkPair may run in self-match mode (X and Y are the same universe,
e.g. when matching data fields against each other), in which case identity
pairs are illegal everywhere.

File formats (UTF-8, LF, tab-separated):

* network file: ``u<TAB>v`` edge lines; ``#node<TAB>id`` declares a node
  (needed for isolated nodes); ``#attr<TAB>node<TAB>key<TAB>value`` sets an
  attribute; other ``#`` lines are comments. If any ``#node`` line is
  present the declared set is authoritative and undeclared endpoints are
  rejected.
* match file: ``x<TAB>y`` lines, ``#`` comments.

A Network is its int index (``Network.index``) plus its attributes: node
ids sorted once, so index order is id order, an id -> position map, and
CSR adjacency arrays. ``make_network`` builds the index from string edges
(file loading, tests); the generator builds it straight from int edge
arrays with ``NodeIndex.build``. ``Network.nodes`` and ``Network.edges``
are read-only views of the index, built on first use. Equality compares
nodes, edges and attributes (equal ids and CSR arrays are equal node and
edge sets), and ``repr`` shows the views, not the arrays. String ids stay
in match sets and at the I/O boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

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
        # one key per distinct edge, lo * n + hi, ascending
        keys = np.unique(lo * n + hi)
        lo, hi = np.divmod(keys, n)
        # both directions of every edge as src * n + dst, sorted by (src, dst)
        arcs = np.sort(np.concatenate([keys, hi * n + lo]))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(arcs // n, minlength=n), out=indptr[1:])
        return cls(ids, pos, indptr, arcs % n)


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


def make_network(
    nodes: Iterable[str],
    edges: Iterable[tuple[str, str]],
    attrs: Mapping[str, Mapping[str, str]] | None = None,
) -> Network:
    """Build a validated Network; edges are deduplicated and canonicalized."""
    ids = sorted({_check_node_id(n) for n in nodes})
    pos = dict(zip(ids, range(len(ids))))
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
    IDENTIFIED_HOLDOUT = "identified-holdout"


@dataclass(frozen=True)
class MatchSet:
    pairs: frozenset[tuple[str, str]]
    role: MatchRole
    k_y: int | None = None  # declared cap on actual matches per x node

    @cached_property
    def sorted_pairs(self) -> tuple[tuple[str, str], ...]:
        """The pairs in sorted order, sorted once per set."""
        return tuple(sorted(self.pairs))

    @cached_property
    def _per_x(self) -> dict[str, frozenset[str]]:
        acc: dict[str, set[str]] = {}
        for x, y in self.pairs:
            acc.setdefault(x, set()).add(y)
        return {x: frozenset(ys) for x, ys in acc.items()}


def make_match_set(
    pairs: Iterable[tuple[str, str]],
    pair: NetworkPair,
    role: MatchRole,
    k_y: int | None = None,
) -> MatchSet:
    """Build a validated MatchSet against a NetworkPair.

    Rejects endpoints outside the universes, identity pairs in self-match
    mode, and (for the actual role with a declared cap) any x matched more
    than k_y times.
    """
    dedup = set()
    for x, y in pairs:
        if x not in pair.x_net.nodes:
            raise MatchcertError(f"unknown-node: x endpoint {x!r}")
        if y not in pair.y_net.nodes:
            raise MatchcertError(f"unknown-node: y endpoint {y!r}")
        if pair.self_match_mode and x == y:
            raise MatchcertError(f"identity-pair-forbidden: ({x!r}, {y!r})")
        dedup.add((x, y))
    if role is MatchRole.ACTUAL and k_y is not None:
        counts: dict[str, int] = {}
        for x, _ in dedup:
            counts[x] = counts.get(x, 0) + 1
            if counts[x] > k_y:
                raise MatchcertError(
                    f"ky-violated: node {x!r} has more than k_y={k_y} actual matches"
                )
    return MatchSet(frozenset(dedup), role, k_y)


def by_x(ms: MatchSet) -> Mapping[str, frozenset[str]]:
    """Per-x view of the whole set: {x: set of matched y}.

    Built in one pass on the first call for a set and shared by every
    later caller, so callers get a read-only proxy of it.
    """
    return MappingProxyType(ms._per_x)


def _lines(path: str | Path):
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.split("\n"), start=1):
        if raw == "" or raw.isspace():
            continue
        yield lineno, raw


def load_network(path: str | Path) -> Network:
    """Parse a network TSV file. See the module docstring for the format."""
    declared: set[str] = set()
    implicit: set[str] = set()
    edge_rows: list[tuple[int, str, str]] = []
    attrs: dict[str, dict[str, str]] = {}
    for lineno, raw in _lines(path):
        if raw.startswith("#node\t"):
            fields = raw.split("\t")
            if len(fields) != 2 or not fields[1]:
                raise MatchcertError(f"malformed-line: {path}:{lineno}: {raw!r}")
            declared.add(fields[1])
        elif raw.startswith("#attr\t"):
            fields = raw.split("\t")
            if len(fields) != 4:
                raise MatchcertError(f"malformed-line: {path}:{lineno}: {raw!r}")
            _, node, key, value = fields
            attrs.setdefault(node, {})[key] = value
            implicit.add(node)
        elif raw.startswith("#"):
            continue
        else:
            fields = raw.split("\t")
            if len(fields) != 2:
                raise MatchcertError(f"malformed-line: {path}:{lineno}: {raw!r}")
            u, v = fields
            if u == v:
                raise MatchcertError(f"self-loop: {path}:{lineno}: {raw!r}")
            edge_rows.append((lineno, u, v))
            implicit.update((u, v))
    if declared:
        dangling = implicit - declared
        if dangling:
            raise MatchcertError(
                f"unknown-node: {sorted(dangling)[0]!r} used but not declared in {path}"
            )
        nodes = declared
    else:
        nodes = implicit
    return make_network(nodes, [(u, v) for _, u, v in edge_rows], attrs)


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
    rows = []
    for lineno, raw in _lines(path):
        if raw.startswith("#"):
            continue
        fields = raw.split("\t")
        if len(fields) != 2:
            raise MatchcertError(f"malformed-line: {path}:{lineno}: {raw!r}")
        rows.append((fields[0], fields[1]))
    return rows


def read_items(path: str | Path) -> list[str]:
    """The stripped lines of a one-item-per-line file, in file order;
    ``#`` lines are comments."""
    return [raw.strip() for _, raw in _lines(path) if not raw.startswith("#")]


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
