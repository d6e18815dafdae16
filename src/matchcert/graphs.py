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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping

from .errors import MatchcertError

__all__ = [
    "Network",
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


@dataclass(frozen=True)
class Network:
    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]
    attrs: Mapping[str, Mapping[str, str]] = field(default_factory=dict)


def make_network(
    nodes: Iterable[str],
    edges: Iterable[tuple[str, str]],
    attrs: Mapping[str, Mapping[str, str]] | None = None,
) -> Network:
    """Build a validated Network; edges are deduplicated and canonicalized."""
    node_set = frozenset(_check_node_id(n) for n in nodes)
    canon = set()
    for u, v in edges:
        if u == v:
            raise MatchcertError(f"self-loop: edge ({u!r}, {v!r})")
        if u not in node_set or v not in node_set:
            raise MatchcertError(f"unknown-node: edge endpoint {u!r} or {v!r}")
        canon.add((u, v) if u < v else (v, u))
    attrs = dict(attrs or {})
    for node in attrs:
        if node not in node_set:
            raise MatchcertError(f"unknown-node: attribute for {node!r}")
    return Network(node_set, frozenset(canon), attrs)


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
    x_universe: frozenset[str]
    y_universe: frozenset[str]
    k_y: int | None = None  # declared cap on actual matches per x node


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
    return MatchSet(
        frozenset(dedup), role, pair.x_net.nodes, pair.y_net.nodes, k_y
    )


def by_x(ms: MatchSet) -> dict[str, frozenset[str]]:
    """Per-x view of the whole set in one pass: {x: set of matched y}."""
    acc: dict[str, set[str]] = {}
    for x, y in ms.pairs:
        acc.setdefault(x, set()).add(y)
    return {x: frozenset(ys) for x, ys in acc.items()}


def _lines(path: str | Path):
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.split("\n"), start=1):
        if raw == "" or raw.isspace():
            continue
        yield lineno, raw


def load_network(path: str | Path, format: str = "edge-tsv") -> Network:
    """Parse a network TSV file. See the module docstring for the format."""
    if format != "edge-tsv":
        raise MatchcertError(f"unknown-format: {format!r}")
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
    for node in sorted(net.nodes):
        out.append(f"#node\t{node}")
    for node in sorted(net.attrs):
        for key in sorted(net.attrs[node]):
            out.append(f"#attr\t{node}\t{key}\t{net.attrs[node][key]}")
    for u, v in sorted(net.edges):
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
    out = [f"{x}\t{y}" for x, y in sorted(ms.pairs)]
    Path(path).write_text("\n".join(out) + ("\n" if out else ""), encoding="utf-8")
