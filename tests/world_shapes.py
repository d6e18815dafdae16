"""Exact audit of the holdout query certificates over every world shape.

Take a holdout matcher that gives each x at most two matches and a truth
that gives each x at most one. Each node of X is then of one of eight
types (``TYPES``), by its identified and actual matches:

0. identified and correct;
1. identified and wrong, with an actual match;
2. identified, with no actual match;
3. not identified, with an actual match;
4. neither;
5. two identified matches, its actual one and a wrong one (p(x) = 1/2);
6. two wrong identified matches, with an actual match;
7. two wrong identified matches, with no actual match.

A holdout query certificate reads a world only through the types of the
sampled nodes. So a world of n nodes is one composition (c_0, ..., c_7) of
n, and the samples of size s fall into classes k <= c with sum(k) = s: a
uniform sample is in class k with probability prod C(c_i, k_i) / C(n, s).
The audit certifies one member of each class, the first k_i nodes of each
type, and sums the probability of the classes whose bound lies on the
wrong side of the exact truth: the mean of p(x) over the identified
nodes for precision, the mean of r(x) over the nodes with an actual match
for recall, and the share of X whose two match sets differ for the error
rate. Truths and bounds are compared as exact fractions. The first five
types are the one-to-one worlds; a ``counts`` of five entries has none of
the others.

A sample with no usable node for precision or recall gets that
certificate's vacuous report, 0, which lies on the safe side of every
truth.

Every world of up to N nodes at every sample size, under all three
methods, with the worst share per bound id and method:

    PYTHONPATH=src python -m tests.world_shapes N
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction

from matchcert.bounds import BoundMethod
from matchcert.graphs import NetworkPair, make_network
from matchcert.matchers import MatcherConfig, build_matcher
from matchcert.query import QueryValidationInput, query_columns, query_reports

DELTA = 0.05
# each node type's identified and actual matches, by letter: x_i's actual
# match is y_i, and its wrong matches z_i and w_i, which no x has
TYPES = (
    ("y", "y"),
    ("z", "y"),
    ("z", ""),
    ("", "y"),
    ("", ""),
    ("yz", "y"),
    ("zw", "y"),
    ("zw", ""),
)
ONE_TO_ONE = 5  # the first five types
BOUND_IDS = (
    "holdout-query-precision",
    "holdout-query-recall",
    "holdout-query-error-rate",
)


def compositions(n: int, parts: int = len(TYPES)):
    """Every tuple of ``parts`` non-negative ints that sums to ``n``."""
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in compositions(n - first, parts - 1):
            yield (first, *rest)


def build_world(counts):
    """The pair, an attribute-exact holdout matcher, ``actual_for`` and the
    x nodes of each type, for ``counts[t]`` nodes of type t."""
    types = [t for t, count in enumerate(counts) for _ in range(count)]
    xs = [f"x{i}" for i in range(len(types))]
    found, actual = {}, {}
    for i, (x, t) in enumerate(zip(xs, types)):
        found[x], actual[x] = ([f"{v}{i}" for v in side] for side in TYPES[t])
    ys = [f"{v}{i}" for v in "yzw" for i in range(len(xs))]
    pair = NetworkPair(
        make_network(xs, [], {x: {"m": x} for x, f in found.items() if f}),
        make_network(ys, [], {y: {"m": x} for x, f in found.items() for y in f}),
    )
    holdout = build_matcher(MatcherConfig("attribute-exact", attr_key="m"))
    actual_for = {x: frozenset(a) for x, a in actual.items()}
    by_type = [[x for x, t in zip(xs, types) if t == u] for u in range(len(counts))]
    return pair, holdout, actual_for, by_type


def exact_truths(counts) -> dict[str, Fraction]:
    """Each bound id's exact truth, where it is defined."""
    p, r, w = [], [], []
    for (found, actual), count in zip(TYPES, counts):
        found, actual = set(found), set(actual)
        if found:
            p += [Fraction(len(found & actual), len(found))] * count
        if actual:
            r += [Fraction(len(found & actual), len(actual))] * count
        w += [found != actual] * count
    truths = {"holdout-query-error-rate": Fraction(sum(w), len(w))}
    for bound_id, values in (("holdout-query-precision", p), ("holdout-query-recall", r)):
        if values:
            truths[bound_id] = sum(values) / len(values)
    return truths


def classes(counts, size: int):
    """(k, number of samples in class k) for every class of ``size``."""
    for k in compositions(size, len(counts)):
        if all(ki <= ci for ki, ci in zip(k, counts)):
            yield k, math.prod(map(math.comb, counts, k))


def member(by_type, k, last: bool = False) -> tuple[str, ...]:
    """The first (or last) k[t] nodes of each type t."""
    return tuple(
        x
        for nodes, ki in zip(by_type, k)
        for x in (nodes[len(nodes) - ki :] if last else nodes[:ki])
    )


def statements(inp: QueryValidationInput, columns=None) -> dict[str, float]:
    """Each holdout query bound id's bound on ``inp``'s sample, from
    ``query_reports`` (with ``columns``, when given)."""
    return {
        r.bound_id: r.lower_bound if r.upper_bound is None else r.upper_bound
        for r in query_reports(inp, columns)
    }


def _wrong_side(bound_id: str, bound: float, truth: Fraction) -> bool:
    if bound_id == "holdout-query-error-rate":
        return Fraction(bound) < truth
    return Fraction(bound) > truth


def world_shares(counts, sizes, methods=tuple(BoundMethod), check: bool = False):
    """{(bound id, method, size): exact failure share} of the world with
    ``counts``, for each bound id with a truth there. With ``check``, the
    last member of each class must give the same bounds as the first."""
    pair, holdout, actual_for, by_type = build_world(counts)
    truths = exact_truths(counts)
    shares = {}
    for size in sizes:
        failed = Counter()
        for k, weight in classes(counts, size):
            first = QueryValidationInput(
                pair, holdout, member(by_type, k), actual_for, methods[0], DELTA
            )
            columns = query_columns(first)  # the methods share them
            for method in methods:
                inp = replace(first, method=method)
                bounds = statements(inp, columns)
                if check:
                    other = replace(inp, s_x=member(by_type, k, True))
                    assert statements(other) == bounds, (counts, k, method)
                for bound_id, truth in truths.items():
                    if _wrong_side(bound_id, bounds[bound_id], truth):
                        failed[bound_id, method] += weight
        total = math.comb(sum(counts), size)
        for bound_id in truths:
            for method in methods:
                shares[bound_id, method, size] = Fraction(failed[bound_id, method], total)
    return shares


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    max_n = int(args[0]) if args else 8
    worst = {}
    for n in range(1, max_n + 1):
        start, worlds = time.perf_counter(), 0
        for counts in compositions(n):
            worlds += 1
            for (bound_id, method, size), share in world_shares(
                counts, range(1, n + 1)
            ).items():
                key = bound_id, method.value
                if key not in worst or share > worst[key][0]:
                    worst[key] = share, counts, size
        print(f"n={n}: {worlds} worlds, {time.perf_counter() - start:.1f} s", flush=True)
    print(f"worst exact failure share over every world of 1..{max_n} nodes:")
    for (bound_id, method), (share, counts, size) in sorted(worst.items()):
        verdict = "ok" if share <= DELTA else "OVER DELTA"
        print(
            f"  {bound_id} [{method}]: {float(share):.4f} "
            f"(world {counts}, s={size}) {verdict}"
        )
    return 0 if all(share <= DELTA for share, _, _ in worst.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
