"""Exact audit of the holdout query certificates over every world shape.

Take a one-to-one holdout matcher and a one-to-one truth. Each node of X
is then of one of five types:

0. identified and correct;
1. identified and wrong, with an actual match;
2. identified, with no actual match;
3. not identified, with an actual match;
4. neither.

A holdout query certificate reads a world only through the types of the
sampled nodes. So a world of n nodes is one composition (c_0, ..., c_4) of
n, and the samples of size s fall into classes k <= c with sum(k) = s: a
uniform sample is in class k with probability prod C(c_i, k_i) / C(n, s).
The audit certifies one member of each class, the first k_i nodes of each
type, and sums the probability of the classes whose bound lies on the
wrong side of the exact truth: a / (a + b + c) for precision,
a / (a + b + d) for recall and (b + c + d) / n for the error rate, where
(a, b, c, d) = (c_0, c_1, c_2, c_3). Truths and bounds are compared as
exact fractions.

A sample with no usable node for precision or recall raises
``no-usable-sample`` and makes no statement for that certificate; it is
not a failure. The other certificate's bound is then read from its term,
which lies at or beyond its report's safe-side step, so reading it is no
weaker a check.

Every world of up to N nodes at every sample size, under all three
methods, with the worst share per bound id and method:

    PYTHONPATH=src python -m tests.world_shapes N
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter
from fractions import Fraction

from matchcert.bounds import BoundMethod, Confidence
from matchcert.errors import MatchcertError
from matchcert.graphs import NetworkPair, make_network
from matchcert.matchers import MatcherConfig, build_matcher
from matchcert.query import (
    QueryValidationInput,
    _columns,
    _holdout_term,
    error_rate_bounds,
    holdout_query_bounds,
)

DELTA = 0.05
TYPES = 5
BOUND_IDS = (
    "holdout-query-precision",
    "holdout-query-recall",
    "holdout-query-error-rate",
)


def compositions(n: int, parts: int = TYPES):
    """Every tuple of ``parts`` non-negative ints that sums to ``n``."""
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in compositions(n - first, parts - 1):
            yield (first, *rest)


def build_world(counts):
    """The pair, an attribute-exact holdout matcher, ``actual_for`` and the
    x nodes of each type, for ``counts[t]`` nodes of type t. x_i's actual
    match is y_i; a wrong identified match is z_i, which no x matches."""
    types = [t for t, count in enumerate(counts) for _ in range(count)]
    xs = [f"x{i}" for i in range(len(types))]
    truth, identified = {}, {}
    for i, t in enumerate(types):
        if t in (0, 1, 3):
            truth[xs[i]] = f"y{i}"
        if t == 0:
            identified[xs[i]] = f"y{i}"
        elif t in (1, 2):
            identified[xs[i]] = f"z{i}"
    ys = [f"y{i}" for i in range(len(xs))] + [f"z{i}" for i in range(len(xs))]
    pair = NetworkPair(
        make_network(xs, [], {x: {"m": x} for x in identified}),
        make_network(ys, [], {y: {"m": x} for x, y in identified.items()}),
    )
    holdout = build_matcher(MatcherConfig("attribute-exact", attr_key="m"))
    actual_for = {x: frozenset([truth[x]] if x in truth else ()) for x in xs}
    by_type = [[x for x, t in zip(xs, types) if t == u] for u in range(TYPES)]
    return pair, holdout, actual_for, by_type


def exact_truths(counts) -> dict[str, Fraction]:
    """Each bound id's exact truth, where it is defined."""
    a, b, c, d, _ = counts
    truths = {"holdout-query-error-rate": Fraction(b + c + d, sum(counts))}
    if a + b + c:
        truths["holdout-query-precision"] = Fraction(a, a + b + c)
    if a + b + d:
        truths["holdout-query-recall"] = Fraction(a, a + b + d)
    return truths


def classes(counts, size: int):
    """(k, number of samples in class k) for every class of ``size``."""
    for k in compositions(size):
        if all(ki <= ci for ki, ci in zip(k, counts)):
            yield k, math.prod(map(math.comb, counts, k))


def member(by_type, k, last: bool = False) -> tuple[str, ...]:
    """The first (or last) k[t] nodes of each type t."""
    return tuple(
        x
        for nodes, ki in zip(by_type, k)
        for x in (nodes[len(nodes) - ki :] if last else nodes[:ki])
    )


def _no_statement(e: MatchcertError) -> None:
    """Pass a sample with no usable node; raise any other token."""
    if not str(e).startswith("no-usable-sample:"):
        raise e


def statements(inp: QueryValidationInput) -> dict[str, float]:
    """Each holdout query bound id's bound on ``inp``'s sample, for the
    certificates that make a statement there."""
    columns = _columns(inp)
    bounds = {"holdout-query-error-rate": error_rate_bounds(inp, columns).upper_bound}
    try:
        reports = holdout_query_bounds(inp, columns)
    except MatchcertError as e:
        _no_statement(e)
        for quantity in ("precision", "recall"):
            try:
                terms = _holdout_term(inp, columns, quantity, Confidence(inp.delta))
            except MatchcertError as e:
                _no_statement(e)
            else:
                bounds[f"holdout-query-{quantity}"] = terms[f"{quantity}_term"].value
    else:
        bounds.update((r.bound_id, r.lower_bound) for r in reports)
    return bounds


def _wrong_side(bound_id: str, bound: float, truth: Fraction) -> bool:
    if bound_id == "holdout-query-error-rate":
        return Fraction(bound) < truth
    return Fraction(bound) > truth


def world_shares(counts, sizes, methods=tuple(BoundMethod), check: bool = False):
    """{(bound id, method, size): exact failure share} of the world with
    ``counts``, for each bound id that makes a statement on some sample.
    With ``check``, the last member of each class must give the same
    bounds as the first."""
    pair, holdout, actual_for, by_type = build_world(counts)
    truths = exact_truths(counts)
    shares = {}
    for size in sizes:
        total = math.comb(sum(counts), size)
        for method in methods:
            failed, seen = Counter(), set()
            for k, weight in classes(counts, size):
                inp = QueryValidationInput(
                    pair, holdout, member(by_type, k), actual_for, method, DELTA
                )
                bounds = statements(inp)
                if check:
                    other = QueryValidationInput(
                        pair, holdout, member(by_type, k, True), actual_for, method, DELTA
                    )
                    assert statements(other) == bounds, (counts, k, method)
                for bound_id, bound in bounds.items():
                    seen.add(bound_id)
                    if _wrong_side(bound_id, bound, truths[bound_id]):
                        failed[bound_id] += weight
            for bound_id in seen:
                shares[bound_id, method, size] = Fraction(failed[bound_id], total)
    return shares


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    max_n = int(args[0]) if args else 10
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
