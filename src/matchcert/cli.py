"""matchcert command line interface.

Subcommands: gen (synthesize a correlated pair), match (run a matcher),
split (train/validation subsampling), validate batch / validate query
(emit certificate reports as JSON), coverage (Monte Carlo failure-rate
table as CSV + JSON), report (pretty-print a saved report).

Exit codes: 0 success, 1 error, 2 success but at least one bound was
mathematically vacuous (reported as 0 with a flag).

Each command imports the layers it runs inside its function, so a
process pays only for those: ``match`` never loads the bounds, batch,
query, reports, coverage, synth or sampling modules. Only ``graphs`` (the
file formats, which every command but ``report`` reads) and ``matchers``
load with this module. perfbench's span tracer wraps the functions of the
modules that ``import matchcert.cli`` loads, so its pipeline traces keep
the parse and the matcher, the two largest costs of a stage.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .errors import MatchcertError
from .graphs import (
    MatchSet,
    NetworkPair,
    distinct_sorted,
    load_matches,
    load_network,
    pair_keys,
    read_items,
    read_pairs,
    save_matches,
    save_network,
)
from .matchers import MatcherConfig, build_matcher, run_batch

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VACUOUS = 2

DELTA_HELP = (
    "failure probability of each certificate, split equally over its "
    "bound terms; the report's joint confidence is the union bound"
)


def _load_pair(args) -> NetworkPair:
    x_net = load_network(args.x)
    if getattr(args, "self_match", False):
        return NetworkPair(x_net, x_net, self_match_mode=True)
    if not args.y:
        raise MatchcertError("missing-network: supply --y or --self-match")
    return NetworkPair(x_net, load_network(args.y))


def _read_json(path: str, build, report: bool = False):
    """``build`` of the JSON document in the file at ``path``. A file that
    is not UTF-8 JSON, or whose document ``build`` cannot take, fails with
    ``invalid-report`` when ``report`` is set, else ``invalid-config``."""
    try:
        return build(json.loads(Path(path).read_text(encoding="utf-8")))
    except MatchcertError:
        raise
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError) as e:
        reason = f"{path}: {type(e).__name__}: {e}"
        if report:
            raise MatchcertError(f"invalid-report: {reason}") from e
        raise MatchcertError(f"invalid-config: {reason}") from e


def _delta(text: str) -> float:
    """The one delta that every certificate splits over its terms; the
    certificate inputs check its range (``invalid-confidence``)."""
    try:
        return float(text)
    except ValueError as e:
        raise MatchcertError(f"invalid-confidence: cannot parse {text!r}") from e


def _write_report(args, reports, node_stats=None) -> int:
    from .reports import combine_reports

    doc = combine_reports(reports).to_json_dict()
    doc["invocation"] = {
        key: value
        for key, value in sorted(vars(args).items())
        if key != "func" and value is not None
    }
    if node_stats is not None:
        doc["node_stats"] = [s.to_json_dict() for s in node_stats]
    text = json.dumps(doc, sort_keys=True, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    print("\n".join(_report_lines(doc)), file=sys.stderr)
    return EXIT_VACUOUS if any(r.vacuous for r in reports) else EXIT_OK


def cmd_gen(args) -> int:
    from .synth import GeneratorConfig, generate_pair

    cfg = _read_json(args.config, GeneratorConfig.from_json_dict)
    if args.seed is not None:
        cfg = replace(cfg, rng_seed=args.seed)
    pair, truth = generate_pair(cfg)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_network(pair.x_net, out / "x.tsv")
    save_network(pair.y_net, out / "y.tsv")
    save_matches(truth, out / "matches.tsv")
    ix, iy = pair.x_net.index, pair.y_net.index
    print(
        f"wrote {out}/x.tsv ({len(ix.ids)} nodes, {ix.nbr.size // 2} edges), "
        f"{out}/y.tsv ({len(iy.ids)} nodes, {iy.nbr.size // 2} edges), "
        f"{out}/matches.tsv ({truth.keys.size} pairs)"
    )
    return EXIT_OK


def cmd_match(args) -> int:
    pair = _load_pair(args)
    config = _read_json(args.config, MatcherConfig.from_json_dict)
    seeds = read_pairs(args.seeds) if args.seeds else []
    handle = build_matcher(config, training_matches=seeds)
    result = run_batch(handle, pair)
    save_matches(result, args.out)
    print(f"wrote {args.out} ({result.keys.size} identified matches)")
    return EXIT_OK


def cmd_split(args) -> int:
    from .sampling import SplitSpec, split_train_validation

    items = read_items(args.items)
    spec = SplitSpec(
        population_n=args.population_n,
        labeled=tuple(items),
        t=args.train_size,
        s=args.validation_size,
        rng_seed=args.seed,
    )
    train, validation = split_train_validation(spec)
    Path(args.train_out).write_text(
        "".join(f"{item}\n" for item in train), encoding="utf-8"
    )
    Path(args.validation_out).write_text(
        "".join(f"{item}\n" for item in validation), encoding="utf-8"
    )
    overlap = len(set(train) & set(validation))
    print(
        f"wrote {args.train_out} ({len(train)}) and {args.validation_out} "
        f"({len(validation)}), overlap {overlap}"
    )
    return EXIT_OK


def _load_sample(path: str, pair: NetworkPair) -> MatchSet:
    """The verified match sample in the TSV file at ``path``: each line a
    pair of nodes of X and Y (``unknown-node``), none repeated, since the
    sample is drawn without replacement (``duplicate-sample-item``)."""
    from .reports import require_distinct

    pairs = read_pairs(path)
    keys = pair_keys(pair, "s_m", pairs)
    require_distinct("s_m", pairs)
    return MatchSet(pair.x_net.index.ids, pair.y_net.index.ids, distinct_sorted(keys))


def cmd_validate_batch(args) -> int:
    from .batch import BatchValidationInput, batch_reports
    from .bounds import BoundMethod

    pair = _load_pair(args)
    m_hat_h = load_matches(args.m_hat_holdout, pair)
    m_hat_c = load_matches(args.m_hat_complete, pair) if args.m_hat_complete else None
    inp = BatchValidationInput(
        pair=pair,
        m_hat_holdout=m_hat_h,
        s_m=_load_sample(args.s_m, pair),
        s_x=tuple(read_items(args.s_x)),
        actual_for=load_matches(args.actual, pair),
        delta=_delta(args.delta),
        method=BoundMethod.parse(args.method),
        k_y=args.k_y,
        m_hat_complete=m_hat_c,
        m_size=args.m_size,
    )
    return _write_report(args, batch_reports(inp))


def cmd_validate_query(args) -> int:
    from .bounds import BoundMethod
    from .query import QueryValidationInput, compute_node_stats, query_reports

    pair = _load_pair(args)
    holdout_cfg = _read_json(args.matcher, MatcherConfig.from_json_dict)
    seeds = read_pairs(args.seeds) if args.seeds else []
    m_hat_h = run_batch(build_matcher(holdout_cfg, training_matches=seeds), pair)
    m_hat_c = None
    if args.matcher_complete or args.seeds_complete:
        complete = build_matcher(
            _read_json(args.matcher_complete, MatcherConfig.from_json_dict)
            if args.matcher_complete
            else holdout_cfg,
            read_pairs(args.seeds_complete) if args.seeds_complete else seeds,
        )
        m_hat_c = run_batch(complete, pair)
    inp = QueryValidationInput(
        pair=pair,
        m_hat_holdout=m_hat_h,
        s_x=tuple(read_items(args.s_x)),
        s_x_prime=tuple(read_items(args.s_x_prime)) if args.s_x_prime else (),
        actual_for=load_matches(args.actual, pair),
        delta=_delta(args.delta),
        method=BoundMethod.parse(args.method),
        m_hat_complete=m_hat_c,
    )
    reports = query_reports(inp)
    node_stats = compute_node_stats(inp) if args.emit_node_stats else None
    return _write_report(args, reports, node_stats)


def cmd_coverage(args) -> int:
    from .coverage import ExperimentConfig, run_coverage

    cfg = _read_json(args.config, ExperimentConfig.from_json_dict)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    table = run_coverage(cfg, jobs=args.jobs)
    csv_path = Path(args.out_prefix + ".csv")
    json_path = Path(args.out_prefix + ".json")
    csv_path.write_text(table.to_csv(), encoding="utf-8")
    json_path.write_text(table.to_json() + "\n", encoding="utf-8")
    worst = max(r.failure_rate for r in table.rows.values())
    failed = table.failed_trials
    extra = f"; {failed} of {cfg.trials} trials failed" if failed else ""
    print(f"wrote {csv_path} and {json_path}; worst failure rate {worst:.4f}{extra}")
    return EXIT_OK


def _report_lines(doc) -> list[str]:
    """The lines ``report`` prints for a saved report or coverage table."""
    if "rows" in doc:  # coverage table
        failed = doc.get("failed_trials")
        extra = f", {failed} failed trials" if failed else ""
        return [f"coverage table ({len(doc['rows'])} rows{extra})"] + [
            f"  {row['bound']} [{row['method']}] deltas={row['deltas']} "
            f"trials={row['trials']} mean_bound={row['mean_bound']:.4f} "
            f"mean_truth={row['mean_truth']:.4f} "
            f"failure_rate={row['failure_rate']:.4f}"
            for row in doc["rows"]
        ]
    lines = [f"joint confidence: {doc['joint_confidence']:.6f}"]
    for rep in doc["reports"]:
        value = rep["lower_bound"] if rep["lower_bound"] is not None else rep["upper_bound"]
        kind = ">=" if rep["lower_bound"] is not None else "<="
        flags = f" flags={','.join(rep['flags'])}" if rep["flags"] else ""
        lines.append(
            f"  {rep['bound_id']}: {rep['quantity']} {kind} {value:.6f} "
            f"at confidence {rep['confidence']:.4f}{flags}"
        )
    return lines


def cmd_report(args) -> int:
    print("\n".join(_read_json(getattr(args, "in"), _report_lines, report=True)))
    return EXIT_OK


def _gen_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="GeneratorConfig JSON file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_gen)


def _network_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--x", required=True)
    p.add_argument("--y")
    p.add_argument("--self-match", action="store_true")


def _match_arguments(p: argparse.ArgumentParser) -> None:
    _network_arguments(p)
    p.add_argument("--config", required=True, help="MatcherConfig JSON file")
    p.add_argument("--seeds", help="training seed pairs TSV")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_match)


def _split_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--items", required=True, help="one item id per line")
    p.add_argument("--population-n", type=int, required=True)
    p.add_argument("--train-size", type=int, required=True)
    p.add_argument("--validation-size", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-out", required=True)
    p.add_argument("--validation-out", required=True)
    p.set_defaults(func=cmd_split)


def _validate_arguments(p: argparse.ArgumentParser) -> None:
    vsub = p.add_subparsers(dest="validate_mode", required=True)
    _validate_batch_arguments(vsub.add_parser("batch", help="batch-matcher certificates"))
    _validate_query_arguments(vsub.add_parser("query", help="query-matcher certificates"))


def _validate_batch_arguments(b: argparse.ArgumentParser) -> None:
    _network_arguments(b)
    b.add_argument("--m-hat-holdout", required=True)
    b.add_argument("--m-hat-complete")
    b.add_argument("--s-m", required=True, help="verified match sample TSV")
    b.add_argument("--s-x", required=True, help="node sample, one id per line")
    b.add_argument("--actual", required=True, help="verified matches TSV for s-x")
    b.add_argument("--k-y", type=int, default=1)
    b.add_argument(
        "--m-size", type=int, help="|M| when known; else recall stands in k-y times |X|"
    )
    b.add_argument("--method", default="hypergeometric-exact")
    b.add_argument("--delta", default="0.05", help=DELTA_HELP)
    b.add_argument("--out")
    b.set_defaults(func=cmd_validate_batch)


def _validate_query_arguments(q: argparse.ArgumentParser) -> None:
    _network_arguments(q)
    q.add_argument("--matcher", required=True, help="holdout MatcherConfig JSON")
    q.add_argument("--matcher-complete")
    q.add_argument("--seeds")
    q.add_argument("--seeds-complete")
    q.add_argument("--s-x", required=True)
    q.add_argument(
        "--s-x-prime",
        help="optional second node sample; no certificate reads it, "
        "--emit-node-stats lists its nodes",
    )
    q.add_argument("--actual", required=True)
    q.add_argument("--method", default="hypergeometric-exact")
    q.add_argument("--delta", default="0.05", help=DELTA_HELP)
    q.add_argument("--emit-node-stats", action="store_true")
    q.add_argument("--out")
    q.set_defaults(func=cmd_validate_query)


def _coverage_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="ExperimentConfig JSON file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_coverage)


def _report_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", required=True)
    p.set_defaults(func=cmd_report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchcert",
        description="PAC certification of precision and recall for "
        "network reconciliation algorithms",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, add_arguments in (
        ("gen", "synthesize a correlated network pair", _gen_arguments),
        ("match", "run a matcher in batch mode", _match_arguments),
        ("split", "train/validation subsampling", _split_arguments),
        ("validate", "compute certificates", _validate_arguments),
        ("coverage", "Monte Carlo failure-rate experiment", _coverage_arguments),
        ("report", "pretty-print a saved report", _report_arguments),
    ):
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MatchcertError as e:
        print(f"matchcert: error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except UnicodeDecodeError as e:  # a TSV file's reason names the file
        print(f"matchcert: error: invalid-encoding: {e}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as e:
        print(f"matchcert: i/o error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
