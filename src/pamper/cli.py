"""Command-line interface.

Exit codes: 0 on success, 2 for usage or input problems (bad flags,
unreadable files, malformed records, unknown methods, width mismatches),
1 for unexpected internal errors. Query vectors are written in the
database's bracket syntax, either inline (``[1,0,1]``) or as a file with
one vector per line. PAMPER_THREADS, the only thread setting, sets the
training workers of train and evaluate (0 or unset = one per CPU); a
value that is not a nonnegative integer exits 2.
"""
from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

import numpy as np

from ._format import pct1, quantize_percents
from .corpus import (
    corpus_stats,
    parse_database,
    parse_feature_catalog,
    parse_vector,
    parse_vectors,
    serialize_database,
)
from .errors import PamperError
from .evaluate import (
    SplitSpec,
    render_csv,
    render_fig2_csv,
    render_fig3_csv,
    render_table,
    run_evaluation,
    split_corpus,
)
from .recommend import (
    ModelArena,
    rank_method,
    render_explanation,
    render_rank,
    render_recommendation,
    why_method,
)
from .synth import generate, parse_planted_config
from .trees import (
    ModelSet,
    TrainConfig,
    load_model,
    save_model,
    train,
    tree_stats,
    used_features,
)


def _read_corpus(path: str):
    return parse_database(Path(path).read_bytes())


def _attach_catalog(model: ModelSet, catalog_path: str | None) -> ModelSet:
    if not catalog_path:
        return model
    catalog = parse_feature_catalog(Path(catalog_path).read_bytes(), model.feature_count)
    return ModelSet(model.feature_count, dict(model.trees), catalog, model.max_depth)


def _read_vectors(source: str, feature_count: int) -> np.ndarray:
    if source.lstrip().startswith("["):
        return parse_vector(source, feature_count)[None, :]
    vectors = parse_vectors(Path(source).read_bytes(), feature_count)
    if not len(vectors):
        raise PamperError(f"no vectors found in {source}")
    return vectors


def _print_model_summary(model: ModelSet, points: int | None = None) -> None:
    counts = f"methods: {len(model.trees)}"
    if points is not None:
        counts += f"  points: {points}"
    counts += f"  features: {model.feature_count}  depth limit: {model.max_depth}"
    print(counts)
    for name, tree in model.trees.items():
        stats = tree_stats(tree)
        print(f"  {name}: depth={stats.depth} splits={stats.internal} leaves={stats.leaves}")


def cmd_train(args) -> int:
    corpus = _read_corpus(args.database)
    cfg = TrainConfig(max_depth=args.max_depth, min_points_to_split=args.min_split)
    model = train(corpus, cfg)
    save_model(model, args.model)
    print(f"model written to {args.model}")
    _print_model_summary(model, points=len(corpus))
    return 0


def cmd_inspect(args) -> int:
    model = load_model(args.model)
    _print_model_summary(model)
    return 0


def cmd_which(args) -> int:
    model = load_model(args.model)
    vectors = _read_vectors(args.vector, model.feature_count)
    for rec in ModelArena(model).batch_which(vectors, args.k):
        if args.json:
            print(
                json.dumps(
                    {
                        "ranked": [
                            {"method": name, "expectation": expectation}
                            for name, expectation in rec.ranked
                        ],
                        "total_methods": rec.total_methods,
                    }
                )
            )
        else:
            print(render_recommendation(rec))
    return 0


def cmd_rank(args) -> int:
    model = load_model(args.model)
    vectors = _read_vectors(args.vector, model.feature_count)
    for vector in vectors:
        rank, total = rank_method(model, vector, args.method)
        if args.json:
            print(json.dumps({"method": args.method, "rank": rank, "total": total}))
        else:
            print(render_rank(args.method, rank, total))
    return 0


def cmd_why(args) -> int:
    model = _attach_catalog(load_model(args.model), args.catalog)
    vectors = _read_vectors(args.vector, model.feature_count)
    for vector in vectors:
        expl = why_method(model, vector, args.method)
        if args.json:
            print(
                json.dumps(
                    {
                        "method": expl.method,
                        "expectation": expl.expectation,
                        "steps": [
                            {
                                "feature": step.feature,
                                "value": step.value,
                                "description": step.description,
                            }
                            for step in expl.steps
                        ],
                    }
                )
            )
        else:
            print(render_explanation(expl))
    return 0


def cmd_evaluate(args) -> int:
    corpus = _read_corpus(args.database)
    train_part, eval_part = split_corpus(
        corpus, SplitSpec(eval_fraction=args.fraction, seed=args.seed)
    )
    cfg = TrainConfig(max_depth=args.max_depth, min_points_to_split=args.min_split)
    _, report = run_evaluation(train_part, eval_part, cfg, top_n=args.top)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table = render_table(report)
    (out_dir / "report.txt").write_text(table, encoding="utf-8", newline="\n")
    (out_dir / "report.csv").write_text(render_csv(report), encoding="utf-8", newline="\n")
    (out_dir / "fig2.csv").write_text(render_fig2_csv(report), encoding="utf-8", newline="\n")
    (out_dir / "fig3.csv").write_text(render_fig3_csv(report), encoding="utf-8", newline="\n")
    print(table, end="")
    print(f"report files written to {out_dir}")
    return 0


def cmd_prune(args) -> int:
    model = _attach_catalog(load_model(args.model), args.catalog)
    for index in sorted(used_features(model)):
        description = model.catalog.descriptions.get(index)
        print(f"{index}\t{description}" if description else str(index))
    return 0


def cmd_gen(args) -> int:
    model = parse_planted_config(Path(args.config).read_bytes())
    corpus = generate(model, args.n, args.seed)
    text = serialize_database(corpus)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8", newline="\n")
        print(f"{len(corpus)} points written to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_stats(args) -> int:
    corpus = _read_corpus(args.database)
    rows = corpus_stats(corpus)
    shown = quantize_percents([r[2] for r in rows])
    name_width = max(len("method"), max(len(r[0]) for r in rows))
    count_width = max(len("count"), max(len(str(r[1])) for r in rows))
    print(f"{'method'.ljust(name_width)}  {'count'.rjust(count_width)}  percent")
    for (name, count, _), percent in zip(rows, shown):
        print(f"{name.ljust(name_width)}  {str(count).rjust(count_width)}  {pct1(percent).rjust(7)}")
    print(f"total points: {len(corpus)}")
    return 0


def _int_at_least(low: int):
    """argparse type for an integer flag with a lower bound."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _open_fraction(text: str) -> float:
    """argparse type for a fraction strictly between 0 and 1."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must be strictly between 0 and 1, got {text}")
    return value


_POSITIVE = _int_at_least(1)
_NONNEGATIVE = _int_at_least(0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pamper",
        description="Train, query, and evaluate proof-method recommendation trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a database")
    p.add_argument("database")
    p.add_argument("model", help="output model path")
    p.add_argument("--max-depth", type=_POSITIVE, default=5)
    p.add_argument("--min-split", type=_POSITIVE, default=2, help="smallest node worth splitting")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("which", help="rank methods for a proof state")
    p.add_argument("model")
    p.add_argument("vector", help="[1,0,...] literal or a file with one vector per line")
    p.add_argument("-k", type=_POSITIVE, default=15, help="entries to print")
    p.add_argument("--json", action="store_true", help="JSON lines, full precision")
    p.set_defaults(func=cmd_which)

    p = sub.add_parser("why", help="explain one method's expectation")
    p.add_argument("model")
    p.add_argument("vector")
    p.add_argument("method")
    p.add_argument("--catalog", help="feature catalog for readable sentences")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_why)

    p = sub.add_parser("rank", help="rank of one method for a proof state")
    p.add_argument("model")
    p.add_argument("vector")
    p.add_argument("method")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("evaluate", help="hold out a split and score coincidence rates")
    p.add_argument("database")
    p.add_argument("--fraction", type=_open_fraction, default=0.10, help="evaluation fraction")
    p.add_argument("--seed", type=_NONNEGATIVE, default=0)
    p.add_argument("--top", type=_POSITIVE, default=15, help="largest rank reported")
    p.add_argument("--out-dir", default=".", help="where report files go")
    p.add_argument("--max-depth", type=_POSITIVE, default=5)
    p.add_argument("--min-split", type=_POSITIVE, default=2)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("prune", help="list the feature indices the model branches on")
    p.add_argument("model")
    p.add_argument("--catalog")
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("gen", help="generate a synthetic database from a planted config")
    p.add_argument("config")
    p.add_argument("n", type=int, help="number of points")
    p.add_argument("seed", type=_NONNEGATIVE)
    p.add_argument("-o", "--output", help="write here instead of stdout")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("stats", help="method usage summary of a database")
    p.add_argument("database")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("inspect", help="show a model's header and tree sizes")
    p.add_argument("model")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PamperError, OSError) as exc:
        print(f"pamper: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
