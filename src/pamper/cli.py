"""Command-line interface.

Exit codes: 0 on success, 2 for usage or input problems (bad flags,
unreadable files, malformed records, unknown methods, width mismatches),
1 for unexpected internal errors. argparse checks only flag syntax (an
unknown flag, a missing argument, a number that does not parse). A flag's
range is checked once, by the library object that takes the value
(``TrainConfig``, ``SplitSpec``, ``run_evaluation``, ``write_which``,
``generate``), whose InvalidValueError exits 2 as one ``pamper:`` line.
Query vectors are written in the database's bracket syntax, either inline
(``[1,0,1]``) or as a file with one vector per line. PAMPER_THREADS, the
only thread setting, sets the training workers of train and evaluate (0
or unset = one per usable CPU); a value that is not a nonnegative integer
exits 2.

The argparse parser is built once per process, on the first ``main``
call. ``main`` then runs the function ``cmd_<command>`` that this module
holds at call time, so a rebound ``cmd_*`` is the one that runs.
``evaluate`` and ``gen`` import their modules when they run, so the
other commands never load them. ``evaluate`` holds out row i of the
database when the i-th draw of numpy's ``Generator(PCG64(seed)).random(n)``
is below ``--fraction``, computed by ``pamper._pcg64`` without importing
``numpy.random``, and trains on the other rows of the one parsed corpus.
"""
from __future__ import annotations

import argparse
import errno
import functools
import json
import os
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
    write_database,
)
from .errors import PamperError
from .recommend import (
    batch_rank_method,
    batch_why_method,
    render_explanation,
    render_rank,
    write_which,
)
from .trees import (
    ModelSet,
    TrainConfig,
    _row_stats,
    load_model,
    save_model,
    train,
    used_features,
)


def _read_bytes(path: str) -> bytes:
    # open() takes the raw string, so "" fails as no such file; Path("") would be ".".
    with open(path, "rb") as handle:
        return handle.read()


def _read_database(path: str):
    """The corpus of a database file, read through an open handle so it is never held whole."""
    with open(path, "rb") as handle:
        return parse_database(handle)


_REPORT_FILES = ("report.txt", "report.csv", "fig2.csv", "fig3.csv")


def _check_out_dir(path: str) -> None:
    """Raise the OSError that making ``path`` or writing a report in it would, creating nothing.

    A report file that is a directory fails here, before any file is written.
    """
    try:
        os.stat(path)
    except FileNotFoundError:
        if path:  # makedirs creates it
            return
        raise
    if not os.path.isdir(path):
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), path)
    for name in _REPORT_FILES:
        target = Path(path) / name
        if target.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))


def _attach_catalog(model: ModelSet, catalog_path: str | None) -> ModelSet:
    if catalog_path is None:
        return model
    return model.with_catalog(parse_feature_catalog(_read_bytes(catalog_path), model.feature_count))


def _read_vectors(source: str, feature_count: int) -> np.ndarray:
    if source.lstrip().startswith("["):
        return parse_vector(source, feature_count)[None, :]
    with open(source, "rb") as handle:
        vectors = parse_vectors(handle, feature_count)
    if not len(vectors):
        raise PamperError(f"no vectors found in {source}")
    return vectors


def _print_model_summary(model: ModelSet, points: int | None = None) -> None:
    counts = f"methods: {len(model.trees)}"
    if points is not None:
        counts += f"  points: {points}"
    counts += f"  features: {model.feature_count}  depth limit: {model.max_depth}"
    print(counts)
    for name, rows in zip(model.trees, model.trees.rows):
        stats = _row_stats(rows)
        print(f"  {name}: depth={stats.depth} splits={stats.internal} leaves={stats.leaves}")


def cmd_train(args) -> int:
    cfg = TrainConfig(max_depth=args.max_depth, min_points_to_split=args.min_split)
    corpus = _read_database(args.database)
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
    write_which(model, vectors, sys.stdout, args.k, as_json=args.json)
    return 0


def cmd_rank(args) -> int:
    model = load_model(args.model)
    vectors = _read_vectors(args.vector, model.feature_count)
    ranks, total = batch_rank_method(model, vectors, args.method)
    lines = [
        json.dumps({"method": args.method, "rank": rank, "total": total})
        if args.json
        else render_rank(args.method, rank, total)
        for rank in ranks.tolist()
    ]
    sys.stdout.write("".join(line + "\n" for line in lines))
    return 0


def cmd_why(args) -> int:
    model = _attach_catalog(load_model(args.model), args.catalog)
    vectors = _read_vectors(args.vector, model.feature_count)
    answer, explanations = batch_why_method(model, vectors, args.method)
    lines = []
    for expl in explanations:
        if args.json:
            steps = [step._asdict() for step in expl.steps]
            record = {"method": expl.method, "expectation": expl.expectation, "steps": steps}
            lines.append(json.dumps(record) + "\n")
        else:
            lines.append(render_explanation(expl) + "\n")
    sys.stdout.write("".join([lines[i] for i in answer.tolist()]))
    return 0


def cmd_evaluate(args) -> int:
    from .evaluate import (
        SplitSpec, render_csv, render_fig2_csv, render_fig3_csv, render_table, run_evaluation,
    )

    spec = SplitSpec(eval_fraction=args.fraction, seed=args.seed)
    cfg = TrainConfig(max_depth=args.max_depth, min_points_to_split=args.min_split)
    _check_out_dir(args.out_dir)
    corpus = _read_database(args.database)
    _, report = run_evaluation(corpus, spec.held_out(len(corpus)), cfg, top_n=args.top)
    os.makedirs(args.out_dir, exist_ok=True)
    out_dir = Path(args.out_dir)
    table = render_table(report)
    texts = (table, render_csv(report), render_fig2_csv(report), render_fig3_csv(report))
    for name, text in zip(_REPORT_FILES, texts):
        (out_dir / name).write_text(text, encoding="utf-8", newline="\n")
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
    from .synth import generate, parse_planted_config

    model = parse_planted_config(_read_bytes(args.config))
    corpus = generate(model, args.n, args.seed)
    if args.output is None:
        write_database(corpus, sys.stdout)
        return 0
    with open(args.output, "w", encoding="utf-8", newline="\n") as handle:
        write_database(corpus, handle)
    print(f"{len(corpus)} points written to {args.output}")
    return 0


def cmd_stats(args) -> int:
    corpus = _read_database(args.database)
    rows = corpus_stats(corpus)
    shown = quantize_percents([r[2] for r in rows])
    name_width = max(len("method"), max(len(r[0]) for r in rows))
    count_width = max(len("count"), max(len(str(r[1])) for r in rows))
    print(f"{'method'.ljust(name_width)}  {'count'.rjust(count_width)}  percent")
    for (name, count, _), percent in zip(rows, shown):
        print(f"{name.ljust(name_width)}  {str(count).rjust(count_width)}  {pct1(percent).rjust(7)}")
    print(f"total points: {len(corpus)}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pamper",
        description="Train, query, and evaluate proof-method recommendation trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a database")
    p.add_argument("database")
    p.add_argument("model", help="output model path")
    p.add_argument("--max-depth", type=int, default=5)
    p.add_argument("--min-split", type=int, default=2, help="smallest node worth splitting")

    p = sub.add_parser("which", help="rank methods for a proof state")
    p.add_argument("model")
    p.add_argument("vector", help="[1,0,...] literal or a file with one vector per line")
    p.add_argument("-k", type=int, default=15, help="entries to print")
    p.add_argument("--json", action="store_true", help="JSON lines, full precision")

    p = sub.add_parser("why", help="explain one method's expectation")
    p.add_argument("model")
    p.add_argument("vector")
    p.add_argument("method")
    p.add_argument("--catalog", help="feature catalog for readable sentences")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("rank", help="rank of one method for a proof state")
    p.add_argument("model")
    p.add_argument("vector")
    p.add_argument("method")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("evaluate", help="hold out a split and score coincidence rates")
    p.add_argument("database")
    p.add_argument("--fraction", type=float, default=0.10, help="evaluation fraction")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--top", type=int, default=15, help="largest rank, at most max(15, methods)")
    p.add_argument("--out-dir", default=".", help="where report files go")
    p.add_argument("--max-depth", type=int, default=5)
    p.add_argument("--min-split", type=int, default=2)

    p = sub.add_parser("prune", help="list the feature indices the model branches on")
    p.add_argument("model")
    p.add_argument("--catalog")

    p = sub.add_parser("gen", help="generate a synthetic database from a planted config")
    p.add_argument("config")
    p.add_argument("n", type=int, help="number of points")
    p.add_argument("seed", type=int)
    p.add_argument("-o", "--output", help="write here instead of stdout")

    p = sub.add_parser("stats", help="method usage summary of a database")
    p.add_argument("database")

    p = sub.add_parser("inspect", help="show a model's header and tree sizes")
    p.add_argument("model")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
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
