"""Held-out evaluation: the held-out mask and top-n coincidence rates.

A corpus is split point-wise at random, a model is trained on the large
part, and every held-out point asks: at what rank does the method actually
used appear in the recommendation? The top-n coincidence rate of a method
is the percentage of its held-out points whose true method ranked n or
better. Methods seen only in evaluation cannot be ranked and are tallied
separately as unlearned. Method columns are looked up once per ``vocab`` name.

The split is a boolean mask over the one parsed corpus (``SplitSpec.held_out``).
Training runs on a packed copy of the other rows (``Corpus._take``), a bit
per flag, and the held-out feature rows that get ranked are unpacked.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _pcg64
from ._format import pct0, pct1, quantize_percents
from .corpus import Corpus
from .errors import (
    InvalidValueError,
    NoEvalPointsError,
    NoTrainPointsError,
    PamperError,
    _as_row_mask,
    _check_int,
)
from .recommend import ModelArena
from .trees import ModelSet, TrainConfig, train

_FIG3_THRESHOLDS = (25, 50, 75, 90)


@dataclass(frozen=True)
class SplitSpec:
    """A deterministic per-point Bernoulli split, drawn by ``held_out``.

    Row i of an n-point corpus is held out for evaluation when the i-th of
    n draws of numpy's ``Generator(PCG64(seed)).random(n)`` is below
    ``eval_fraction``, so the same corpus and seed give the same partition
    on any platform. The draws are computed by ``pamper._pcg64``, which
    gives that stream bit for bit without importing ``numpy.random``.
    """

    eval_fraction: float = 0.10
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.eval_fraction < 1.0:
            raise InvalidValueError(f"eval_fraction must lie in (0, 1), got {self.eval_fraction!r}")
        _check_int("seed", self.seed, 0)

    def held_out(self, n: int) -> np.ndarray:
        """The boolean mask of the rows an n-point corpus holds out for evaluation."""
        if n < 2:
            raise PamperError("corpus must have at least 2 points to split")
        return _pcg64.below(int(self.seed), n, self.eval_fraction)


@dataclass(frozen=True)
class MethodEval:
    """One report row; percents are exact, renderers round them."""

    method: str
    train_count: int
    train_pct: float
    eval_count: int
    eval_pct: float
    coincidence: tuple[float, ...]


@dataclass(frozen=True)
class EvaluationReport:
    """Report rows, sorted by training count descending, ties by name.

    The two figure tables are computed from the rows, so a report cannot
    carry figures that contradict them: ``fig2`` (``fig2.csv``) is
    ``(rank, training count)`` in row order, and ``fig3`` (``fig3.csv``) is
    ``(k, methods at or above 25/50/75/90 percent top-k coincidence)`` for
    each k up to ``top_n``.
    """

    rows: tuple[MethodEval, ...]
    unlearned: dict[str, int]
    total_train: int
    total_eval: int
    top_n: int

    @property
    def fig2(self) -> tuple[tuple[int, int], ...]:
        return tuple(enumerate((row.train_count for row in self.rows), start=1))

    @property
    def fig3(self) -> tuple[tuple[int, int, int, int, int], ...]:
        def at_least(k: int, threshold: int) -> int:
            return sum(row.coincidence[k - 1] >= threshold for row in self.rows)

        return tuple(
            (k, *(at_least(k, thr) for thr in _FIG3_THRESHOLDS)) for k in range(1, self.top_n + 1)
        )


def run_evaluation(
    corpus: Corpus,
    held_out,
    cfg: TrainConfig | None = None,
    top_n: int = 15,
) -> tuple[ModelSet, EvaluationReport]:
    """Train on the corpus rows outside ``held_out``, score coincidence rates on the rows in it.

    ``held_out`` is a boolean mask over the corpus (``_as_row_mask``), such
    as ``SplitSpec.held_out(len(corpus))`` draws. ``train`` grows the model
    from a corpus of the other rows, packed a block at a time
    (``Corpus._take``). Returns the model and the report. Eval points of
    methods never seen in training are counted under ``unlearned`` and
    excluded from the coincidence math; per-method eval counts plus the
    unlearned total always add up to the held-out count. Every known eval
    point is ranked in one ``ModelArena.batch_rank`` call, which holds one
    ``_BLOCK_ROWS`` block of (rows, methods) expectations at a time.
    ``top_n`` may not exceed the larger of 15 and the training method count.
    """
    _check_int("top_n", top_n, 1)
    held_out = _as_row_mask("held_out", held_out, len(corpus))
    eval_rows = np.flatnonzero(held_out)
    total_eval = eval_rows.size
    total_train = len(corpus) - total_eval
    if total_train == 0:
        raise NoTrainPointsError()
    if total_eval == 0:
        raise NoEvalPointsError()
    training = corpus._take(np.flatnonzero(~held_out))
    train_count = training.method_counts
    limit = max(15, len(train_count))  # no rank exceeds the method count
    if top_n > limit:
        raise InvalidValueError(f"top_n must be at most max(15, methods) = {limit}, got {top_n}")

    model = train(training, cfg)
    del training  # the copy is not held while the held-out rows are ranked
    arena = ModelArena(model)
    methods = arena.names
    col_of = model.columns
    vocab = corpus.vocab
    vocab_cols = np.array([col_of.get(name, -1) for name in vocab], dtype=np.intp)
    eval_codes = corpus.codes[eval_rows]
    cols = vocab_cols[eval_codes]
    eval_by_name = zip(vocab, np.bincount(eval_codes, minlength=len(vocab)).tolist())
    unlearned = {m: n for m, n in eval_by_name if n and m not in col_of}
    known = cols >= 0
    known_cols = cols[known]
    ranks = arena.batch_rank(corpus.feature_rows(eval_rows[known]), known_cols)
    eval_counts = np.bincount(known_cols, minlength=len(methods))
    rank_hits = np.zeros((len(methods), top_n), dtype=np.int64)
    hit = ranks <= top_n
    np.add.at(rank_hits, (known_cols[hit], ranks[hit] - 1), 1)

    # Scaling by the rounded reciprocal is the pinned form (100.0 * hits / ec can differ
    # by one ulp). A method with no eval points has no hits, so its row is all 0.0.
    coincidence = np.cumsum(rank_hits, axis=1) * (100.0 / np.maximum(eval_counts, 1))[:, None]
    learned = max(known_cols.size, 1)  # with no learned eval point every eval count is 0
    rows = sorted(
        (
            MethodEval(name, train_count[name], 100.0 * train_count[name] / total_train,
                       ec, 100.0 * ec / learned, tuple(series))
            for name, ec, series in zip(methods, eval_counts.tolist(), coincidence.tolist())
        ),
        key=lambda r: (-r.train_count, r.method),
    )
    report = EvaluationReport(tuple(rows), unlearned, total_train, total_eval, top_n)
    return model, report


def render_table(report: EvaluationReport) -> str:
    """Fixed-column text table, then a short summary block.

    Columns: method, training count, training percent, eval count, eval
    percent, then one top-n coincidence column per n. Percent columns are
    quantized to one decimal so each sums back to 100; coincidence rates are
    per-method figures and round independently, halves away from zero. Rows
    come sorted by training count descending, ties by name.
    """
    headers = ["proof method", "training", "%", "evaluation", "%"] + [
        str(n) for n in range(1, report.top_n + 1)
    ]
    train_pcts = quantize_percents([row.train_pct for row in report.rows])
    eval_pcts = quantize_percents([row.eval_pct for row in report.rows])
    body = [
        [row.method, str(row.train_count), pct1(tp), str(row.eval_count), pct1(ep)]
        + [pct0(c) for c in row.coincidence]
        for row, tp, ep in zip(report.rows, train_pcts, eval_pcts)
    ]
    widths = [max(map(len, column)) for column in zip(headers, *body)]

    def fmt(cells: list[str]) -> str:
        rest = [cell.rjust(width) for cell, width in zip(cells[1:], widths[1:])]
        return "  ".join([cells[0].ljust(widths[0])] + rest).rstrip()

    summary = [
        "",
        f"training points: {report.total_train}",
        f"evaluation points: {report.total_eval}",
        f"unlearned evaluation points: {sum(report.unlearned.values())}"
        f" across {len(report.unlearned)} methods",
    ]
    return "\n".join([fmt(cells) for cells in [headers, *body]] + summary) + "\n"


def _csv(header, rows) -> str:
    """One comma-separated line per cell sequence; ``str`` of a float is its repr."""
    return "".join(",".join(map(str, cells)) + "\n" for cells in [header, *rows])


def render_csv(report: EvaluationReport) -> str:
    """Same rows as the table, full precision, comma-separated."""
    header = ["method", "training", "training_pct", "evaluation", "evaluation_pct"]
    header += [f"top{n}" for n in range(1, report.top_n + 1)]
    return _csv(header, (
        (row.method, row.train_count, row.train_pct, row.eval_count, row.eval_pct, *row.coincidence)
        for row in report.rows
    ))


def render_fig2_csv(report: EvaluationReport) -> str:
    """Training-split usage by rank: how often the r-th most common method occurs."""
    return _csv(("rank", "count"), report.fig2)


def render_fig3_csv(report: EvaluationReport) -> str:
    """Methods at or above 25/50/75/90 percent coincidence, per top-n cutoff."""
    return _csv(("k", *(f"ge{thr}" for thr in _FIG3_THRESHOLDS)), report.fig3)
