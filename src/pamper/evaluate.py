"""Held-out evaluation: train/eval splitting and top-n coincidence rates.

A corpus is split point-wise at random, a model is trained on the large
part, and every held-out point asks: at what rank does the method actually
used appear in the recommendation? The top-n coincidence rate of a method
is the percentage of its held-out points whose true method ranked n or
better. Methods seen only in evaluation cannot be ranked and are tallied
separately as unlearned.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ._format import pct0, pct1, quantize_percents
from .corpus import Corpus
from .errors import (
    FeatureWidthMismatchError,
    InvalidValueError,
    NoEvalPointsError,
    NoTrainPointsError,
    PamperError,
)
from .recommend import ModelArena
from .trees import ModelSet, TrainConfig, _check_int, train

_FIG3_THRESHOLDS = (25, 50, 75, 90)


@dataclass(frozen=True)
class SplitSpec:
    eval_fraction: float = 0.10
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.eval_fraction < 1.0:
            raise InvalidValueError(f"eval_fraction must lie in (0, 1), got {self.eval_fraction!r}")
        _check_int("seed", self.seed, 0)


def split_corpus(corpus: Corpus, spec: SplitSpec) -> tuple[Corpus, Corpus]:
    """Deterministic per-point Bernoulli split into (train, eval).

    Uses the PCG64 generator seeded with spec.seed, one uniform draw per
    point in corpus order, so the same corpus and seed always produce the
    same exact partition on any platform.
    """
    n = len(corpus)
    if n < 2:
        raise PamperError("corpus must have at least 2 points to split")
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    draws = rng.random(n)
    eval_mask = draws < spec.eval_fraction
    return (
        corpus.take(np.flatnonzero(~eval_mask)),
        corpus.take(np.flatnonzero(eval_mask)),
    )


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
    rows: tuple[MethodEval, ...]
    unlearned: dict[str, int]
    total_train: int
    total_eval: int
    top_n: int
    fig2: tuple[tuple[int, int], ...] = field(default_factory=tuple)
    fig3: tuple[tuple[int, int, int, int, int], ...] = field(default_factory=tuple)


def run_evaluation(
    train_corpus: Corpus,
    eval_corpus: Corpus,
    cfg: TrainConfig | None = None,
    top_n: int = 15,
) -> tuple[ModelSet, EvaluationReport]:
    """Train on one corpus, score coincidence rates on the other.

    Returns the trained model and the report. Eval points of methods never
    seen in training are counted under ``unlearned`` and excluded from the
    coincidence math; per-method eval counts plus the unlearned total always
    add up to the eval corpus size. Every known eval point is ranked in one
    ``ModelArena.batch_rank`` call, which holds one ``_BLOCK_ROWS`` block of
    (rows, methods) expectations at a time. Training uses the thread count
    that ``PAMPER_THREADS`` sets (see ``resolve_threads``).
    ``top_n`` may not exceed the larger of 15 and the training method count.
    """
    _check_int("top_n", top_n, 1)
    if train_corpus.feature_count != eval_corpus.feature_count:
        raise FeatureWidthMismatchError(
            eval_corpus.feature_count, train_corpus.feature_count
        )
    if len(train_corpus) == 0:
        raise NoTrainPointsError()
    if len(eval_corpus) == 0:
        raise NoEvalPointsError()
    limit = max(15, len(train_corpus.method_counts))  # no rank exceeds the method count
    if top_n > limit:
        raise InvalidValueError(f"top_n must be at most max(15, methods) = {limit}, got {top_n}")

    model = train(train_corpus, cfg)
    arena = ModelArena(model)
    methods = arena.names
    col_of = {name: t for t, name in enumerate(methods)}

    eval_names = eval_corpus.method_names
    unlearned = Counter(name for name in eval_names if name not in col_of)
    cols = np.array([col_of.get(name, -1) for name in eval_names], dtype=np.int64)
    known = cols >= 0
    known_cols = cols[known]
    ranks = arena.batch_rank(eval_corpus.features[known], known_cols)
    eval_counts = np.bincount(known_cols, minlength=len(methods))
    rank_hits = np.zeros((len(methods), top_n), dtype=np.int64)
    hit = ranks <= top_n
    np.add.at(rank_hits, (known_cols[hit], ranks[hit] - 1), 1)

    total_train = len(train_corpus)
    total_eval = len(eval_corpus)
    learned_eval_total = known_cols.size
    train_counts = train_corpus.method_counts

    rows = []
    for t, name in enumerate(methods):
        tc = train_counts[name]
        ec = int(eval_counts[t])
        if ec:
            cumulative = np.cumsum(rank_hits[t]) * (100.0 / ec)
            coincidence = tuple(cumulative.tolist())
        else:
            coincidence = (0.0,) * top_n
        rows.append(
            MethodEval(
                method=name,
                train_count=tc,
                train_pct=100.0 * tc / total_train,
                eval_count=ec,
                eval_pct=(100.0 * ec / learned_eval_total) if learned_eval_total else 0.0,
                coincidence=coincidence,
            )
        )
    rows.sort(key=lambda r: (-r.train_count, r.method))

    fig2 = tuple(
        (rank, count)
        for rank, count in enumerate(
            sorted(train_counts.values(), reverse=True), start=1
        )
    )
    fig3 = []
    for k in range(1, top_n + 1):
        at_k = [row.coincidence[k - 1] for row in rows]
        fig3.append(
            (k,)
            + tuple(sum(1 for c in at_k if c >= thr) for thr in _FIG3_THRESHOLDS)
        )

    report = EvaluationReport(
        rows=tuple(rows),
        unlearned=dict(sorted(unlearned.items())),
        total_train=total_train,
        total_eval=total_eval,
        top_n=top_n,
        fig2=fig2,
        fig3=tuple(fig3),
    )
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
    body = []
    for row, tp, ep in zip(report.rows, train_pcts, eval_pcts):
        body.append(
            [row.method, str(row.train_count), pct1(tp), str(row.eval_count), pct1(ep)]
            + [pct0(c) for c in row.coincidence]
        )
    widths = [len(h) for h in headers]
    for cells in body:
        for i, cell in enumerate(cells):
            widths[i] = max(widths[i], len(cell))
    lines = []

    def fmt(cells: list[str]) -> str:
        first = cells[0].ljust(widths[0])
        rest = [cell.rjust(widths[i + 1]) for i, cell in enumerate(cells[1:])]
        return ("  ".join([first] + rest)).rstrip()

    lines.append(fmt(headers))
    for cells in body:
        lines.append(fmt(cells))
    lines.append("")
    lines.append(f"training points: {report.total_train}")
    lines.append(f"evaluation points: {report.total_eval}")
    lines.append(
        f"unlearned evaluation points: {sum(report.unlearned.values())}"
        f" across {len(report.unlearned)} methods"
    )
    return "\n".join(lines) + "\n"


def render_csv(report: EvaluationReport) -> str:
    """Same rows as the table, full precision, comma-separated."""
    header = ["method", "training", "training_pct", "evaluation", "evaluation_pct"]
    header += [f"top{n}" for n in range(1, report.top_n + 1)]
    lines = [",".join(header)]
    for row in report.rows:
        cells = [
            row.method,
            str(row.train_count),
            repr(row.train_pct),
            str(row.eval_count),
            repr(row.eval_pct),
        ]
        cells += [repr(c) for c in row.coincidence]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def render_fig2_csv(report: EvaluationReport) -> str:
    """Training-split usage by rank: how often the r-th most common method occurs."""
    lines = ["rank,count"]
    for rank, count in report.fig2:
        lines.append(f"{rank},{count}")
    return "\n".join(lines) + "\n"


def render_fig3_csv(report: EvaluationReport) -> str:
    """Methods at or above 25/50/75/90 percent coincidence, per top-n cutoff."""
    lines = ["k,ge25,ge50,ge75,ge90"]
    for k, ge25, ge50, ge75, ge90 in report.fig3:
        lines.append(f"{k},{ge25},{ge50},{ge75},{ge90}")
    return "\n".join(lines) + "\n"
