from collections import Counter

import numpy as np
import pytest

from pamper._format import pct0, pct1, quantize_percents, round_half_away
from pamper.corpus import Corpus
from pamper.errors import (
    InvalidValueError,
    NoEvalPointsError,
    NoTrainPointsError,
    PamperError,
)
from pamper.evaluate import (
    EvaluationReport,
    MethodEval,
    SplitSpec,
    render_csv,
    render_fig2_csv,
    render_fig3_csv,
    render_table,
    run_evaluation,
)
from pamper import recommend
from pamper.recommend import rank_method
from pamper.trees import model_to_text, train

from oracles import random_corpus, reference_take, split_corpus


def _one_corpus(train_part: Corpus, eval_part: Corpus) -> tuple[Corpus, np.ndarray]:
    """The two parts as one corpus, training rows first, and the mask of its eval rows."""
    names = train_part.method_names + eval_part.method_names
    X = np.concatenate([train_part.features, eval_part.features])
    held_out = np.arange(len(names)) >= len(train_part)
    return Corpus(names, X, train_part.feature_count), held_out


def test_split_spec_validation():
    with pytest.raises(ValueError):
        SplitSpec(eval_fraction=0.0)
    with pytest.raises(ValueError):
        SplitSpec(eval_fraction=1.0)
    with pytest.raises(ValueError):
        SplitSpec(eval_fraction=-0.2)


@pytest.mark.parametrize("error", [InvalidValueError, PamperError, ValueError])
def test_split_spec_rejects_a_negative_seed(error):
    with pytest.raises(error, match="seed must be a nonnegative integer, got -1"):
        SplitSpec(eval_fraction=0.5, seed=-1)
    with pytest.raises(error, match="seed must be a nonnegative integer, got 1.0"):
        SplitSpec(seed=1.0)


def test_split_corpus_partitions_in_order():
    # The held-out mask selects exactly the rows of numpy's own PCG64 split.
    rng = np.random.default_rng(2)
    for _ in range(25):
        c = random_corpus(rng, max_points=50)
        if len(c) < 2:
            continue
        spec = SplitSpec(eval_fraction=0.3, seed=9)
        held_out = spec.held_out(len(c))
        assert held_out.dtype == np.bool_ and held_out.shape == (len(c),)
        tr, ev = split_corpus(c, spec)
        assert reference_take(c, np.flatnonzero(~held_out)) == tr
        assert reference_take(c, np.flatnonzero(held_out)) == ev


def test_split_corpus_deterministic():
    spec = SplitSpec(eval_fraction=0.25, seed=3)
    first = spec.held_out(500)
    assert np.array_equal(first, spec.held_out(500))
    assert not np.array_equal(first, SplitSpec(eval_fraction=0.25, seed=4).held_out(500))


def test_split_corpus_golden_sizes():
    assert SplitSpec(eval_fraction=0.10, seed=0).held_out(10000).sum() == 1033
    assert SplitSpec(eval_fraction=0.10, seed=7).held_out(10000).sum() == 1017


def test_split_corpus_needs_two_points():
    for n in (0, 1):
        with pytest.raises(PamperError, match="corpus must have at least 2 points to split"):
            SplitSpec().held_out(n)


def _planted_corpus(n: int, seed: int, n_feat: int = 4) -> Corpus:
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, (n, n_feat)).astype(np.uint8)
    names = tuple("a" if bit else "b" for bit in X[:, 0])
    return Corpus(names, X, n_feat)


def test_run_evaluation_planted_feature_is_perfect():
    corpus, held_out = _one_corpus(_planted_corpus(100, seed=1), _planted_corpus(40, seed=2))
    model, report = run_evaluation(corpus, held_out, top_n=2)
    assert set(model.trees) == {"a", "b"}
    assert report.total_train == 100
    assert report.total_eval == 40
    assert report.unlearned == {}
    for row in report.rows:
        assert row.coincidence[0] == 100.0
        assert row.coincidence[-1] == 100.0
    assert sum(r.eval_count for r in report.rows) == 40
    assert sum(r.eval_pct for r in report.rows) == pytest.approx(100.0)
    assert sum(r.train_pct for r in report.rows) == pytest.approx(100.0)


def test_run_evaluation_unlearned_tally():
    train = Corpus(("a", "a", "b", "b"), np.eye(4, 2, dtype=np.uint8), 2)
    ev = Corpus(
        ("a", "zap", "zap", "b"), np.zeros((4, 2), dtype=np.uint8), 2
    )
    _, report = run_evaluation(*_one_corpus(train, ev), top_n=1)
    assert report.unlearned == {"zap": 2}
    assert sum(r.eval_count for r in report.rows) + 2 == report.total_eval
    by_name = {r.method: r for r in report.rows}
    # denominator excludes unlearned points: 1 of 2 learned eval points
    assert by_name["a"].eval_pct == 50.0
    assert by_name["b"].eval_pct == 50.0


def test_run_evaluation_unlearned_only():
    train = Corpus(("a", "b"), np.eye(2, dtype=np.uint8), 2)
    ev = Corpus(("zap", "zip", "zap"), np.ones((3, 2), dtype=np.uint8), 2)
    _, report = run_evaluation(*_one_corpus(train, ev), top_n=3)
    assert report.unlearned == {"zap": 2, "zip": 1}
    for row in report.rows:
        assert (row.eval_count, row.eval_pct) == (0, 0.0)
        assert row.coincidence == (0.0, 0.0, 0.0)
    assert report.fig3 == ((1, 0, 0, 0, 0), (2, 0, 0, 0, 0), (3, 0, 0, 0, 0))


def _per_point_splits(rng):
    for _ in range(12):
        c = random_corpus(rng, max_points=80, max_features=6)
        if len(c) < 4:
            continue
        held_out = SplitSpec(eval_fraction=0.4, seed=5).held_out(len(c))
        if 0 < held_out.sum() < len(c):
            yield c, held_out
    # More known eval rows than one recommend._BLOCK_ROWS block.
    n = 3 * recommend._BLOCK_ROWS
    names = tuple(("alpha", "beta", "gamma", "delta")[i] for i in rng.integers(0, 4, n))
    c = Corpus(names, rng.integers(0, 2, (n, 6)).astype(np.uint8), 6)
    held_out = SplitSpec(eval_fraction=0.5, seed=5).held_out(n)
    assert held_out.sum() > recommend._BLOCK_ROWS
    yield c, held_out


def test_run_evaluation_matches_per_point_ranks():
    rng = np.random.default_rng(31)
    for c, held_out in _per_point_splits(rng):
        top_n = 3
        model, report = run_evaluation(c, held_out, top_n=top_n)
        tr = reference_take(c, np.flatnonzero(~held_out))
        ev = reference_take(c, np.flatnonzero(held_out))
        assert model_to_text(model) == model_to_text(train(tr))
        assert (report.total_train, report.total_eval) == (len(tr), len(ev))

        hits = {name: np.zeros(top_n, dtype=np.int64) for name in model.trees}
        counts: Counter[str] = Counter()
        unlearned: Counter[str] = Counter()
        for name, row in zip(ev.method_names, ev.features):
            if name not in model.trees:
                unlearned[name] += 1
                continue
            counts[name] += 1
            rank, _ = rank_method(model, row, name)
            if rank <= top_n:
                hits[name][rank - 1] += 1

        assert report.unlearned == dict(sorted(unlearned.items()))
        for row in report.rows:
            assert row.eval_count == counts[row.method]
            assert row.train_count == tr.method_counts[row.method]
            assert row.train_pct == 100.0 * row.train_count / len(tr)
            if row.eval_count:
                want = np.cumsum(hits[row.method]) * (100.0 / row.eval_count)
                assert row.coincidence == tuple(want.tolist())
            else:
                assert row.coincidence == (0.0,) * top_n


def test_run_evaluation_rows_sorted_and_monotone():
    rng = np.random.default_rng(33)
    for _ in range(10):
        c = random_corpus(rng, max_points=100, max_features=5)
        if len(c) < 4:
            continue
        held_out = SplitSpec(eval_fraction=0.3, seed=8).held_out(len(c))
        if not 0 < held_out.sum() < len(c):
            continue
        _, report = run_evaluation(c, held_out, top_n=4)
        keys = [(-r.train_count, r.method) for r in report.rows]
        assert keys == sorted(keys)
        for row in report.rows:
            series = row.coincidence
            assert all(a <= b + 1e-12 for a, b in zip(series, series[1:]))
            assert all(0.0 <= v <= 100.0 + 1e-9 for v in series)


def test_run_evaluation_errors():
    a = _planted_corpus(10, seed=1, n_feat=3)
    with pytest.raises(NoTrainPointsError, match="split produced no training points"):
        run_evaluation(a, np.ones(10, dtype=bool))
    with pytest.raises(NoEvalPointsError, match="split produced no evaluation points"):
        run_evaluation(a, np.zeros(10, dtype=bool))
    with pytest.raises(ValueError):
        run_evaluation(a, np.arange(10) < 3, top_n=0)


def test_run_evaluation_checks_its_mask_after_top_n_and_before_the_split():
    a = _planted_corpus(10, seed=1, n_feat=3)
    checks = [
        (np.full(10, 2), "held_out must be 0 or 1"),
        (np.zeros((2, 5), dtype=bool), "held_out must be 1-dimensional"),
        (np.zeros(9, dtype=bool), "held_out has 9 entries, the corpus has 10 points"),
    ]
    for mask, message in checks:
        with pytest.raises(ValueError, match=message):
            run_evaluation(a, mask)
        with pytest.raises(InvalidValueError, match="top_n must be a positive integer, got 0"):
            run_evaluation(a, mask, top_n=0)
    # An all-held-out mask of the wrong length is a mask error, not an empty split.
    with pytest.raises(ValueError, match="held_out has 11 entries"):
        run_evaluation(a, np.ones(11, dtype=bool))


@pytest.mark.parametrize("error", [InvalidValueError, PamperError, ValueError])
def test_run_evaluation_bounds_top_n_before_training(error, monkeypatch):
    # Two methods, so the bound is 15; nothing may be trained first.
    monkeypatch.setattr("pamper.evaluate.train", None)
    a = _planted_corpus(10, seed=1)
    held_out = np.arange(10) >= 7
    for top_n in (16, 10**18, 2**63):
        with pytest.raises(error, match=rf"top_n must be at most max\(15, methods\) = 15, got {top_n}"):
            run_evaluation(a, held_out, top_n=top_n)
    with pytest.raises(error, match="top_n must be a positive integer, got 2.5"):
        run_evaluation(a, held_out, top_n=2.5)


def test_run_evaluation_top_n_may_reach_the_method_count():
    names = tuple(f"m{i:02d}" for i in range(20)) * 3
    corpus = Corpus(names, np.zeros((len(names), 1), dtype=np.uint8), 1)
    held_out = np.arange(len(names)) >= 40  # each method has two training rows, one eval row
    _, report = run_evaluation(corpus, held_out, top_n=20)
    assert report.top_n == 20 and all(row.coincidence[-1] == 100.0 for row in report.rows)
    with pytest.raises(InvalidValueError, match=r"at most max\(15, methods\) = 20, got 21"):
        run_evaluation(corpus, held_out, top_n=21)


def test_fig2_is_training_usage_by_rank():
    tr = Corpus(
        ("a", "a", "a", "b", "c", "c"), np.zeros((6, 1), dtype=np.uint8), 1
    )
    ev = Corpus(("a",), np.zeros((1, 1), dtype=np.uint8), 1)
    _, report = run_evaluation(*_one_corpus(tr, ev), top_n=1)
    assert report.fig2 == ((1, 3), (2, 2), (3, 1))


def test_fig3_consistent_with_rows():
    rng = np.random.default_rng(35)
    for _ in range(8):
        c = random_corpus(rng, max_points=90, max_features=5)
        if len(c) < 4:
            continue
        held_out = SplitSpec(eval_fraction=0.3, seed=2).held_out(len(c))
        if not 0 < held_out.sum() < len(c):
            continue
        _, report = run_evaluation(c, held_out, top_n=3)
        tr = reference_take(c, np.flatnonzero(~held_out))
        for k, *cells in report.fig3:
            at_k = [row.coincidence[k - 1] for row in report.rows]
            want = [sum(1 for v in at_k if v >= thr) for thr in (25, 50, 75, 90)]
            assert cells == want
        assert [count for _, count in report.fig2] == sorted(tr.method_counts.values(), reverse=True)


def _golden_report() -> EvaluationReport:
    rows = (
        MethodEval("simp", 6, 60.0, 3, 75.0, (100.0 / 3, 200.0 / 3)),
        MethodEval("auto", 4, 40.0, 1, 25.0, (0.0, 100.0)),
    )
    return EvaluationReport(
        rows=rows,
        unlearned={"blast": 1},
        total_train=10,
        total_eval=5,
        top_n=2,
    )


def test_render_table_golden():
    assert render_table(_golden_report()) == (
        "proof method  training     %  evaluation     %   1    2\n"
        "simp                 6  60.0           3  75.0  33   67\n"
        "auto                 4  40.0           1  25.0   0  100\n"
        "\n"
        "training points: 10\n"
        "evaluation points: 5\n"
        "unlearned evaluation points: 1 across 1 methods\n"
    )


def test_render_csv_golden():
    assert render_csv(_golden_report()) == (
        "method,training,training_pct,evaluation,evaluation_pct,top1,top2\n"
        "simp,6,60.0,3,75.0,33.333333333333336,66.66666666666667\n"
        "auto,4,40.0,1,25.0,0.0,100.0\n"
    )


def test_render_fig_csvs_golden():
    report = _golden_report()
    assert render_fig2_csv(report) == "rank,count\n1,6\n2,4\n"
    assert render_fig3_csv(report) == "k,ge25,ge50,ge75,ge90\n1,1,0,0,0\n2,2,2,1,1\n"


def test_rounding_helpers():
    assert round_half_away(2.5) == 3.0
    assert round_half_away(3.5) == 4.0
    assert round_half_away(-2.5) == -3.0
    assert round_half_away(0.25, 1) == 0.3
    assert pct0(95.5) == "96"
    assert pct1(26.75) == "26.8"
    assert pct1(0.0) == "0.0"


def test_quantize_percents_units():
    assert quantize_percents([]) == []
    thirds = quantize_percents([100.0 / 3] * 3)
    assert sum(round(v * 10) for v in thirds) == 1000
    assert sorted(thirds) == [33.3, 33.3, 33.4]
    assert thirds[0] == 33.4
    sevenths = quantize_percents([100.0 / 7] * 7)
    assert sum(round(v * 10) for v in sevenths) == 1000
    assert all(abs(v - 100.0 / 7) < 0.1 for v in sevenths)
    assert quantize_percents([60.0, 40.0]) == [60.0, 40.0]
    # a column that does not cover the whole rounds independently
    assert quantize_percents([50.0, 25.0]) == [50.0, 25.0]
