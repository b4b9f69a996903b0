from collections import Counter

import numpy as np
import pytest

from pamper._format import pct0, pct1, quantize_percents, round_half_away
from pamper.corpus import Corpus
from pamper.errors import (
    FeatureWidthMismatchError,
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
    split_corpus,
)
from pamper import recommend
from pamper.recommend import rank_method

from oracles import random_corpus


def _flat_corpus(n: int) -> Corpus:
    X = np.zeros((n, 1), dtype=np.uint8)
    return Corpus(("m",) * n, X, 1)


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
    rng = np.random.default_rng(2)
    for _ in range(25):
        c = random_corpus(rng, max_points=50)
        if len(c) < 2:
            continue
        tr, ev = split_corpus(c, SplitSpec(eval_fraction=0.3, seed=9))
        assert len(tr) + len(ev) == len(c)
        merged = sorted(
            [(name, row.tolist(), "t") for name, row in zip(tr.method_names, tr.features)]
            + [(name, row.tolist(), "e") for name, row in zip(ev.method_names, ev.features)],
            key=lambda item: (item[0], item[1]),
        )
        original = sorted(
            (name, row.tolist()) for name, row in zip(c.method_names, c.features)
        )
        assert [(n, r) for n, r, _ in merged] == original


def test_split_corpus_deterministic():
    c = _flat_corpus(500)
    spec = SplitSpec(eval_fraction=0.25, seed=3)
    tr1, ev1 = split_corpus(c, spec)
    tr2, ev2 = split_corpus(c, spec)
    assert tr1 == tr2
    assert ev1 == ev2
    _, ev3 = split_corpus(c, SplitSpec(eval_fraction=0.25, seed=4))
    assert len(ev3) != len(ev1) or ev3 != ev1


def test_split_corpus_golden_sizes():
    c = _flat_corpus(10000)
    _, ev0 = split_corpus(c, SplitSpec(eval_fraction=0.10, seed=0))
    assert len(ev0) == 1033
    _, ev7 = split_corpus(c, SplitSpec(eval_fraction=0.10, seed=7))
    assert len(ev7) == 1017


def test_split_corpus_needs_two_points():
    with pytest.raises(PamperError):
        split_corpus(_flat_corpus(1), SplitSpec())


def _planted_corpus(n: int, seed: int, n_feat: int = 4) -> Corpus:
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, (n, n_feat)).astype(np.uint8)
    names = tuple("a" if bit else "b" for bit in X[:, 0])
    return Corpus(names, X, n_feat)


def test_run_evaluation_planted_feature_is_perfect():
    model, report = run_evaluation(
        _planted_corpus(100, seed=1), _planted_corpus(40, seed=2), top_n=2
    )
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
    _, report = run_evaluation(train, ev, top_n=1)
    assert report.unlearned == {"zap": 2}
    assert sum(r.eval_count for r in report.rows) + 2 == report.total_eval
    by_name = {r.method: r for r in report.rows}
    # denominator excludes unlearned points: 1 of 2 learned eval points
    assert by_name["a"].eval_pct == 50.0
    assert by_name["b"].eval_pct == 50.0


def test_run_evaluation_unlearned_only():
    train = Corpus(("a", "b"), np.eye(2, dtype=np.uint8), 2)
    ev = Corpus(("zap", "zip", "zap"), np.ones((3, 2), dtype=np.uint8), 2)
    _, report = run_evaluation(train, ev, top_n=3)
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
        tr, ev = split_corpus(c, SplitSpec(eval_fraction=0.4, seed=5))
        if len(tr) and len(ev):
            yield tr, ev
    # More known eval rows than one recommend._BLOCK_ROWS block.
    n = 3 * recommend._BLOCK_ROWS
    names = tuple(("alpha", "beta", "gamma", "delta")[i] for i in rng.integers(0, 4, n))
    c = Corpus(names, rng.integers(0, 2, (n, 6)).astype(np.uint8), 6)
    tr, ev = split_corpus(c, SplitSpec(eval_fraction=0.5, seed=5))
    assert len(ev) > recommend._BLOCK_ROWS
    yield tr, ev


def test_run_evaluation_matches_per_point_ranks():
    rng = np.random.default_rng(31)
    for tr, ev in _per_point_splits(rng):
        top_n = 3
        model, report = run_evaluation(tr, ev, top_n=top_n)

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
        tr, ev = split_corpus(c, SplitSpec(eval_fraction=0.3, seed=8))
        if len(tr) == 0 or len(ev) == 0:
            continue
        _, report = run_evaluation(tr, ev, top_n=4)
        keys = [(-r.train_count, r.method) for r in report.rows]
        assert keys == sorted(keys)
        for row in report.rows:
            series = row.coincidence
            assert all(a <= b + 1e-12 for a, b in zip(series, series[1:]))
            assert all(0.0 <= v <= 100.0 + 1e-9 for v in series)


def test_run_evaluation_errors():
    a = _planted_corpus(10, seed=1, n_feat=3)
    b = _planted_corpus(10, seed=2, n_feat=4)
    with pytest.raises(FeatureWidthMismatchError):
        run_evaluation(a, b)
    empty = a.take([])
    with pytest.raises(NoTrainPointsError):
        run_evaluation(empty, a)
    with pytest.raises(NoEvalPointsError):
        run_evaluation(a, empty)
    with pytest.raises(ValueError):
        run_evaluation(a, a, top_n=0)


@pytest.mark.parametrize("error", [InvalidValueError, PamperError, ValueError])
def test_run_evaluation_bounds_top_n_before_training(error, monkeypatch):
    # Two methods, so the bound is 15; nothing may be trained first.
    monkeypatch.setattr("pamper.evaluate.train", None)
    a = _planted_corpus(10, seed=1)
    for top_n in (16, 10**18, 2**63):
        with pytest.raises(error, match=rf"top_n must be at most max\(15, methods\) = 15, got {top_n}"):
            run_evaluation(a, a, top_n=top_n)
    with pytest.raises(error, match="top_n must be a positive integer, got 2.5"):
        run_evaluation(a, a, top_n=2.5)


def test_run_evaluation_top_n_may_reach_the_method_count():
    names = tuple(f"m{i:02d}" for i in range(20)) * 3
    corpus = Corpus(names, np.zeros((len(names), 1), dtype=np.uint8), 1)
    _, report = run_evaluation(corpus, corpus, top_n=20)
    assert report.top_n == 20 and all(row.coincidence[-1] == 100.0 for row in report.rows)
    with pytest.raises(InvalidValueError, match=r"at most max\(15, methods\) = 20, got 21"):
        run_evaluation(corpus, corpus, top_n=21)


def test_fig2_is_training_usage_by_rank():
    tr = Corpus(
        ("a", "a", "a", "b", "c", "c"), np.zeros((6, 1), dtype=np.uint8), 1
    )
    ev = Corpus(("a",), np.zeros((1, 1), dtype=np.uint8), 1)
    _, report = run_evaluation(tr, ev, top_n=1)
    assert report.fig2 == ((1, 3), (2, 2), (3, 1))


def test_fig3_consistent_with_rows():
    rng = np.random.default_rng(35)
    for _ in range(8):
        c = random_corpus(rng, max_points=90, max_features=5)
        if len(c) < 4:
            continue
        tr, ev = split_corpus(c, SplitSpec(eval_fraction=0.3, seed=2))
        if len(tr) == 0 or len(ev) == 0:
            continue
        _, report = run_evaluation(tr, ev, top_n=3)
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
