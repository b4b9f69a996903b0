"""End-to-end checks, one per shipped guarantee.

Each test is self-contained: it builds its own data, states its tolerance
inline, and fails loudly. conftest prints one PASS/FAIL line per test.
"""
import time
import tracemalloc

import numpy as np

from pamper.cli import main
from pamper.corpus import Corpus, FeatureCatalog, parse_database, serialize_database
from pamper.evaluate import (
    EvaluationReport,
    MethodEval,
    SplitSpec,
    render_table,
    run_evaluation,
)
from pamper.recommend import (
    ModelArena,
    rank_method,
    render_explanation,
    render_rank,
    render_recommendation,
    which_method,
    why_method,
)
from pamper.preprocess import single_target_split
from pamper.synth import PlantedModel, PlantedRule, generate, zipf_imbalance
from pamper.trees import (
    Internal,
    Leaf,
    ModelSet,
    TrainConfig,
    build_tree,
    load_model,
    model_from_text,
    model_to_text,
    save_model,
    train,
    used_features,
)

from oracles import (
    brute_force_best_split,
    leaf_regions,
    make_binary_dataset,
    random_corpus,
    random_dataset,
    random_model,
)


def test_split_choice_matches_exhaustive_search():
    # 1000 random datasets, F <= 8, <= 64 points: the root split of a
    # depth-1 tree must equal an exhaustive exact-rational minimization,
    # ties to the lowest feature index, in under 5 seconds total.
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    for _ in range(1000):
        X, y = random_dataset(rng, max_points=64, max_features=8)
        tree = build_tree(make_binary_dataset(X, y), TrainConfig(max_depth=1))
        want = brute_force_best_split(y.tolist(), X.tolist())
        if want is None:
            assert isinstance(tree, Leaf)
        else:
            assert isinstance(tree, Internal)
            assert tree.feature == want[0]
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_leaf_expectations_are_region_means():
    # 200 random trees: every leaf equals its region's label mean within
    # 1e-12, and count-weighted expectations conserve the positive total
    # within 1e-9.
    rng = np.random.default_rng(103)
    for _ in range(200):
        X, y = random_dataset(rng, max_points=80, max_features=8)
        tree = build_tree(make_binary_dataset(X, y))
        weighted = 0.0
        for leaf, mask in leaf_regions(tree, X):
            region = y[mask]
            assert leaf.count == int(mask.sum())
            assert region.size == leaf.count
            if leaf.count:
                assert abs(leaf.expectation - region.mean()) <= 1e-12
            weighted += leaf.count * leaf.expectation
        assert abs(weighted - float(y.sum())) <= 1e-9


def test_planted_rule_recovery_is_exact(tmp_path):
    # Noise-free 10k corpus where feature 0 decides method a vs b: training
    # stays under 1 second and cmd_evaluate reports exactly 100% top-1
    # coincidence for both methods.
    rng = np.random.default_rng(107)
    X = rng.integers(0, 2, (10000, 6)).astype(np.uint8)
    names = tuple("a" if bit else "b" for bit in X[:, 0])
    corpus = Corpus(names, X, 6)

    started = time.perf_counter()
    train(corpus)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"training took {elapsed:.2f}s"

    db = tmp_path / "planted.txt"
    db.write_text(serialize_database(corpus), encoding="utf-8")
    out = tmp_path / "reports"
    assert main(["evaluate", str(db), "--top", "2", "--out-dir", str(out)]) == 0
    rows = (out / "report.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == 2
    for row in rows:
        cells = row.split(",")
        assert cells[0] in ("a", "b")
        assert cells[5] == "100.0"
        assert cells[6] == "100.0"


def test_rare_gated_method_is_still_found():
    # A method under 0.1% training frequency, gated on a feature nothing
    # else sets, must reach top-1 coincidence >= 90% despite feature noise.
    planted = PlantedModel(
        (
            PlantedRule({7: True}, {"rare": 1.0}, 0.001),
            PlantedRule({7: False}, zipf_imbalance(["a", "b", "c", "d"], 1.1), 0.999),
        ),
        {"a": 1.0},
        12,
        0.05,
    )
    corpus = generate(planted, 20000, seed=13)
    _, report = run_evaluation(corpus, SplitSpec(0.10, 0).held_out(len(corpus)), top_n=1)
    row = next(r for r in report.rows if r.method == "rare")
    assert row.train_pct < 0.1
    assert row.eval_count > 0
    assert row.coincidence[0] >= 90.0


def test_round_trips_are_identities():
    # 500 random corpora re-parse to equal corpora; 500 random models are
    # byte-stable once serialized.
    rng = np.random.default_rng(109)
    for _ in range(500):
        corpus = random_corpus(rng)
        assert parse_database(serialize_database(corpus)) == corpus
    for _ in range(500):
        model = random_model(rng)
        text = model_to_text(model)
        again = model_from_text(text)
        assert model_to_text(again) == text


def test_queries_are_mutually_consistent():
    # 500 random (model, vector) pairs: rank agrees with the full ordering,
    # smaller k gives prefixes of larger k, and bits outside used_features
    # never change any answer. All comparisons exact.
    rng = np.random.default_rng(113)
    for _ in range(500):
        model = random_model(rng)
        v = rng.integers(0, 2, model.feature_count).astype(np.uint8)
        total = len(model.trees)
        full = which_method(model, v, k=total)
        for pos, (name, expectation) in enumerate(full.ranked):
            rank, out_of = rank_method(model, v, name)
            assert rank == pos + 1
            assert out_of == total
        k_small = int(rng.integers(1, total + 1))
        assert which_method(model, v, k=k_small).ranked == full.ranked[:k_small]

        unused = [j for j in range(model.feature_count) if j not in used_features(model)]
        if unused:
            flipped = v.copy()
            for j in unused:
                flipped[j] ^= 1
            assert which_method(model, flipped, k=total).ranked == full.ranked
            name = full.ranked[int(rng.integers(0, total))][0]
            assert rank_method(model, flipped, name) == rank_method(model, v, name)


def test_output_formats_are_pinned():
    trees = {
        "simp": Internal(0, Leaf(0.2, 5), Leaf(0.9, 5)),
        "auto": Leaf(0.4119, 7),
        "blast": Leaf(0.05, 3),
    }
    model = ModelSet(2, trees, max_depth=1)
    rec = which_method(model, [1, 0], k=15)
    assert render_recommendation(rec) == (
        "Promising methods for this proof goal are:\n"
        "  simp with expectation of 0.9000\n"
        "  auto with expectation of 0.4119\n"
        "  blast with expectation of 0.05000"
    )
    assert render_rank("simp", *rank_method(model, [1, 0], "simp")) == "simp 1 out of 3"

    catalog = FeatureCatalog({0: "the context has locally defined assumptions"})
    explained = ModelSet(2, {"simp": trees["simp"]}, catalog, max_depth=1)
    expl = why_method(explained, [0, 0], "simp")
    assert render_explanation(expl) == (
        "Because it is not true that the context has locally defined assumptions."
    )

    report = EvaluationReport(
        rows=(
            MethodEval("simp", 6, 60.0, 3, 75.0, (100.0 / 3, 200.0 / 3)),
            MethodEval("auto", 4, 40.0, 1, 25.0, (0.0, 100.0)),
        ),
        unlearned={"blast": 1},
        total_train=10,
        total_eval=5,
        top_n=2,
    )
    assert render_table(report) == (
        "proof method  training     %  evaluation     %   1    2\n"
        "simp                 6  60.0           3  75.0  33   67\n"
        "auto                 4  40.0           1  25.0   0  100\n"
        "\n"
        "training points: 10\n"
        "evaluation points: 5\n"
        "unlearned evaluation points: 1 across 1 methods\n"
    )


def _determinism_db(tmp_path):
    planted = PlantedModel(
        (PlantedRule({0: True, 3: False}, {"simp": 0.7, "auto": 0.3}, 0.5),),
        zipf_imbalance(["blast", "metis", "induct", "fastforce"], 1.2),
        12,
        0.2,
    )
    corpus = generate(planted, 3000, seed=21)
    path = tmp_path / "det_db.txt"
    path.write_text(serialize_database(corpus), encoding="utf-8")
    return path


def test_cli_outputs_are_deterministic(tmp_path, capsys, monkeypatch):
    # Same command, same bytes: across repeat runs and across thread counts.
    db = _determinism_db(tmp_path)
    outputs = []
    for run, threads in enumerate(("1", "1", "8")):
        monkeypatch.setenv("PAMPER_THREADS", threads)
        model_path = tmp_path / f"model_{run}.txt"
        assert main(["train", str(db), str(model_path)]) == 0
        train_stdout = capsys.readouterr().out.replace(str(model_path), "MODEL")
        report_dir = tmp_path / f"reports_{run}"
        assert main(
            ["evaluate", str(db), "--seed", "3", "--top", "4",
             "--out-dir", str(report_dir)]
        ) == 0
        eval_stdout = capsys.readouterr().out.replace(str(report_dir), "DIR")
        reports = tuple(
            (report_dir / name).read_bytes()
            for name in ("report.txt", "report.csv", "fig2.csv", "fig3.csv")
        )
        outputs.append((model_path.read_bytes(), train_stdout, reports, eval_stdout))
    assert outputs[0] == outputs[1] == outputs[2]


def test_scale_and_throughput(tmp_path):
    # 169 methods, 100k points, 108 features, depth 5: train < 60 s; the
    # saved-and-reloaded model answers batch queries at >= 10k vectors/s.
    names = [f"m{i:03d}" for i in range(169)]
    planted = PlantedModel((), zipf_imbalance(names, 1.4322), 108, 0.3)
    corpus = generate(planted, 100000, seed=3)
    assert len(set(corpus.method_names)) == 169

    started = time.perf_counter()
    model = train(corpus)
    train_time = time.perf_counter() - started
    assert train_time < 60.0, f"training took {train_time:.1f}s"

    model_path = tmp_path / "big_model.txt"
    save_model(model, str(model_path))
    arena = ModelArena(load_model(str(model_path)))
    rng = np.random.default_rng(0)
    V = (rng.random((20000, 108)) < 0.3).astype(np.uint8)
    started = time.perf_counter()
    recommendations = arena.batch_which(V, k=15)
    rate = len(recommendations) / (time.perf_counter() - started)
    assert len(recommendations) == 20000
    assert rate >= 10000.0, f"only {rate:.0f} vectors/s"


def test_bounded_ingest(tmp_path):
    # The 100k x 108 x 169 scale database (22 MB) parsed from an open file
    # holds at most half the file above its feature matrix at peak (traced),
    # so the file is never held whole; the split then adds only the packed
    # columns and one packed row of label words per method.
    names = [f"m{i:03d}" for i in range(169)]
    corpus = generate(PlantedModel((), zipf_imbalance(names, 1.4322), 108, 0.3), 100000, seed=3)
    path = tmp_path / "scale.db"
    path.write_text(serialize_database(corpus), encoding="ascii")
    size = path.stat().st_size
    tracemalloc.start()
    try:
        with open(path, "rb") as handle:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            got = parse_database(handle)
            peak = tracemalloc.get_traced_memory()[1] - base
        base = tracemalloc.get_traced_memory()[0]
        datasets = list(single_target_split(got).values())
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert got == corpus
    assert peak < got.features.nbytes + size // 2, f"peak {peak} for a {size}-byte file"
    packed = datasets[0].columns.nbytes + sum(ds.words.nbytes for ds in datasets)
    assert retained < packed + 1024 * len(datasets), f"split retained {retained}, packed {packed}"
