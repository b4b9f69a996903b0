import io
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pamper import _kernels, trees
from pamper.corpus import Corpus, FeatureCatalog, parse_database
from pamper.errors import (
    BadIndexError,
    EmptyDatasetError,
    InvalidValueError,
    ModelParseError,
    PamperError,
)
from pamper.evaluate import run_evaluation
from pamper.preprocess import single_target_split
from pamper.recommend import rank_method, why_method
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
    tree_stats,
    used_features,
)

from cli_helpers import run_main
from oracles import (
    brute_force_best_split,
    leaf_regions,
    make_binary_dataset,
    random_corpus,
    random_dataset,
    random_model,
    ranking,
    reference_build_tree,
    reference_node_table,
    reference_take,
    reference_tree_text,
    tree_depth as reference_tree_depth,
    walk_tree,
)


# --- root split choice ---

def _stump(X, y):
    """The depth-1 tree: its root is the best split, or a leaf when none helps."""
    return build_tree(make_binary_dataset(X, y), TrainConfig(max_depth=1))


def test_root_split_perfect_feature():
    # feature 2 separates the labels exactly
    X = np.array([[0, 1, 1], [1, 0, 1], [0, 0, 0], [1, 1, 0]], np.uint8)
    y = np.array([1, 1, 0, 0], np.uint8)
    assert _stump(X, y) == Internal(2, Leaf(0.0, 2), Leaf(1.0, 2))


def test_root_split_none_when_pure():
    X = np.array([[0, 1], [1, 0]], np.uint8)
    y = np.array([1, 1], np.uint8)
    assert _stump(X, y) == Leaf(1.0, 2)


def test_root_split_tie_goes_to_lowest_feature():
    # features 0 and 1 induce identical partitions; 2 is useless
    X = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 0], [0, 0, 0]], np.uint8)
    y = np.array([1, 1, 0, 0], np.uint8)
    assert _stump(X, y) == Internal(0, Leaf(0.0, 2), Leaf(1.0, 2))


def test_root_split_matches_exact_oracle():
    rng = np.random.default_rng(31337)
    for _ in range(250):
        X, y = random_dataset(rng)
        tree = _stump(X, y)
        want = brute_force_best_split(y.tolist(), X.tolist())
        assert getattr(tree, "feature", None) == (None if want is None else want[0])


# --- build_tree ---

def test_build_tree_pure_labels_leaf():
    X = np.array([[0], [1]], np.uint8)
    y = np.array([1, 1], np.uint8)
    tree = build_tree(make_binary_dataset(X, y))
    assert tree == Leaf(1.0, 2)


def test_build_tree_perfect_two_leaf_split():
    X = np.array([[1], [1], [0], [0]], np.uint8)
    y = np.array([1, 1, 0, 0], np.uint8)
    tree = build_tree(make_binary_dataset(X, y), TrainConfig(max_depth=2))
    assert tree == Internal(0, Leaf(0.0, 2), Leaf(1.0, 2))


def test_build_tree_depth_one_limit():
    rng = np.random.default_rng(11)
    for _ in range(30):
        X, y = random_dataset(rng)
        tree = build_tree(make_binary_dataset(X, y), TrainConfig(max_depth=1))
        if isinstance(tree, Internal):
            assert isinstance(tree.when_false, Leaf)
            assert isinstance(tree.when_true, Leaf)


def test_build_tree_min_points_to_split():
    X = np.array([[1], [0], [1]], np.uint8)
    y = np.array([1, 0, 1], np.uint8)
    tree = build_tree(make_binary_dataset(X, y), TrainConfig(min_points_to_split=4))
    assert isinstance(tree, Leaf)
    assert tree.count == 3


def test_build_tree_empty_dataset():
    empty = make_binary_dataset(np.zeros((0, 2), np.uint8), np.zeros(0, np.uint8))
    with pytest.raises(EmptyDatasetError):
        build_tree(empty)


def test_build_tree_matches_the_whole_tree_oracle():
    # Every node, not just the root: the grown tree equals the exact recursive grower's.
    rng = np.random.default_rng(2024)
    for _ in range(300):
        X, y = random_dataset(rng)
        cfg = TrainConfig(int(rng.integers(1, 5)), int(rng.integers(1, 7)))
        assert build_tree(make_binary_dataset(X, y), cfg) == reference_build_tree(X, y, cfg)


def test_build_tree_deterministic():
    rng = np.random.default_rng(8)
    X, y = random_dataset(rng, max_points=200, max_features=12)
    ds = make_binary_dataset(X, y)
    assert build_tree(ds) == build_tree(ds)


def _node_rss_fraction(y_bits):
    pos = sum(y_bits)
    n = len(y_bits)
    if n == 0:
        return Fraction(0)
    return Fraction(pos * (n - pos), n)


def test_tree_invariants_property():
    # leaf means, conservation, depth bound, monotone RSS improvement
    rng = np.random.default_rng(20240501)
    for _ in range(120):
        X, y = random_dataset(rng, max_points=120, max_features=10)
        cfg = TrainConfig(max_depth=int(rng.integers(1, 6)))
        tree = build_tree(make_binary_dataset(X, y), cfg)
        assert tree_stats(tree).depth <= cfg.max_depth
        total = 0.0
        seen = 0
        for leaf, mask in leaf_regions(tree, X):
            members = y[mask]
            if leaf.count == 0:
                continue
            assert leaf.count == int(mask.sum())
            assert abs(leaf.expectation - members.mean()) <= 1e-12
            total += leaf.count * leaf.expectation
            seen += leaf.count
        assert seen == len(y)
        assert abs(total - int(y.sum())) <= 1e-9
        _assert_children_improve(tree, y, X, np.ones(len(y), dtype=bool))


def _assert_children_improve(node, y, X, mask):
    if isinstance(node, Leaf):
        return
    here = _node_rss_fraction(y[mask].tolist())
    bit = X[:, node.feature] != 0
    false_mask = mask & ~bit
    true_mask = mask & bit
    below = _node_rss_fraction(y[false_mask].tolist()) + _node_rss_fraction(
        y[true_mask].tolist()
    )
    assert below < here
    _assert_children_improve(node.when_false, y, X, false_mask)
    _assert_children_improve(node.when_true, y, X, true_mask)


# --- train ---

def test_train_single_method_leaf():
    c = parse_database("simp, [1]\nsimp, [0]\n")
    model = train(c)
    assert dict(model.trees) == {"simp": Leaf(1.0, 2)}


def test_train_two_methods_mirrored_trees():
    c = parse_database("a, [1]\na, [1]\nb, [0]\nb, [0]\n")
    model = train(c)
    assert model.trees["a"] == Internal(0, Leaf(0.0, 2), Leaf(1.0, 2))
    assert model.trees["b"] == Internal(0, Leaf(1.0, 2), Leaf(0.0, 2))


def test_train_grows_every_tree_through_build_tree(monkeypatch):
    grow = trees.build_tree
    calls = []

    def counting(dataset, cfg=None):
        calls.append(dataset.method)
        return grow(dataset, cfg)

    monkeypatch.setattr(trees, "build_tree", counting)
    c = parse_database("a, [1]\nb, [0]\nc, [1]\n")
    for threads in ("1", "2"):
        monkeypatch.setenv("PAMPER_THREADS", threads)
        calls.clear()
        train(c)
        assert sorted(calls) == ["a", "b", "c"]


def test_train_rejects_empty_corpus():
    empty = reference_take(parse_database("a, [1]\n"), [])
    with pytest.raises(EmptyDatasetError, match="corpus has no points"):
        train(empty)


def test_train_thread_counts_agree(monkeypatch):
    rng = np.random.default_rng(77)
    rows = []
    for i in range(300):
        method = ("alpha", "beta", "gamma", "delta")[int(rng.integers(0, 4))]
        bits = ",".join(str(int(b)) for b in rng.integers(0, 2, 6))
        rows.append(f"{method}, [{bits}]")
    c = parse_database("\n".join(rows) + "\n")
    models = []
    for threads in ("1", "8"):
        monkeypatch.setenv("PAMPER_THREADS", threads)
        models.append(train(c))
    assert models[0] == models[1]


@pytest.mark.parametrize("value", [None, "0", " "])
def test_unset_threads_mean_one_worker_per_usable_cpu(monkeypatch, value):
    # Under an affinity mask of one CPU on a larger host, training starts one
    # worker, not one per CPU of the host.
    if value is None:
        monkeypatch.delenv("PAMPER_THREADS", raising=False)
    else:
        monkeypatch.setenv("PAMPER_THREADS", value)
    monkeypatch.setattr(trees.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(trees.os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert trees.resolve_threads() == 1
    assert trees.resolve_threads(None) == 1
    monkeypatch.delattr(trees.os, "sched_getaffinity")  # a platform without it
    assert trees.resolve_threads() == 64
    monkeypatch.setenv("PAMPER_THREADS", "3")
    assert trees.resolve_threads() == 3


def _masked_training_cases(rng):
    for _ in range(30):
        c = random_corpus(rng, max_points=120, max_features=8)
        yield c, rng.random(len(c)) < rng.uniform(0.2, 0.9), TrainConfig(int(rng.integers(1, 6)))
    rules = (
        PlantedRule({3: True, 5: False}, {"intro": 0.7, "auto": 0.3}, 0.2),
        PlantedRule({7: True}, {"rare": 1.0}, 0.01),
    )
    planted = PlantedModel(rules, zipf_imbalance(["simp", "auto", "blast", "metis"], 1.1), 12, 0.05)
    c = generate(planted, 3000, seed=3)
    yield c, rng.random(len(c)) < 0.9, TrainConfig()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_training_on_a_row_mask_is_training_on_a_copy_of_the_rows(threads, monkeypatch):
    # Corpus._take packs the rows that run_evaluation trains on; the model is the one
    # trained on a corpus built from just those rows.
    monkeypatch.setenv("PAMPER_THREADS", threads)
    rng = np.random.default_rng(79)
    for c, rows, cfg in _masked_training_cases(rng):
        if not rows.any():
            continue
        idx = np.flatnonzero(rows)
        want = model_to_text(train(reference_take(c, idx), cfg))
        assert model_to_text(train(c._take(idx), cfg)) == want
        if not rows.all():
            model, _ = run_evaluation(c, ~rows, cfg)
            assert model_to_text(model) == want


def _tested(node, depth, cfg) -> bool:
    """Whether growth ran the split search on a node: every split did; a leaf did if no stop rule held."""
    if isinstance(node, Internal):
        return True
    pos = round(node.expectation * node.count)
    return depth < cfg.max_depth and node.count >= cfg.min_points_to_split and 0 < pos < node.count


@pytest.mark.parametrize("threads", ["1", "2"])
def test_growth_counts_each_tested_node_once_and_derives_true_children(threads, monkeypatch):
    # The when_true child of a split whose when_false child was tested is handed its
    # n_true as the parent's minus the sibling's; every other tested node counts in full.
    monkeypatch.setenv("PAMPER_THREADS", threads)
    count = _kernels.node_counts
    calls = []

    def spy(Xp, yp, mask, n_true=None):
        full = np.bitwise_count(Xp & mask).sum(axis=1, dtype=np.int64)
        calls.append(None if n_true is None else n_true.tolist() == full.tolist())
        return count(Xp, yp, mask, n_true)

    monkeypatch.setattr(_kernels, "node_counts", spy)
    rng = np.random.default_rng(83)
    lone_true_children = 0
    for case in range(60):
        c = random_corpus(rng, max_points=200, max_features=8)
        if case % 2:  # a sub-corpus of some rows, as run_evaluation trains on
            rows = np.flatnonzero(rng.random(len(c)) < rng.uniform(0.3, 1.0))
            if not rows.size:
                continue
            c = c._take(rows)
        cfg = TrainConfig(int(rng.integers(1, 6)), int(rng.integers(1, 30)))
        calls.clear()
        model = train(c, cfg)
        tested = derived = 0
        stack = [(tree, 0) for tree in model.trees.values()]
        while stack:
            node, depth = stack.pop()
            tested += _tested(node, depth, cfg)
            if isinstance(node, Internal):
                false_tested = _tested(node.when_false, depth + 1, cfg)
                true_tested = _tested(node.when_true, depth + 1, cfg)
                derived += false_tested and true_tested
                lone_true_children += true_tested and not false_tested
                stack += ((node.when_false, depth + 1), (node.when_true, depth + 1))
        assert len(calls) == tested
        assert calls.count(True) == derived and False not in calls
    assert lone_true_children  # some true children counted in full beside a stopped sibling


def test_single_target_split_labels_every_row_by_its_code():
    c = parse_database("a, [1,0]\nb, [0,1]\na, [1,1]\nc, [0,0]\n")
    split = single_target_split(c)
    assert list(split) == list(c.vocab)
    for code, dataset in enumerate(split.values()):
        assert dataset.labels.tolist() == (c.codes == code).astype(np.uint8).tolist()


def test_model_set_rejects_catalog_out_of_range():
    with pytest.raises(BadIndexError):
        ModelSet(1, {"a": Leaf(1.0, 1)}, FeatureCatalog({5: "nope"}))


def test_train_keeps_catalog_and_depth():
    c = parse_database("a, [1,0]\n")
    model = train(c, TrainConfig(max_depth=3))
    assert model.max_depth == 3
    assert model.feature_count == 2


# --- used_features / tree_stats ---

def test_used_features_leaf_only_empty():
    model = ModelSet(4, {"a": Leaf(0.5, 2)}, max_depth=1)
    assert used_features(model) == set()


def test_used_features_collects_branches():
    tree = Internal(0, Leaf(0.0, 1), Internal(7, Leaf(0.0, 1), Leaf(1.0, 1)))
    model = ModelSet(8, {"a": tree}, max_depth=2)
    assert used_features(model) == {0, 7}


def test_pruned_vector_equivalence_property():
    rng = np.random.default_rng(555)
    for _ in range(60):
        model = random_model(rng)
        kept = used_features(model)
        v = rng.integers(0, 2, model.feature_count).astype(np.uint8)
        w = v.copy()
        for j in range(model.feature_count):
            if j not in kept:
                w[j] ^= 1
        for tree in model.trees.values():
            assert walk_tree(tree, v) == walk_tree(tree, w)


def test_tree_stats():
    tree = Internal(0, Leaf(0.0, 1), Internal(1, Leaf(0.0, 1), Leaf(1.0, 1)))
    assert tree_stats(tree) == (2, 3, 2)
    assert tree_stats(Leaf(1.0, 4)) == (0, 1, 0)


# --- serialization ---

def test_model_text_one_leaf_round_trip():
    model = model_from_text("pamper-model v1 features=3 depth=5\nsimp\tL(1,4)\n")
    assert model.trees["simp"] == Leaf(1.0, 4)
    assert model.feature_count == 3
    assert model.max_depth == 5
    assert model_to_text(model) == "pamper-model v1 features=3 depth=5\nsimp\tL(1.0,4)\n"


def test_model_text_nested_round_trip():
    text = "pamper-model v1 features=2 depth=5\nm\tN(0,L(0.0,2),L(1.0,2))\n"
    assert model_to_text(model_from_text(text)) == text


def test_model_text_crlf_accepted():
    model = model_from_text("pamper-model v1 features=1 depth=1\r\na\tL(0.5,2)\r\n")
    assert model.trees["a"] == Leaf(0.5, 2)


@pytest.mark.parametrize(
    "text,line_no",
    [
        ("not a header\n", 1),
        ("pamper-model v2 features=1 depth=1\n", 1),
        ("pamper-model v1 features=0 depth=1\n", 1),
        ("pamper-model v1 features=1 depth=1\nm N(0,L(0,1),L(1,1))\n", 2),
        ("pamper-model v1 features=1 depth=1\nm\tN(0,L(0,2)\n", 2),
        ("pamper-model v1 features=1 depth=1\nm\tL(2,1)\n", 2),
        ("pamper-model v1 features=1 depth=1\nm\tL(0.5,-1)\n", 2),
        ("pamper-model v1 features=1 depth=1\nm\tL(0.5,1)x\n", 2),
        ("pamper-model v1 features=1 depth=1\nm\tN(3,L(0,1),L(1,1))\n", 2),
        ("pamper-model v1 features=1 depth=1\na\tL(1,1)\na\tL(1,1)\n", 3),
        ("pamper-model v1 features=1 depth=1\nbad name\tL(1,1)\n", 2),
        (
            "pamper-model v1 features=1 depth=1\n"
            "m\tN(0,N(0,L(0,1),L(1,1)),L(1,1))\n",
            2,
        ),
    ],
)
def test_model_parse_errors(text, line_no):
    with pytest.raises(ModelParseError) as info:
        model_from_text(text)
    assert info.value.line_no == line_no


def test_model_parse_error_on_non_utf8_bytes():
    with pytest.raises(ModelParseError) as info:
        model_from_text(b"pamper-model v1 features=1 depth=1\na\tL(1,1)\nb\tL(\xff,1)\n")
    assert info.value.line_no == 3
    assert "not valid UTF-8" in str(info.value)


def test_model_header_with_too_many_digits_is_a_parse_error():
    with pytest.raises(ModelParseError) as info:
        model_from_text("pamper-model v1 features=" + "9" * 5000 + " depth=1\n")
    assert info.value.line_no == 1


def _chain(depth: int, leaf: Leaf) -> Internal:
    # Built bottom-up, so no recursion is needed at any depth.
    node = leaf
    for feature in reversed(range(depth)):
        node = Internal(feature, node, Leaf(0.25, 2))
    return node


def test_deep_trees_walk_without_recursion():
    depth = 5000
    tree = _chain(depth, Leaf(0.5, 1))
    assert tree_stats(tree) == (depth, depth + 1, depth)
    model = ModelSet(depth, {"m": tree}, max_depth=depth)
    assert used_features(model) == set(range(depth))
    text = model_to_text(model)
    again = model_from_text(text)
    assert model_to_text(again) == text
    assert tree_stats(again.trees["m"]) == (depth, depth + 1, depth)
    with pytest.raises(ValueError, match="depth limit"):
        ModelSet(depth, {"m": tree}, max_depth=depth - 1)
    # why and rank step the node table: 5000 steps in chain order, no recursion.
    ranked = ModelSet(depth, {"m": tree, "a": Leaf(0.375, 3)}, max_depth=depth)
    last_set = np.zeros(depth, dtype=np.uint8)
    last_set[-1] = 1
    for bits, leaf in ((np.zeros(depth, dtype=np.uint8), 0.5), (last_set, 0.25)):
        expl = why_method(ranked, bits, "m")
        assert [(step.feature, step.value) for step in expl.steps] == [
            (feature, bool(bits[feature])) for feature in range(depth)
        ]
        assert expl.expectation == leaf
        names = [name for name, _ in ranking(ranked, bits.tolist())]
        assert rank_method(ranked, bits, "m") == (1 + names.index("m"), 2)


def test_deep_models_compare_without_recursion():
    depth = 3000
    model = ModelSet(depth, {"m": _chain(depth, Leaf(0.5, 1))}, max_depth=depth)
    same = ModelSet(depth, {"m": _chain(depth, Leaf(0.5, 1))}, max_depth=depth)
    assert model == same
    for deepest in (Leaf(0.5, 2), Leaf(0.75, 1)):
        other = ModelSet(depth, {"m": _chain(depth, deepest)}, max_depth=depth)
        assert model != other


def test_deep_nodes_compare_hash_and_print_without_recursion():
    depth = 3000
    tree = _chain(depth, Leaf(0.5, 1))
    same = _chain(depth, Leaf(0.5, 1))
    assert tree == same
    assert hash(tree) == hash(same)
    assert tree != _chain(depth, Leaf(0.5, 2))
    assert tree != "not a node"
    text = model_to_text(ModelSet(depth, {"m": tree}, max_depth=depth))
    assert text.endswith(f"\t{tree!r}\n")


def test_model_equality_checks_names_shape_and_fields():
    tree = Internal(0, Leaf(0.0, 1), Leaf(1.0, 1))
    model = ModelSet(2, {"a": tree, "b": Leaf(0.5, 2)})
    assert model == ModelSet(2, {"b": Leaf(0.5, 2), "a": tree})
    assert model != ModelSet(2, {"a": tree, "c": Leaf(0.5, 2)})
    assert model != ModelSet(2, {"a": Internal(1, Leaf(0.0, 1), Leaf(1.0, 1)), "b": Leaf(0.5, 2)})
    assert model != ModelSet(2, {"a": Leaf(0.5, 2), "b": tree})
    assert model != ModelSet(2, {"a": tree, "b": Internal(0, Leaf(0.5, 1), Leaf(0.5, 1))})


def _fields(node):
    """A tree as nested tuples of its field values, the structural reading of equality."""
    if isinstance(node, Leaf):
        return ("L", node.expectation, node.count)
    return ("N", node.feature, _fields(node.when_false), _fields(node.when_true))


@pytest.mark.parametrize("values", [None, (0.0, 0.5, 1.0), (0.5,)], ids=["uniform", "ties", "one"])
def test_equality_is_text_equality_property(values):
    # Small seeds and small models, so that equal pairs are common.
    rng = np.random.default_rng(1729)
    equal_pairs = 0
    for _ in range(80):
        a, b = (
            random_model(np.random.default_rng(int(rng.integers(0, 5))), 3, 2, values)
            for _ in range(2)
        )
        same_text = model_to_text(a) == model_to_text(b)
        assert (a == b) is same_text
        assert same_text == (
            (a.feature_count, a.max_depth, {k: _fields(t) for k, t in a.trees.items()})
            == (b.feature_count, b.max_depth, {k: _fields(t) for k, t in b.trees.items()})
        )
        equal_pairs += same_text
        for x in a.trees.values():
            for y in b.trees.values():
                assert (x == y) is (_fields(x) == _fields(y))
                if x == y:
                    assert hash(x) == hash(y)
        for m in (a, b):
            assert model_from_text(model_to_text(m)) == m
    assert 10 <= equal_pairs < 80


@pytest.mark.parametrize(
    "build,field",
    [
        (lambda: ModelSet(2, {"a": Leaf(np.float64(0.5), 2)}), "expectation"),
        (lambda: ModelSet(2, {"a": Leaf(np.float32(0.5), 2)}), "expectation"),
        (lambda: ModelSet(2, {"a": Leaf(1, 2)}), "expectation"),
        (lambda: ModelSet(2, {"a": Leaf(0.5, True)}), "count"),
        (lambda: ModelSet(2, {"a": Leaf(0.5, 2.0)}), "count"),
        (lambda: ModelSet(2, {"a": Internal(True, Leaf(0.0, 1), Leaf(1.0, 1))}), "feature"),
        (lambda: ModelSet(2, {"a": Leaf(0.5, 2)}, max_depth=2.5), "max_depth"),
        (lambda: ModelSet(True, {"a": Leaf(0.5, 2)}), "feature count must be an integer, got True"),
        (lambda: ModelSet(2.0, {}), "feature count must be an integer, got 2.0"),
        (lambda: ModelSet(0, {}), "feature count must be positive"),
        (lambda: TrainConfig(max_depth=2.5), "max_depth"),
    ],
    ids=[
        "float64-expectation", "float32-expectation", "int-expectation", "bool-count",
        "float-count", "bool-feature", "float-max_depth", "bool-feature_count",
        "float-feature_count", "zero-feature_count", "train-config-float-max_depth",
    ],
)
def test_only_values_written_as_loadable_text_are_admitted(build, field):
    with pytest.raises(ValueError, match=field):
        build()


LEAVES = (Leaf(0.0, 1), Leaf(1.0, 1))


@pytest.mark.parametrize(
    "trees,max_depth,error,message",
    [
        ({"a": Internal(0, Internal(1, *LEAVES), LEAVES[1])}, 1, ValueError,
         "tree exceeds depth limit 1"),
        ({"a": Internal(2, *LEAVES)}, 5, ValueError, "feature must be an int in [0, 2), got 2"),
        ({"a": Internal(-1, *LEAVES)}, 5, ValueError, "feature must be an int in [0, 2), got -1"),
        ({"a": Internal("0", *LEAVES)}, 5, ValueError, "feature must be an int in [0, 2), got '0'"),
        ({"a": Leaf(0.5, -1)}, 5, ValueError, "count must be a nonnegative int, got -1"),
        ({"a": Leaf(float("nan"), 1)}, 5, ValueError,
         "expectation must be a float in [0, 1], got nan"),
        ({"a": Internal(0, LEAVES[0], Leaf(1.5, 1))}, 5, ValueError,
         "expectation must be a float in [0, 1], got 1.5"),
        ({"a": Internal(0, "y", LEAVES[1])}, 5, TypeError, "not a tree node: 'y'"),
        ({"a": LEAVES[0], "b": "y"}, 5, TypeError, "not a tree node: 'y'"),
    ],
    ids=[
        "depth-limit", "feature-past-count", "feature-minus-one", "str-feature",
        "negative-count", "nan-expectation", "expectation-above-one", "non-node-child",
        "non-node-root",
    ],
)
def test_node_input_errors_are_pinned(trees, max_depth, error, message):
    with pytest.raises(error) as info:
        ModelSet(2, trees, max_depth=max_depth)
    assert (type(info.value), str(info.value)) == (error, message)


@pytest.mark.parametrize("error", [InvalidValueError, PamperError, ValueError])
def test_train_config_admits_only_integer_counts(error):
    with pytest.raises(error, match="min_points_to_split must be a positive integer, got 2.5"):
        TrainConfig(min_points_to_split=2.5)
    with pytest.raises(error, match="max_depth must be a positive integer, got 0"):
        TrainConfig(max_depth=0)


def test_numpy_integers_are_admitted_and_signed_zeros_differ():
    i64 = np.int64
    plain = ModelSet(2, {"a": Internal(1, Leaf(0.5, 2), Leaf(1.0, 1))}, max_depth=1)
    model = ModelSet(
        i64(2), {"a": Internal(i64(1), Leaf(0.5, i64(2)), Leaf(1.0, 1))}, max_depth=i64(1)
    )
    assert model_to_text(model) == model_to_text(plain)
    assert model == plain == model_from_text(model_to_text(model))
    assert hash(model.trees["a"]) == hash(plain.trees["a"])
    # Equal as numbers, but written as different text.
    assert Leaf(-0.0, 1) != Leaf(0.0, 1)


def _frame_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_train_grows_chains_deeper_than_the_recursion_limit(monkeypatch):
    monkeypatch.setenv("PAMPER_THREADS", "1")
    # Row i sets only bit i and labels alternate, so each split peels off one
    # "a" row: both trees are chains n/2 deep on features 0, 2, 4, ...
    n = 600
    corpus = Corpus(tuple("ab"[i % 2] for i in range(n)), np.eye(n, dtype=np.uint8), n)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 100)
    try:
        model = train(corpus, TrainConfig(max_depth=n))
    finally:
        sys.setrecursionlimit(limit)
    want = {}
    for name, peeled, rest in (("a", 1.0, 0.0), ("b", 0.0, 1.0)):
        node = Leaf(rest, n // 2)
        for feature in reversed(range(0, n, 2)):
            node = Internal(feature, node, Leaf(peeled, 1))
        want[name] = node
    assert tree_stats(model.trees["a"]) == (n // 2, n // 2 + 1, n // 2)
    assert model_to_text(model) == model_to_text(ModelSet(n, want, max_depth=n))


def test_growing_a_chain_holds_no_counts_for_its_pending_leaves(monkeypatch):
    # Each split of the one-hot chain leaves a one-row when_true leaf pending
    # beside a tested when_false child. A pending node holds counts only if it
    # will be tested, so growth holds one node's counts at a time, not one
    # feature-wide array per level (600 levels x 1200 int64 = 5.8 MB).
    monkeypatch.setenv("PAMPER_THREADS", "1")
    n = 1200
    corpus = Corpus(tuple("ab"[i % 2] for i in range(n)), np.eye(n, dtype=np.uint8), n)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model = train(corpus, TrainConfig(max_depth=2 * n))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert tree_stats(model.trees["a"]) == (n // 2, n // 2 + 1, n // 2)
    assert peak < 3_000_000, f"traced peak {peak}"


def test_model_save_load_identity_property():
    rng = np.random.default_rng(90210)
    for _ in range(120):
        model = random_model(rng)
        text = model_to_text(model)
        again = model_from_text(text)
        assert again == model
        assert model_to_text(again) == text


def test_save_and_load_paths_and_files(tmp_path):
    rng = np.random.default_rng(3)
    model = random_model(rng)
    path = tmp_path / "model.txt"
    save_model(model, path)
    assert load_model(path) == model
    buf = io.StringIO()
    save_model(model, buf)
    assert load_model(io.StringIO(buf.getvalue())) == model
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode("utf-8").startswith("pamper-model v1 ")


def test_trained_model_survives_round_trip():
    c = parse_database("a, [1,0]\na, [1,1]\nb, [0,1]\nb, [0,0]\nb, [1,1]\n")
    model = train(c)
    assert model_from_text(model_to_text(model)) == model


# --- loading straight into the node table ---

H1 = "pamper-model v1 features=1 depth=1\n"
H2 = "pamper-model v1 features=2 depth=2\n"


@pytest.mark.parametrize(
    "text,line_no,message",
    [
        ("not a header\n", 1, "bad header, expected 'pamper-model v1 features=<F> depth=<D>'"),
        ("pamper-model v1 features=0 depth=1\n", 1, "feature count must be positive"),
        ("pamper-model v1 features=1 depth=0\n", 1, "depth must be positive"),
        ("pamper-model v1 features=" + "9" * 5000 + " depth=1\n", 1, "header number too long"),
        (H1 + "m N(0,L(0,1),L(1,1))\n", 2, "expected '<method><TAB><tree>'"),
        (H1 + "bad name\tL(1,1)\n", 2, "invalid method name: 'bad name'"),
        (H1 + "a\tL(1,1)\na\tL(1,1)\n", 3, "duplicate method: a"),
        (H1 + "m\tN(0,N(0,L(0,1),L(1,1)),L(1,1))\n", 2, "tree deeper than declared depth 1"),
        (H1 + "m\tN(0\n", 2, "missing ',' after feature"),
        (H1 + "m\tN(0L(0,1),L(1,1))\n", 2, "bad feature index: '0L(0'"),
        (H1 + "m\tN(3,L(0,1),L(1,1))\n", 2, "feature 3 out of range for 1 features"),
        (H1 + "m\tN(0,,L(0,1),L(1,1))\n", 2, "expected node at column 5"),
        (H1 + "m\tL(0.5\n", 2, "missing ',' after expectation"),
        (H1 + "m\tL(0.5(,1)\n", 2, "bad expectation: '0.5('"),
        # Only the writer's bytes, in its grammar: the bulk reader's float() rejects these.
        (H1 + "m\tN(0,L(1.2.3,1),L(0.5,1))\n", 2, "bad expectation: '1.2.3'"),
        (H1 + "m\tN(0,L(1e,1),L(0.5,1))\n", 2, "bad expectation: '1e'"),
        (H1 + "m\tN(0,L(-,1),L(0.5,1))\n", 2, "bad expectation: '-'"),
        (H1 + "m\tN(0,L(.,1),L(0.5,1))\n", 2, "bad expectation: '.'"),
        (H1 + "m\tN(0,L(1-2,1),L(0.5,1))\n", 2, "bad expectation: '1-2'"),
        (H1 + "m\tL(2,1)\n", 2, "expectation 2 outside [0, 1]"),
        (H1 + "m\tL(nan,1)\n", 2, "expectation nan outside [0, 1]"),
        (H1 + "m\tL(0.5,1\n", 2, "missing ')' after count"),
        (H1 + "m\tL(0.5,x)\n", 2, "bad count: 'x'"),
        (H1 + "m\tL(0.5,-1)\n", 2, "negative count"),
        (H1 + "m\tN(0,L(0,2)\n", 2, "expected ',' between branches"),
        (H1 + "m\tN(0,L(0,1)),L(1,1))\n", 2, "expected ',' between branches"),
        (H1 + "m\tN(0,L(0,1),L(1,1)\n", 2, "expected ')' to close branch"),
        (H1 + "m\tL(0.5,1)x\n", 2, "trailing characters at column 9"),
        (H2 + "m\tL(1,1)\nn\tN(0,L(0,1),L(1,1))),\n", 3, "trailing characters at column 19"),
        (H1.encode() + b"a\tL(1,1)\nb\tL(\xff,1)\n", 3, "not valid UTF-8 (byte 0xff)"),
    ],
)
def test_model_parse_error_messages(text, line_no, message):
    with pytest.raises(ModelParseError) as info:
        model_from_text(text)
    assert (info.value.line_no, str(info.value)) == (line_no, f"line {line_no}: {message}")


def test_models_corpora_and_catalogs_are_not_equal_to_other_objects():
    c = parse_database("a, [1,0]\nb, [0,1]\n")
    for value in (c, FeatureCatalog({0: "first"}), train(c)):
        assert (value == 1, value != 1) == (False, True)


def test_model_trees_repr_shows_each_tree_as_model_text():
    model = ModelSet(1, {"b": Internal(0, Leaf(0.0, 1), Leaf(1.0, 1)), "a": Leaf(1.0, 2)})
    assert repr(model.trees) == "{'a': L(1.0,2), 'b': N(0,L(0.0,1),L(1.0,1))}"


METHOD_NAMES = ("simp", "auto", "blast", "co-auto", "m042", "Z9", "x'", "a.b", "_")
# Counts past 2**64 fit no numpy integer, so they round-trip only as Python ints.
COUNTS = st.one_of(st.integers(0, 60), st.integers(2**64, 2**80))
EXPECTATIONS = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


def _invalid_nodes(feature_count: int) -> list:
    """Nodes that ``ModelSet`` rejects for a value, though they print."""
    leaf = Leaf(0.5, 1)
    return [
        Internal(-1, leaf, leaf), Internal(feature_count, leaf, leaf), Internal(True, leaf, leaf),
        Internal("0", leaf, leaf), Internal(np.float64(0.0), leaf, leaf),
        Leaf(np.float64(0.5), 2), Leaf(1, 2), Leaf(True, 2), Leaf(1.5, 1), Leaf(float("nan"), 1),
        Leaf(0.5, True), Leaf(0.5, 2.0), Leaf(0.5, -1), Leaf(0.5, "2"),
    ]


@st.composite
def node_trees(draw):
    """``(feature_count, trees, max_depth)`` of random node trees, at most one node invalid.

    Some trees are chains exactly as deep as the limit. An invalid node goes
    in as the ``when_false`` child of a new root over one tree, so that both
    a level walk and a preorder walk meet it before any other fault, such as
    that tree now passing the depth limit.
    """
    feature_count = draw(st.integers(1, 6))
    features = st.integers(0, feature_count - 1)
    leaves = st.builds(Leaf, EXPECTATIONS, COUNTS)
    shapes = st.recursive(
        leaves, lambda below: st.builds(Internal, features, below, below), max_leaves=12
    )
    names = draw(st.lists(st.sampled_from(METHOD_NAMES), unique=True, max_size=6))
    chained = draw(st.sets(st.sampled_from(names))) if names else set()
    chain_depth = draw(st.integers(1, 40))
    trees = {}
    for name in names:
        if name in chained:
            node = draw(leaves)
            for _ in range(chain_depth):
                pair = (node, draw(leaves))
                node = Internal(draw(features), *(pair[::-1] if draw(st.booleans()) else pair))
        else:
            node = draw(shapes)
        trees[name] = node
    deepest = max((reference_tree_depth(tree) for tree in trees.values()), default=0)
    max_depth = max(1, deepest) + draw(st.integers(0, 1))
    if names and draw(st.booleans()):
        name = draw(st.sampled_from(names))
        bad = draw(st.sampled_from(_invalid_nodes(feature_count)))
        trees[name] = Internal(draw(features), bad, trees[name])
    return feature_count, trees, max_depth


def _assert_agrees_with_the_oracles(feature_count: int, trees: dict, max_depth: int) -> None:
    """Node texts, model text, tables and errors agree with the oracles in ``oracles.py``."""
    texts = {name: reference_tree_text(tree) for name, tree in trees.items()}
    for name, tree in trees.items():
        assert repr(tree) == texts[name]
        assert hash(tree) == hash(texts[name])
        for other_name, other in trees.items():
            assert (tree == other) is (texts[name] == texts[other_name])
    roots = [tree for _, tree in sorted(trees.items())]
    try:
        want = reference_node_table(roots, feature_count, max_depth)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            ModelSet(feature_count, trees, max_depth=max_depth)
        assert str(info.value) == str(exc)
        return
    model = ModelSet(feature_count, trees, max_depth=max_depth)
    text = "".join(
        [f"pamper-model v1 features={feature_count} depth={max_depth}\n"]
        + [f"{name}\t{texts[name]}\n" for name in sorted(trees)]
    )
    assert model_to_text(model) == text
    header, *lines = text.splitlines(keepends=True)
    # The loader takes the trees in name order, whatever their order in the file.
    for built in (model, model_from_text(text), model_from_text(header + "".join(reversed(lines)))):
        *arrays, depth = built.table
        *expected, want_depth = want
        assert depth == want_depth
        for got, reference in zip(arrays, expected):
            assert got.dtype == reference.dtype and not got.flags.writeable
            # Compared as bits, so that -0.0 and 0.0 differ.
            assert got.tobytes() == reference.tobytes()
        assert list(built.trees) == sorted(trees)
        assert dict(built.trees) == trees
        assert model_to_text(built) == text


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(node_trees())
def test_loader_fills_the_table_that_checking_the_nodes_numbers(parts):
    _assert_agrees_with_the_oracles(*parts)


@pytest.mark.parametrize("bad", _invalid_nodes(2), ids=reference_tree_text)
def test_invalid_nodes_print_and_are_rejected_as_the_oracles_say(bad):
    _assert_agrees_with_the_oracles(2, {"a": Internal(1, bad, Leaf(1.0, 1)), "b": Leaf(0.5, 3)}, 2)


def test_loaded_trees_are_built_once_on_first_read(monkeypatch):
    text = H2 + "b\tN(1,L(0.5,3),L(1.0,18446744073709551616))\na\tL(0.0,2)\n"
    built = []
    leaf = trees.Leaf
    monkeypatch.setattr(trees, "Leaf", lambda *args: built.append(args) or leaf(*args))
    model = model_from_text(text)
    assert (list(model.trees), len(model.trees), "a" in model.trees, "c" in model.trees) == (
        ["a", "b"], 2, True, False,
    )
    assert built == []
    first = model.trees["b"]
    assert first.when_true.count == 2**64
    assert model.trees["b"] is first and dict(model.trees)["b"] is first
    assert len(built) == 3
    assert model.columns == {"a": 0, "b": 1}


def _must_not_parse(*args):
    raise AssertionError("the strict parser read canonical model text")


def _chain_text(when_false: str, when_true: str) -> str:
    # A 3000-deep chain on feature 0, under a header that allows it.
    body = "N(0," * 3000 + when_false + f",{when_true})" * 3000
    return f"pamper-model v1 features=1 depth=3001\nm\t{body}\n"


DEEP = _chain_text("L(0.0,1)", "L(1.0,1)")


def test_canonical_model_text_skips_the_strict_parser(monkeypatch):
    rng = np.random.default_rng(41)
    texts = [model_to_text(random_model(rng, values=[0.0, 1.0, 1e-05, 0.1])) for _ in range(20)]
    texts += [model_to_text(random_model(rng)) for _ in range(20)]
    corpus = parse_database("a, [1,0]\na, [1,1]\nb, [0,1]\nb, [0,0]\nb, [1,1]\nc, [0,1]\n")
    texts.append(model_to_text(train(corpus)))
    texts.append(DEEP)
    monkeypatch.setattr(trees, "_parse_tree", _must_not_parse)
    for text in texts:
        for data in (text, text.encode("ascii")):
            assert model_to_text(model_from_text(data)) == text


TWO = H2 + "a\tN(1,L(0.5,3),L(1.0,4))\nb\tL(0.25,2)\n"


@pytest.mark.parametrize(
    "text,canonical",
    [
        pytest.param(TWO.replace("\n", "\r\n"), TWO, id="crlf"),
        pytest.param(H2 + "b\tL(0.25,2)\na\tN(1,L(0.5,3),L(1.0,4))\n", TWO, id="reordered"),
        pytest.param(H1 + "a\tL(0.50,1)\n", H1 + "a\tL(0.5,1)\n", id="trailing-zero"),
        pytest.param(H1 + f"a\tL(0.5,{2**80})\n", H1 + f"a\tL(0.5,{2**80})\n", id="count-2**80"),
        pytest.param(_chain_text("L(0,1)", "L(1,1)"), DEEP, id="deep-3000"),
    ],
)
def test_other_model_text_goes_to_the_strict_parser(monkeypatch, text, canonical):
    parsed = []
    parse = trees._parse_tree
    monkeypatch.setattr(trees, "_parse_tree", lambda *args: parsed.append(args[1]) or parse(*args))
    model = model_from_text(text)
    assert parsed
    assert model_to_text(model) == canonical
    monkeypatch.setattr(trees, "_parse_tree", _must_not_parse)
    if canonical != text:
        assert model_from_text(canonical) == model


@pytest.mark.parametrize(
    "lines",
    [
        pytest.param(["a\tN(0,L(0.5,1))"], id="one-child"),
        pytest.param(["a\tN(0,L(0.5,1),L(0.5,1),L(0.5,1))"], id="three-children"),
        pytest.param(["a\tN(0,N(1,L(0.5,1),L(0.5,1),L(0.5,1)))"], id="one-and-three-children"),
        pytest.param(["a\tN(0,L(0.5,1)L(0.5,1),)"], id="comma-after-branch"),
        pytest.param(["a\tL(0.5,1)", "b\tL(0.5,1))"], id="extra-close"),
        pytest.param(["a\tL(0.5,1),L(0.5,1)"], id="two-roots"),
        pytest.param(["a\tN(0,N(1,N(0,L(0.5,1),L(1.0,1)),L(1.0,1)),L(1.0,1))"], id="too-deep"),
        pytest.param(["a\tN(2,L(0.5,1),L(1.0,1))"], id="feature-out-of-range"),
        pytest.param(["a\tL(1.5,1)"], id="expectation-out-of-range"),
        pytest.param(["a\tL(0.5,1.0)"], id="float-count"),
    ],
)
def test_faults_in_canonical_looking_text_are_the_strict_parsers(lines):
    text = H2 + "".join(line + "\n" for line in lines)
    assert trees._canonical_trees(text) is None
    with pytest.raises(ModelParseError) as info:
        model_from_text(text)
    assert info.value.line_no == 1 + len(lines)


def test_non_ascii_model_text_goes_to_the_strict_parser():
    text = H2 + "simp\u00e9\tL(0.5,1)\n"
    assert trees._canonical_nodes(text) is None
    with pytest.raises(ModelParseError) as info:
        model_from_text(text)
    assert (info.value.line_no, str(info.value)) == (2, "line 2: invalid method name: 'simp\u00e9'")


def test_queries_build_no_tree_node(tmp_path, monkeypatch):
    model = random_model(np.random.default_rng(4))
    path = tmp_path / "model.txt"
    save_model(model, path)
    rng = np.random.default_rng(5)
    rows = rng.integers(0, 2, (30, model.feature_count)).tolist()
    literal = "[" + ",".join(map(str, rows[0])) + "]"
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("".join("[" + ",".join(map(str, r)) + "]\n" for r in rows), encoding="utf-8")
    method = list(model.trees)[-1]

    def built(*args):
        raise AssertionError(f"a tree node was built: {args!r}")

    monkeypatch.setattr(trees, "Leaf", built)
    monkeypatch.setattr(trees, "Internal", built)
    loaded = load_model(path)
    assert loaded.table[0].size == model.table[0].size
    for vector in (literal, str(vectors)):
        for argv in (
            ["which", str(path), vector],
            ["which", str(path), vector, "--json"],
            ["why", str(path), vector, method],
            ["why", str(path), vector, method, "--json"],
            ["rank", str(path), vector, method],
            ["rank", str(path), vector, method, "--json"],
        ):
            code, out, err = run_main(argv)
            assert (code, err) == (0, ""), argv
            assert out


def test_a_model_over_shared_trees_is_checked_as_one_over_their_nodes():
    rng = np.random.default_rng(21)
    checked = 0
    for _ in range(40):
        model = random_model(rng)
        loaded = model_from_text(model_to_text(model))
        built = ModelSet(model.feature_count, dict(loaded.trees), max_depth=model.max_depth)
        assert loaded == built
        used = used_features(model)
        headers = [(model.feature_count + 1, model.max_depth + 1)]
        if used:
            headers.append((max(used), model.max_depth))
        if model.max_depth > 1:
            headers.append((model.feature_count, model.max_depth - 1))
        for source in (model, loaded):
            for feature_count, max_depth in headers:
                try:
                    want = ModelSet(feature_count, dict(source.trees), max_depth=max_depth)
                except ValueError as exc:
                    with pytest.raises(ValueError) as info:
                        ModelSet(feature_count, source.trees, max_depth=max_depth)
                    assert (type(info.value), str(info.value)) == (type(exc), str(exc))
                    checked += 1
                    continue
                shared = ModelSet(feature_count, source.trees, max_depth=max_depth)
                assert shared.trees is source.trees and shared.table is source.table
                assert shared == want
    assert checked > 40


def test_with_catalog_shares_the_trees_and_checks_the_catalog():
    model = random_model(np.random.default_rng(22))
    described = model.with_catalog(FeatureCatalog({0: "the goal is an equation"}))
    assert described.trees is model.trees and described.table is model.table
    assert described.catalog.describe(0) == "the goal is an equation"
    assert model_to_text(described) == model_to_text(model) and described != model
    with pytest.raises(BadIndexError):
        model.with_catalog(FeatureCatalog({model.feature_count: "out of range"}))
