import io
import sys
from fractions import Fraction

import numpy as np
import pytest

from pamper import trees
from pamper.corpus import Corpus, FeatureCatalog, parse_database
from pamper.errors import BadIndexError, EmptyDatasetError, ModelParseError
from pamper.preprocess import single_target_split
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

from oracles import (
    brute_force_best_split,
    leaf_regions,
    make_binary_dataset,
    random_dataset,
    random_model,
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
    empty = parse_database("a, [1]\n").take([])
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
        (lambda: ModelSet(True, {"a": Leaf(0.5, 2)}), "feature_count"),
        (lambda: TrainConfig(max_depth=2.5), "max_depth"),
    ],
    ids=[
        "float64-expectation", "float32-expectation", "int-expectation", "bool-count",
        "float-count", "bool-feature", "float-max_depth", "bool-feature_count",
        "train-config-float-max_depth",
    ],
)
def test_only_values_written_as_loadable_text_are_admitted(build, field):
    with pytest.raises(ValueError, match=field):
        build()


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
