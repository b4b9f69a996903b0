import numpy as np

from pamper import _kernels
from pamper.trees import Internal, Leaf, train

from oracles import brute_force_best_split, leaf_regions, random_corpus


def _unpack(words, n):
    """Row mask of a packed bitset, asserting its padding bits are clear."""
    bits = np.unpackbits(words.view(np.uint8), bitorder="little").astype(bool)
    assert not bits[n:].any()
    return bits[:n]


def _numpy_counts(X, y, rows):
    pos_rows = rows & (y != 0)
    return X[rows].sum(axis=0, dtype=np.int64), X[pos_rows].sum(axis=0, dtype=np.int64)


def _check(X, y, rows):
    n = X.shape[0]
    Xp, yp, mask = _kernels.pack_bits(X.T), _kernels.pack_bits(y), _kernels.pack_bits(rows)
    assert Xp.shape == (X.shape[1], -(-n // 64)) and Xp.dtype == np.uint64
    n_true, pos_true = _kernels.node_counts(Xp, yp, mask)
    want_n, want_pos = _numpy_counts(X, y, rows.astype(bool))
    assert n_true.tolist() == want_n.tolist()
    assert pos_true.tolist() == want_pos.tolist()
    # A caller that knows n_true (a sibling by subtraction) gets it back and the positives counted.
    given, given_pos = _kernels.node_counts(Xp, yp, mask, want_n)
    assert given.tolist() == want_n.tolist()
    assert given_pos.tolist() == want_pos.tolist()
    for j in range(X.shape[1]):
        side_false, side_true = _kernels.partition(Xp, mask, j)
        bit = X[:, j] != 0
        assert _unpack(side_false, n).tolist() == (rows.astype(bool) & ~bit).tolist()
        assert _unpack(side_true, n).tolist() == (rows.astype(bool) & bit).tolist()


def _case(rng, n):
    f = int(rng.integers(1, 13))
    X = (rng.random((n, f)) < rng.uniform(0.1, 0.9)).astype(np.uint8)
    y = (rng.random(n) < rng.uniform(0.0, 0.6)).astype(np.uint8)
    rows = (rng.random(n) < rng.uniform(0.0, 1.0)).astype(np.uint8)
    return X, y, rows


def test_counts_and_partitions_match_numpy_on_random_subsets():
    rng = np.random.default_rng(17)
    for _ in range(150):
        _check(*_case(rng, int(rng.integers(1, 300))))


def test_word_boundaries_and_extreme_masks():
    rng = np.random.default_rng(19)
    for n in (1, 7, 8, 63, 64, 65, 128, 130):
        X, y, _ = _case(rng, n)
        _check(X, y, np.zeros(n, dtype=np.uint8))
        _check(X, y, np.ones(n, dtype=np.uint8))


def test_pack_columns_packs_as_pack_bits_of_the_transpose():
    rng = np.random.default_rng(37)
    for n in (1, 7, 8, 9, 63, 64, 65, 129, 1000):
        for width in (1, 3, 108):
            X = (rng.random((n, width)) < rng.uniform(0.1, 0.9)).astype(np.uint8)
            X.setflags(write=False)
            got, want = _kernels.pack_columns(X), _kernels.pack_bits(X.T)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.flags.c_contiguous and got.tobytes() == want.tobytes()


def test_kernels_accept_readonly_arrays():
    X = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.uint8)
    Xp = _kernels.pack_bits(X.T)
    yp = _kernels.pack_bits(np.array([1, 0, 1], dtype=np.uint8))
    mask = _kernels.pack_bits(np.ones(3, dtype=np.uint8))
    for arr in (Xp, yp, mask):
        arr.setflags(write=False)
    n_true, pos_true = _kernels.node_counts(Xp, yp, mask)
    assert (n_true.tolist(), pos_true.tolist()) == ([2, 2], [2, 1])
    side_false, side_true = _kernels.partition(Xp, mask, 0)
    assert _unpack(side_false, 3).tolist() == [False, True, False]
    assert _unpack(side_true, 3).tolist() == [True, False, True]


def test_partitions_replay_the_oracle_leaf_regions(monkeypatch):
    monkeypatch.setenv("PAMPER_THREADS", "1")
    rng = np.random.default_rng(23)
    for _ in range(30):
        corpus = random_corpus(rng, max_points=200)
        X = corpus.features
        n = X.shape[0]
        Xp = _kernels.pack_bits(X.T)
        for tree in train(corpus).trees.values():
            masks = {}
            stack = [(tree, _kernels.pack_bits(np.ones(n, dtype=np.uint8)))]
            while stack:
                node, mask = stack.pop()
                if isinstance(node, Leaf):
                    masks[id(node)] = _unpack(mask, n)
                else:
                    side_false, side_true = _kernels.partition(Xp, mask, node.feature)
                    stack += [(node.when_false, side_false), (node.when_true, side_true)]
            for leaf, region in leaf_regions(tree, X):
                assert masks[id(leaf)].tolist() == region.tolist()
                assert leaf.count == int(region.sum())


def test_train_root_matches_brute_force_split(monkeypatch):
    monkeypatch.setenv("PAMPER_THREADS", "1")
    rng = np.random.default_rng(29)
    for _ in range(40):
        corpus = random_corpus(rng, max_points=60)
        rows = corpus.features.tolist()
        for name, tree in train(corpus).trees.items():
            labels = [int(m == name) for m in corpus.method_names]
            want = brute_force_best_split(labels, rows)
            if want is None:
                assert isinstance(tree, Leaf)
            else:
                assert isinstance(tree, Internal) and tree.feature == want[0]
