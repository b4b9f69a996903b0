import tracemalloc

import numpy as np
import pytest

from pamper.corpus import parse_database
from pamper.errors import EmptyDatasetError
from pamper.preprocess import single_target_split
from pamper.synth import PlantedModel, generate, zipf_imbalance

from oracles import random_corpus, reference_take


def _unpacked(ds):
    """The dataset's packed feature columns as a (points, features) 0/1 matrix."""
    bits = np.unpackbits(ds.columns.view(np.uint8), axis=1, count=len(ds), bitorder="little")
    return bits.T


def test_two_method_corpus_yields_mirrored_labels():
    c = parse_database("induct, [1,0,1]\nauto, [0,1,0]\n")
    split = single_target_split(c)
    assert set(split) == {"induct", "auto"}
    assert split["induct"].labels.tolist() == [1, 0]
    assert split["auto"].labels.tolist() == [0, 1]
    assert split["induct"].positives == 1
    assert _unpacked(split["induct"]).tolist() == [[1, 0, 1], [0, 1, 0]]


def test_single_method_corpus_all_positive():
    c = parse_database("simp, [1]\nsimp, [0]\n")
    split = single_target_split(c)
    assert list(split) == ["simp"]
    assert split["simp"].labels.tolist() == [1, 1]


def test_methods_never_observed_get_no_dataset():
    c = parse_database("a, [1]\nb, [0]\n")
    assert "c" not in single_target_split(c)


def test_three_points_two_methods_conservation():
    c = parse_database("a, [1]\nb, [0]\na, [1]\n")
    split = single_target_split(c)
    assert sum(ds.positives for ds in split.values()) == 3
    assert all(len(ds) == 3 for ds in split.values())


def test_conservation_and_order_property():
    rng = np.random.default_rng(42)
    for _ in range(50):
        c = random_corpus(rng)
        split = single_target_split(c)
        assert sum(ds.positives for ds in split.values()) == len(c)
        assert list(split) == sorted(split)
        for name, ds in split.items():
            assert len(ds) == len(c)
            expected = [1 if m == name else 0 for m in c.method_names]
            assert ds.labels.tolist() == expected


def test_feature_storage_is_shared_not_copied():
    c = parse_database("a, [1,0]\nb, [0,1]\n")
    a, b = single_target_split(c).values()
    assert a.columns is b.columns
    assert not a.columns.flags.writeable
    assert np.array_equal(_unpacked(a), c.features)


def test_empty_corpus_rejected():
    c = parse_database("a, [1]\n")
    empty = reference_take(c, [])
    with pytest.raises(EmptyDatasetError):
        single_target_split(empty)



def test_labels_are_kept_packed_and_unpacked_on_read():
    rng = np.random.default_rng(43)
    for _ in range(20):
        c = random_corpus(rng)
        for code, ds in enumerate(single_target_split(c).values()):
            assert ds.words.dtype == np.uint64 and ds.words.shape == (-(-len(c) // 64),)
            assert not ds.words.flags.writeable
            assert ds.labels.dtype == np.uint8
            assert np.array_equal(ds.labels, c.codes == code)
            assert ds.positives == c.method_counts[ds.method]


def test_the_split_retains_only_packed_columns_and_labels():
    names = [f"m{i:02d}" for i in range(40)]
    c = generate(PlantedModel((), zipf_imbalance(names, 1.2), 108, 0.3), 20000, seed=5)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        split = single_target_split(c)
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    datasets = list(split.values())
    packed = datasets[0].columns.nbytes + sum(ds.words.nbytes for ds in datasets)
    # Beyond the packed arrays, a few hundred bytes of objects per method;
    # one unpacked uint8 label array per method would be 20 kB each.
    assert packed <= retained < packed + 1024 * len(datasets), (retained, packed)
