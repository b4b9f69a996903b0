"""One table per input rule: every constructor or query that takes the input applies it.

Bits: every array that must hold only 0 and 1 is checked before any cast, so
no entry wraps (256, -1), truncates (0.5) or parses (a string) into range,
and a 0/1 array of any dtype is taken as uint8. A row mask is such bits,
1-D, with one entry per corpus row. Indices: a feature index is
an integer (not a bool) and not negative. Feature counts: an integer (not a
bool) and positive, for every constructor and reader that takes one. Method
names: a ``str`` that the name grammar matches in full, else each taker's own
ValueError class with one message. Descriptions and packed columns are
checked by their one taker each.
"""
import numpy as np
import pytest

from pamper.corpus import (
    Corpus,
    FeatureCatalog,
    parse_database,
    parse_feature_catalog,
    parse_vector,
    parse_vectors,
)
from pamper.errors import (
    BadIndexError,
    InvalidDistributionError,
    InvalidValueError,
    MalformedLineError,
    ModelParseError,
)
from pamper.evaluate import run_evaluation
from pamper.preprocess import BinaryDataset, single_target_split
from pamper.recommend import ModelArena, as_vector, batch_rank_method, batch_why_method
from pamper.synth import PlantedModel, PlantedRule, generate
from pamper.trees import Internal, Leaf, ModelSet, build_tree, model_from_text, model_to_text, train

MODEL = ModelSet(
    2,
    {"a": Internal(0, Leaf(0.25, 1), Leaf(0.75, 1)), "b": Internal(1, Leaf(0.1, 1), Leaf(0.9, 1))},
    max_depth=1,
)


def _planted_bits(bits):
    """The features of a point drawn from a rule that pins all four bits to ``bits``."""
    rule = PlantedRule(dict(enumerate(bits.reshape(-1).tolist())), {"a": 1.0}, 1.0)
    return generate(PlantedModel((rule,), {"b": 1.0}, 4), 1, 0).features[0]


def _why_values(bits):
    answer, explanations = batch_why_method(MODEL, bits, "a")
    return np.array([explanations[i].expectation for i in answer])


# Each taker gets a (2, 2) array of bits and returns what it stored or answered.
BIT_TAKERS = {
    "Corpus": lambda bits: Corpus(("a", "b"), bits, 2).features,
    "BinaryDataset": lambda bits: BinaryDataset(
        "a", bits.reshape(-1), np.zeros((2, 1), dtype=np.uint64)
    ).labels,
    "PlantedRule": _planted_bits,
    "as_vector": lambda bits: as_vector(bits.reshape(-1)),
    "ModelArena.expectations": lambda bits: ModelArena(MODEL).expectations(bits),
    "batch_rank_method": lambda bits: batch_rank_method(MODEL, bits, "a")[0],
    "batch_why_method": _why_values,
}


@pytest.mark.parametrize(
    "bad",
    [2, -1, 256, 0.5, float("nan"), "1"],
    ids=["two", "minus-one", "256", "half", "nan", "string"],
)
def test_every_bit_taker_rejects_an_entry_other_than_0_and_1(bad):
    bits = np.array([[bad, 1], [0, 1]])
    for name, take in BIT_TAKERS.items():
        error = InvalidValueError if name == "PlantedRule" else ValueError
        with pytest.raises(error, match="must be 0 or 1"):
            take(bits)


@pytest.mark.parametrize(
    "bits",
    [
        np.array([[True, False], [False, True]]),
        np.array([[1.0, 0.0], [-0.0, 1.0]]),
        np.array([[1, 0], [0, 1]], dtype=np.int64),
        np.array([[1, 0], [0, 1]], dtype=object),
    ],
    ids=["bool", "float", "int64", "object"],
)
def test_every_bit_taker_takes_0_and_1_of_any_dtype_as_uint8(bits):
    for name, take in BIT_TAKERS.items():
        got, want = take(bits), take(np.asarray(bits, dtype=np.uint8))
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    # Features and labels are kept packed: a corpus gives back equal, read-only features
    # and leaves the given matrix as it was.
    X = np.array([[1, 0], [0, 1]], dtype=np.uint8)
    features = Corpus(("a", "b"), X, 2).features
    assert np.array_equal(features, X) and not features.flags.writeable and X.flags.writeable
    labels = np.array([1, 0, 0, 1], dtype=np.uint8)
    dataset = BinaryDataset("a", labels, np.zeros((2, 1), dtype=np.uint64))
    assert np.array_equal(dataset.labels, labels) and dataset.positives == 2


def test_binary_dataset_labels_are_one_dimensional():
    columns = np.zeros((2, 1), dtype=np.uint64)
    with pytest.raises(ValueError, match="labels must be 1-dimensional"):
        BinaryDataset("a", np.array([[1, 0, 0, 0]], dtype=np.uint8), columns)
    # The label check comes before the point-count check.
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        BinaryDataset("a", np.array([2] + [0] * 99), columns)

def test_binary_dataset_columns_are_a_2d_uint64_array():
    labels = np.array([1, 0, 0, 1], dtype=np.uint8)
    for columns in (
        np.zeros((2, 1)),
        np.zeros((2, 1), dtype=np.int64),
        np.zeros(1, dtype=np.uint64),
        [[0], [0]],
    ):
        with pytest.raises(ValueError, match="columns must be a 2-D uint64 array"):
            BinaryDataset("a", labels, columns)
    # The column check comes before the point-count check.
    with pytest.raises(ValueError, match="columns must be a 2-D uint64 array"):
        BinaryDataset("a", labels, np.zeros(2))
    with pytest.raises(ValueError, match="labels and columns disagree on point count"):
        BinaryDataset("a", labels, np.zeros((2, 2), dtype=np.uint64))


# Each taker gets a row mask over the four-row CORPUS and returns what it trained or scored.
CORPUS = Corpus(("a", "b", "a", "b"), np.array([[1, 0], [0, 1], [1, 1], [0, 0]]), 2)
MASK_TAKERS = {
    "train": lambda mask: model_to_text(train(CORPUS, rows=mask)),
    "build_tree": lambda mask: build_tree(single_target_split(CORPUS)["a"], rows=mask),
    "run_evaluation": lambda mask: run_evaluation(CORPUS, mask, top_n=1)[1].rows,
}


@pytest.mark.parametrize(
    "mask,message",
    [
        ([1, 2, 1, 0], "must be 0 or 1"),
        ([1.0, 0.5, 1.0, 0.0], "must be 0 or 1"),
        (["1", "0", "1", "0"], "must be 0 or 1"),
        ([[1, 0], [1, 0]], "must be 1-dimensional"),
        ([1, 0, 1], "has 3 entries, the corpus has 4 points"),
        (np.ones(5, dtype=bool), "has 5 entries, the corpus has 4 points"),
    ],
    ids=["two", "half", "string", "2-d", "short", "long"],
)
def test_every_row_mask_taker_checks_bits_shape_and_length(mask, message):
    for name, take in MASK_TAKERS.items():
        what = "held_out" if name == "run_evaluation" else "rows"
        with pytest.raises(ValueError, match=f"{what} {message}"):
            take(mask)


def test_every_row_mask_taker_takes_0_and_1_of_any_dtype():
    mask = [1, 1, 0, 1]
    for name, take in MASK_TAKERS.items():
        want = take(np.array(mask, dtype=bool))
        for same in (mask, np.array(mask, dtype=np.uint8), np.array(mask, dtype=float)):
            assert take(same) == want, name


# Each taker gets one feature index and returns the indices it stored.
INDEX_TAKERS = {
    "PlantedRule": lambda index: PlantedRule({index: True}, {"a": 1.0}, 0.5).pattern.keys(),
    "FeatureCatalog": lambda index: FeatureCatalog({index: "it holds"}).descriptions.keys(),
}


@pytest.mark.parametrize(
    "index,message",
    [
        (-1, "negative feature index: -1"),
        (np.int64(-3), "negative feature index: -3"),
        (1.5, "feature index must be an integer, got 1.5"),
        (2.0, "feature index must be an integer, got 2.0"),
        (True, "feature index must be an integer, got True"),
        ("1", "feature index must be an integer, got '1'"),
    ],
    ids=["minus-one", "int64-negative", "half", "float", "bool", "string"],
)
def test_every_index_taker_rejects_an_index_that_is_not_a_nonnegative_integer(index, message):
    for name, take in INDEX_TAKERS.items():
        with pytest.raises(BadIndexError) as info:
            take(index)
        assert str(info.value) == message, name
    for name, take in INDEX_TAKERS.items():
        assert list(take(np.int64(3))) == [3] and list(take(0)) == [0], name


# Each taker gets one feature count and builds or reads a two-flag point with it.
COUNT_TAKERS = {
    "Corpus": lambda count: Corpus(("a",), np.array([[1, 0]]), count),
    "PlantedModel": lambda count: PlantedModel((), {"a": 1.0}, count),
    "ModelSet": lambda count: ModelSet(count, {"a": Leaf(0.5, 1)}),
    "parse_vector": lambda count: parse_vector("[1,0]", count),
    "as_vector": lambda count: as_vector([1, 0], count),
    "parse_vectors": lambda count: parse_vectors(b"[1,0]\n", count),
    "parse_feature_catalog": lambda count: parse_feature_catalog(b"1\tx\n", count),
}


@pytest.mark.parametrize(
    "count,message",
    [
        (2.0, "feature count must be an integer, got 2.0"),
        (True, "feature count must be an integer, got True"),
        (0, "feature count must be positive"),
    ],
    ids=["float", "bool", "zero"],
)
def test_every_feature_count_taker_admits_only_a_positive_integer(count, message):
    # parse_vectors used to fail in numpy on 2.0 and True, the query readers
    # took True for a width of 1, and parse_feature_catalog took 2.0 and True
    # and failed a zero count only at its first line, as an index error.
    for name, take in COUNT_TAKERS.items():
        with pytest.raises(InvalidValueError) as info:
            take(count)
        assert str(info.value) == message, name
    for name, take in COUNT_TAKERS.items():
        take(2)
        take(np.int64(2))


@pytest.mark.parametrize("description", [5, None, b"x", "", " \t"])
def test_feature_catalog_descriptions_are_nonblank_text(description):
    with pytest.raises(ValueError) as info:
        FeatureCatalog({0: description})
    assert str(info.value) == f"feature description must be nonblank text: {description!r}"
    assert FeatureCatalog({0: " it holds"}).describe(0) == " it holds"


# Each taker gets one method name; text takers read it from a line, at the given line.
NAME_TAKERS = {
    "Corpus": (lambda name: Corpus((name,), np.array([[1]]), 1), ValueError, None),
    "ModelSet": (lambda name: ModelSet(1, {name: Leaf(0.5, 1)}), ValueError, None),
    "PlantedRule": (
        lambda name: PlantedRule({0: True}, {name: 1.0}, 0.5), InvalidDistributionError, None
    ),
    "PlantedModel": (
        lambda name: PlantedModel((), {name: 1.0}, 1), InvalidDistributionError, None
    ),
    "parse_database": (
        lambda name: parse_database(f"a, [0]\n{name}, [1]\n"), MalformedLineError, 2
    ),
    "model_from_text": (
        lambda name: model_from_text(f"pamper-model v1 features=1 depth=1\n{name}\tL(1,1)\n"),
        ModelParseError,
        2,
    ),
}


@pytest.mark.parametrize(
    "name", [1, None, b"a", "bad name", ""], ids=["int", "none", "bytes", "space", "empty"]
)
def test_every_name_taker_rejects_a_name_outside_the_grammar(name):
    for taker, (take, error, line_no) in NAME_TAKERS.items():
        if line_no is not None and not isinstance(name, str):
            continue  # a name read from text is always a str
        with pytest.raises(error) as info:
            take(name)
        assert type(info.value) is error, taker
        at = "" if line_no is None else f"line {line_no}: "
        assert str(info.value) == f"{at}invalid method name: {name!r}", taker
    for taker, (take, _, _) in NAME_TAKERS.items():
        take("x'_.-9")


@pytest.mark.parametrize(
    "names,message",
    [
        ("ab", "method names must be a sequence of names, not the str 'ab'"),
        (([1], "a"), "invalid method name: [1]"),
        (("a", {}), "invalid method name: {}"),
    ],
    ids=["str", "list-name", "dict-name"],
)
def test_corpus_names_are_a_sequence_of_names(names, message):
    # A str is a sequence of one-letter names, and an unhashable entry fails set().
    with pytest.raises(ValueError) as info:
        Corpus(names, np.array([[1], [0]]), 1)
    assert type(info.value) is ValueError and str(info.value) == message
    assert Corpus(["b", "a"], np.array([[1], [0]]), 1).vocab == ("a", "b")


def test_model_set_checks_names_before_sorting_them():
    with pytest.raises(ValueError, match="invalid method name: 1"):
        ModelSet(1, {"a": Leaf(0.5, 1), 1: Leaf(0.5, 1)})
