import tracemalloc

import numpy as np
import pytest

from pamper.errors import (
    BadIndexError,
    InvalidDistributionError,
    InvalidValueError,
    PamperError,
    PlantedConfigError,
)
from pamper.recommend import which_method
from pamper.synth import (
    PlantedModel,
    PlantedRule,
    generate,
    parse_planted_config,
    zipf_imbalance,
)
from pamper.trees import train

from oracles import random_planted_model, reference_generate


def test_zipf_single_method():
    assert zipf_imbalance(["simp"], 1.3) == {"simp": 1.0}


def test_zipf_two_methods_at_s1():
    dist = zipf_imbalance(["a", "b"], 1.0)
    assert dist["a"] == 2 / 3
    assert dist["b"] == 1 / 3


def test_zipf_is_ordered_and_normalized():
    names = [f"m{i:03d}" for i in range(169)]
    dist = zipf_imbalance(names, 1.4322)
    probs = [dist[name] for name in names]
    assert all(a > b for a, b in zip(probs, probs[1:]))
    assert abs(sum(probs) - 1.0) < 1e-12
    head = sum(probs[:3])
    assert 0.58 < head < 0.60


def test_zipf_rejections():
    with pytest.raises(InvalidDistributionError):
        zipf_imbalance([], 1.0)
    with pytest.raises(InvalidDistributionError):
        zipf_imbalance(["a", "a"], 1.0)
    with pytest.raises(InvalidDistributionError):
        zipf_imbalance(["a", "b"], 0.0)
    for names in (["a"], ["a", "b"]):
        with pytest.raises(InvalidDistributionError):
            zipf_imbalance(names, float("nan"))


def _model(rules, fallback, features=4, noise=0.0):
    return PlantedModel(tuple(rules), fallback, features, noise)


def test_validate_rejections():
    ok_rule = PlantedRule({0: True}, {"a": 1.0}, 0.5)
    with pytest.raises(InvalidDistributionError):
        _model([ok_rule], {"b": 0.9})
    with pytest.raises(InvalidDistributionError):
        _model([ok_rule], {"b": -0.1, "c": 1.1})
    with pytest.raises(InvalidDistributionError):
        _model([ok_rule], {"b a d": 1.0})
    with pytest.raises(InvalidDistributionError):
        _model([ok_rule], {"b": float("nan"), "c": 1.0})
    with pytest.raises(InvalidDistributionError):
        _model([ok_rule, PlantedRule({1: True}, {"a": 1.0}, 0.6)], {"b": 1.0})
    with pytest.raises(InvalidDistributionError):
        _model([PlantedRule({0: True}, {"a": 1.0}, -0.1)], {"b": 1.0})
    with pytest.raises(BadIndexError):
        _model([PlantedRule({7: True}, {"a": 1.0}, 0.5)], {"b": 1.0})
    with pytest.raises(PamperError):
        _model([], {"b": 1.0}, noise=1.5)
    with pytest.raises(PamperError):
        _model([], {"b": 1.0}, features=0)


def test_rule_checks_itself_without_a_model():
    with pytest.raises(InvalidDistributionError):
        PlantedRule({0: True}, {"a": 1.0}, -0.1)
    with pytest.raises(InvalidDistributionError):
        PlantedRule({0: True}, {"a": 1.0}, float("nan"))
    with pytest.raises(BadIndexError):
        PlantedRule({-1: True}, {"a": 1.0}, 0.5)
    with pytest.raises(InvalidDistributionError):
        PlantedRule({0: True}, {"a": 0.7}, 0.5)
    with pytest.raises(InvalidDistributionError):
        PlantedRule({0: True}, {"a": float("nan")}, 0.5)
    # An index past any feature count is the model's to reject.
    assert dict(PlantedRule({99: True}, {"a": 1.0}, 0.5).pattern) == {99: True}


def test_generate_single_rule_covers_everything():
    model = _model([PlantedRule({0: True}, {"a": 1.0}, 1.0)], {"b": 1.0}, features=3)
    c = generate(model, 50, seed=0)
    assert set(c.method_names) == {"a"}
    assert c.features[:, 0].tolist() == [1] * 50
    assert not c.features[:, 1:].any()


def test_generate_rule_and_fallback_bits():
    model = _model([PlantedRule({0: True}, {"a": 1.0}, 0.5)], {"b": 1.0}, features=2)
    c = generate(model, 200, seed=1)
    names = np.asarray(c.method_names)
    assert (names == "a").sum() > 0
    assert (names == "b").sum() > 0
    assert np.array_equal(c.features[:, 0] == 1, names == "a")
    assert not c.features[:, 1].any()


def test_generate_deterministic():
    model = _model(
        [PlantedRule({1: False}, {"a": 0.5, "b": 0.5}, 0.4)],
        {"c": 0.9, "d": 0.1},
        features=5,
        noise=0.2,
    )
    one = generate(model, 300, seed=42)
    two = generate(model, 300, seed=42)
    assert one == two
    assert one.method_names == two.method_names
    other = generate(model, 300, seed=43)
    assert one.method_names != other.method_names or not np.array_equal(
        one.features, other.features
    )


def test_generate_noise_rate():
    model = _model([], {"a": 1.0}, features=50, noise=0.3)
    c = generate(model, 400, seed=3)
    rate = float(c.features.mean())
    assert abs(rate - 0.3) < 0.02


def test_generate_method_frequencies_track_distribution():
    dist = zipf_imbalance(["a", "b", "c", "d", "e"], 1.0)
    model = _model([], dist, features=2)
    c = generate(model, 5000, seed=9)
    names = np.asarray(c.method_names)
    for name, prob in dist.items():
        freq = float((names == name).sum()) / 5000.0
        assert abs(freq - prob) < 0.03


def test_generate_rejects_bad_n():
    model = _model([], {"a": 1.0})
    with pytest.raises(PamperError):
        generate(model, 0, seed=0)


@pytest.mark.parametrize("noise", [0.0, 0.3])
@pytest.mark.parametrize("n", [1, 63, 64, 65, 4095, 4096, 4097, 8193])
def test_generate_matches_the_whole_matrix_reference(n, noise):
    # Noise drawn a block at a time continues the stream as one (n, F) draw does,
    # so the corpus is the same on either side of each 64-row word and each block.
    rng = np.random.default_rng(n)
    for _ in range(3):
        model = random_planted_model(rng, noise)
        seed = int(rng.integers(2**32))
        assert generate(model, n, seed) == reference_generate(model, n, seed)


@pytest.mark.parametrize("noise", [0.0, 0.5])
@pytest.mark.parametrize("count", [10**18, 2**62])
def test_generate_reports_columns_too_wide_to_allocate(count, noise):
    with pytest.raises(InvalidValueError, match=f"^1 points of {count} features do not fit in memory$"):
        generate(PlantedModel((), {"a": 1.0}, count, noise), 1, 0)


def test_generate_never_holds_a_byte_per_flag():
    # The columns take n * F / 8 bytes; one block of float64 draws, the 2n
    # membership and method draws and the names make up the rest. A whole
    # (n, F) draw matrix alone would be 8 * n * F bytes.
    n, width = 200_000, 108
    model = PlantedModel((), zipf_imbalance([f"m{i:03d}" for i in range(169)], 1.4322), width, 0.3)
    tracemalloc.start()
    try:
        corpus = generate(model, n, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert corpus.columns.shape == (width, n // 64)
    assert peak < n * width, peak


@pytest.mark.parametrize(
    "count,message",
    [
        (3.0, "feature count must be an integer, got 3.0"),
        (True, "feature count must be an integer, got True"),
        (0, "feature count must be positive"),
    ],
    ids=["float", "bool", "zero"],
)
def test_planted_model_admits_only_an_integer_feature_count(count, message):
    # A float count used to be accepted here and to fail only in generate.
    with pytest.raises(InvalidValueError) as info:
        PlantedModel((), {"a": 1.0}, count)
    assert (str(info.value), info.value.part) == (message, "features")
    assert generate(PlantedModel((), {"a": 1.0}, np.int64(3)), 2, 0).feature_count == 3


@pytest.mark.parametrize("error", [InvalidValueError, PamperError, ValueError])
def test_generate_rejects_a_negative_seed(error):
    with pytest.raises(error, match="seed must be a nonnegative integer, got -1"):
        generate(_model([], {"a": 1.0}), 5, -1)


_EXAMPLE = """\
# planted structure
features = 16
noise = 0.01

rule 0.4 : 3=1 -> induct:0.9, auto:0.1
rule 0.2 : 5=1, 6=0 -> simp:1.0
fallback : auto:0.7, blast:0.3
"""


def test_parse_config_example():
    model = parse_planted_config(_EXAMPLE)
    assert model.feature_count == 16
    assert model.noise == 0.01
    assert len(model.rules) == 2
    assert dict(model.rules[0].pattern) == {3: True}
    assert model.rules[0].weight == 0.4
    assert dict(model.rules[0].distribution) == {"induct": 0.9, "auto": 0.1}
    assert dict(model.rules[1].pattern) == {5: True, 6: False}
    assert dict(model.fallback) == {"auto": 0.7, "blast": 0.3}


def test_parse_config_accepts_bytes_and_zipf():
    text = b"features = 3\nfallback zipf 1.0 : a, b\n"
    model = parse_planted_config(text)
    assert model.fallback["a"] == 2 / 3
    assert model.fallback["b"] == 1 / 3
    assert model.noise == 0.0


@pytest.mark.parametrize(
    "text,line_no",
    [
        ("features = 3\nwat = 4\nfallback : a:1\n", 2),
        ("features = x\nfallback : a:1\n", 1),
        ("features = 3\nnoise = much\nfallback : a:1\n", 2),
        ("features = 3\nrule half : 0=1 -> a:1\nfallback : a:1\n", 2),
        ("features = 3\nrule 0.5 : 0=1 a:1\nfallback : a:1\n", 2),
        ("features = 3\nrule 0.5 : 0=2 -> a:1\nfallback : a:1\n", 2),
        ("features = 3\nrule 0.5 : 0=1, 0=0 -> a:1\nfallback : a:1\n", 2),
        ("features = 3\nrule 0.5 : -1=1 -> a:1\nfallback : a:1\n", 2),
        ("features = 3\nrule 0.5 : 0=1 -> a:0.5, a:0.5\nfallback : a:1\n", 2),
        ("features = 3\nrule 0.5 : 0=1 -> a:x\nfallback : a:1\n", 2),
        ("features = 3\nfallback : a:1\nfallback : b:1\n", 3),
        ("features = 3\nfallback zipf one : a b\n", 2),
        ("features = 3\nfallback zipf 1.0 :\n", 2),
        ("features = 3\nfallback zipf nan : a b\n", 2),
        ("features = 3\nfallback zipf nan : a\n", 2),
        ("features = 3\nrule -0.1 : 0=1 -> a:1\nfallback : a:1\n", 2),
        ("features = 3\nrule nan : 0=1 -> a:1\nfallback : a:1\n", 2),
        ("features = 3\n\nrule 0.5 : 0=1 -> a:0.3, b:0.4\nfallback : a:1\n", 3),
        ("features = 3\nrule 0.5 : 0=1 -> a:nan, b:1\nfallback : a:1\n", 2),
        ("features = 3\nnonsense\nfallback : a:1\n", 2),
        ("fallback : a:1\n", 1),
        ("features = 3\n", 1),
    ],
)
def test_parse_config_errors_carry_line_numbers(text, line_no):
    with pytest.raises(PlantedConfigError) as err:
        parse_planted_config(text)
    assert err.value.line_no == line_no


def test_parse_config_validates_model():
    with pytest.raises(InvalidDistributionError):
        parse_planted_config("features = 3\nfallback : a:0.4\n")
    with pytest.raises(BadIndexError):
        parse_planted_config("features = 2\nrule 0.5 : 4=1 -> a:1\nfallback : b:1\n")
    with pytest.raises(InvalidDistributionError):
        parse_planted_config("features = 3\nfallback : a:nan, b:1\n")


def test_trained_model_recovers_planted_rules():
    model = _model(
        [
            PlantedRule({0: True, 1: False}, {"simp": 1.0}, 0.45),
            PlantedRule({0: False, 1: True}, {"blast": 1.0}, 0.45),
        ],
        {"auto": 1.0},
        features=6,
        noise=0.05,
    )
    corpus = generate(model, 2000, seed=11)
    trained = train(corpus)
    probe = np.zeros(6, dtype=np.uint8)
    probe[0] = 1
    assert which_method(trained, probe, k=1).ranked[0][0] == "simp"
    probe = np.zeros(6, dtype=np.uint8)
    probe[1] = 1
    assert which_method(trained, probe, k=1).ranked[0][0] == "blast"


@pytest.mark.parametrize(
    "line,message",
    [
        ("fallback : a:1,", "empty distribution entry"),
        ("fallback : a:0.5,, b:0.5", "empty distribution entry"),
        ("fallback : a", "expected '<method>:<prob>', got 'a'"),
        ("rule 0.5 : -> a:1", "empty pattern entry"),
        ("rule 0.5 : 0=1, -> a:1", "empty pattern entry"),
        ("fallback zipf 1.0 a b", "expected 'fallback zipf <s> : <names>'"),
    ],
)
def test_parse_config_entry_errors(line, message):
    with pytest.raises(PlantedConfigError) as err:
        parse_planted_config(f"features = 3\n{line}\nfallback : a:1\n")
    assert str(err.value) == f"line 2: {message}"


def test_rule_without_methods_is_rejected():
    with pytest.raises(InvalidDistributionError) as err:
        PlantedRule({0: True}, {}, 0.5)
    assert str(err.value) == "distribution has no methods"
