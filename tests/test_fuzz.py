"""Differential and fuzz tests for the input parsers.

The model loader is compared against the recursive reference parser in
``oracles`` on mutated model texts, and every parser is fed random bytes,
which may only ever raise ``PamperError``.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pamper.corpus import parse_database, parse_feature_catalog, parse_vectors
from pamper.errors import ModelParseError, PamperError
from pamper.synth import parse_planted_config
from pamper.trees import model_from_text, model_to_text

from oracles import random_model, reference_model_from_text

FUZZ = settings(max_examples=400, deadline=None, derandomize=True, database=None)

VALID_MODELS = [
    model_to_text(random_model(np.random.default_rng(seed))).encode("utf-8")
    for seed in range(12)
] + [
    b"pamper-model v1 features=3 depth=2\r\na\tN(2,L(0.5,3),N(0,L(0,1),L(1,2)))\r\n",
    b"pamper-model v1 features=2 depth=1 \nm\tN( 1 ,L( 0.25 , 4 ),L(1e-3,0_2))\n\nn\tL(+1,0)\n",
]
TOKENS = [b",", b")", b"N(", b"L("]


@st.composite
def mutated_model_texts(draw):
    """A valid model text after one to four truncations, byte flips,
    or insertions or deletions of ',', ')', 'N(' and 'L('."""
    data = bytearray(draw(st.sampled_from(VALID_MODELS)))
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["truncate", "flip", "insert", "delete"]))
        if edit == "truncate":
            del data[pos:]
        elif edit == "flip" and pos < len(data):
            data[pos] = draw(st.integers(0, 255))
        elif edit == "insert":
            data[pos:pos] = draw(st.sampled_from(TOKENS))
        elif edit == "delete":
            token = draw(st.sampled_from(TOKENS))
            at = data.find(token, pos)
            if at >= 0:
                del data[at:at + len(token)]
    return bytes(data)


def assert_same_verdict(data: bytes) -> None:
    try:
        want = reference_model_from_text(data)
    except ModelParseError as exc:
        with pytest.raises(ModelParseError) as info:
            model_from_text(data)
        assert info.value.line_no == exc.line_no
    else:
        got = model_from_text(data)
        assert got == want
        assert model_to_text(got) == model_to_text(want)


@pytest.mark.parametrize("data", VALID_MODELS)
def test_loader_agrees_with_reference_on_valid_texts(data):
    assert_same_verdict(data)


@pytest.mark.parametrize(
    "body",
    [
        "", "L", "L(", "L(0.5", "L(0.5,", "L(0.5,1", "L(0.5,1)", "L(0.5,1))",
        "L(0.5,1),", "L(0.5,1)x", "L(0.5(,1)", "L(0.5,1,2)", "L(0.5,1)(",
        "N(0,L(0,1),L(1,1))", "N(0,L(0,1),L(1,1)", "N(0,L(0,1)L(1,1))",
        "N(0,L(0,1),L(1,1)),", "N(0,L(0,1),L(1,1)))", "N(0,L(0,1)),L(1,1))",
        "N(0,L(0,1),,L(1,1))", "N(0,,L(0,1),L(1,1))", "N(0L(0,1),L(1,1))",
        "N(0,N(1,L(0,1),L(1,1)),L(1,1))", "N(0,L(0,1),N(1,L(0,1),L(1,1)))",
        "N(0,L(0,1),N(1,L(0,1),L(1,1))x)", "N(2,L(0,1),L(1,1))", "N(-1,L(0,1),L(1,1))",
        "L(nan,1)", "L(1.5,1)", "L(-0.0,1)", "L(0.5,-1)", "L( 0.5 ,\t3 )", "N(,L(0,1),L(1,1))",
        " L(0.5,1)", "L(0.5,1) ",
    ],
)
def test_loader_agrees_with_reference_on_edge_bodies(body):
    text = f"pamper-model v1 features=2 depth=2\nm\tL(1,1)\nn\t{body}\no\tL(0,1)\n"
    assert_same_verdict(text.encode("utf-8"))


@FUZZ
@given(mutated_model_texts())
def test_loader_agrees_with_reference_on_mutated_texts(data):
    assert_same_verdict(data)


INPUT_ALPHABET = st.sampled_from(
    list("01234567 89.,()[]NL\t\n\r=-:#_e+") + ["features", "noise", "rule", "fallback",
    "zipf", "->", "pamper-model v1 ", "depth=", "simp", "\xff", "é"]
)
PARSERS = [
    model_from_text,
    parse_feature_catalog,
    parse_planted_config,
    parse_database,
    lambda data: parse_vectors(data, 3),
]


def assert_only_pamper_errors(data: bytes) -> None:
    for parse in PARSERS:
        try:
            parse(data)
        except PamperError:
            pass


@FUZZ
@given(st.binary(max_size=400))
def test_random_bytes_raise_only_pamper_errors(data):
    assert_only_pamper_errors(data)


@FUZZ
@given(st.lists(INPUT_ALPHABET, max_size=60))
def test_random_token_soup_raises_only_pamper_errors(tokens):
    text = "".join(tokens)
    assert_only_pamper_errors(text.encode("utf-8"))
    assert_only_pamper_errors(text.encode("latin-1", errors="replace"))
