"""Differential and fuzz tests for the input parsers.

The model loader is compared against the recursive reference parser in
``oracles`` on mutated model texts, and its bulk reader against its strict
parser on mutated canonical models; the database and vector-file readers
are compared against their strict line parser on mutated canonical files,
and against themselves with the read size cut to a few bytes, from bytes
and from file objects, so that block boundaries fall anywhere in a line;
every parser is fed random bytes, which may only ever raise ``PamperError``.
The CLI is driven with random argv and ``PAMPER_THREADS`` values, which may
only ever exit 0 or 2, without a traceback.
"""
import os
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pamper import corpus as corpus_module
from pamper import trees as trees_module
from pamper.corpus import (
    Corpus,
    parse_database,
    parse_feature_catalog,
    parse_vectors,
    serialize_database,
)
from pamper.errors import ModelParseError, PamperError
from pamper.synth import generate, parse_planted_config
from pamper.trees import model_from_text, model_to_text, save_model, train

from cli_helpers import run_main
from oracles import (
    input_sources,
    late_block_inputs,
    random_corpus,
    random_model,
    reference_model_from_text,
)

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


CANONICAL_MODELS = [
    model_to_text(random_model(np.random.default_rng(seed), values=values)).encode("ascii")
    for seed, values in zip(range(10), [None, None, None, None, None, [0.0, 1.0, 0.5, 1e-05]] * 2)
] + [
    model_to_text(train(generate(parse_planted_config(
        "features = 4\nnoise = 0.2\nrule 0.5 : 0=1 -> simp:1.0\nfallback : auto:0.6, blast:0.4\n"
    ), 200, 5))).encode("ascii"),
    b"pamper-model v1 features=12 depth=12\nm\t" + b"N(11," * 12 + b"L(0.5,3)" + b",L(-0.0,9))" * 12
    + b"\nn\tL(1.0,123456789012345678)\n",
]
# Digit rewrites keep a model canonical, so they are drawn more often than the rest.
MODEL_EDITS = [
    "digit", "digit", "digit", "piece", "piece", "truncate", "flip", "insert", "delete", "swap",
    "append",
]
PIECES = re.compile(rb"N\(\d+,|L\([^,]*,\d+\)|\)|,")  # the writer's pieces of a tree
MODEL_TOKENS = [
    b",", b")", b"(", b"N(", b"L(", b"0", b"9", b".", b"e", b"-", b"\t", b"\n", b"\r", b" ", b"_",
]


@st.composite
def mutated_canonical_models(draw):
    """Canonical model text after one to four rewritten digits, deletes,
    copies or moves of a tree piece (``N(f,``, ``L(x,c)``, ``)`` or ``,``),
    truncations, byte flips, inserts or deletes of a model token, swaps of
    two lines, or appended bytes (a 0 after a number among them)."""
    data = bytearray(draw(st.sampled_from(CANONICAL_MODELS)))
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(MODEL_EDITS))
        if edit == "digit":
            at = next((i for i in range(pos, len(data)) if data[i] in b"0123456789"), None)
            if at is not None:
                data[at] = draw(st.sampled_from(b"0123456789"))
        elif edit == "piece":
            lines = bytes(data).split(b"\n")
            k = draw(st.integers(0, len(lines) - 1))
            name, tab, body = lines[k].partition(b"\t")
            pieces = PIECES.findall(body)
            if pieces:
                i = draw(st.integers(0, len(pieces) - 1))
                move = draw(st.sampled_from(["delete", "copy", "move"]))
                piece = pieces[i] if move == "copy" else pieces.pop(i)
                if move != "delete":
                    pieces.insert(draw(st.integers(0, len(pieces))), piece)
                lines[k] = name + tab + b"".join(pieces)
                data = bytearray(b"\n".join(lines))
        elif edit == "truncate":
            del data[pos:]
        elif edit == "flip" and pos < len(data):
            data[pos] = draw(st.sampled_from(b"NL(),.-e019\t\n\r ") | st.integers(0, 255))
        elif edit == "insert":
            data[pos:pos] = draw(st.sampled_from(MODEL_TOKENS))
        elif edit == "delete":
            token = draw(st.sampled_from(MODEL_TOKENS))
            at = data.find(token, pos)
            if at >= 0:
                del data[at:at + len(token)]
        elif edit == "swap":
            lines = bytes(data).split(b"\n")
            i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
            data = bytearray(b"\n".join(lines))
        elif edit == "append":
            at = data.find(b",", pos)
            data[at:at] = draw(st.sampled_from([b"0", b"00", b"1"])) if at >= 0 else b""
    return bytes(data)


def strict_model(data):
    with mock.patch.object(trees_module, "_canonical_trees", lambda data: None):
        return model_from_text(data)


@FUZZ
@given(mutated_canonical_models())
def test_bulk_model_reader_agrees_with_the_strict_parser(data):
    try:
        want = strict_model(data)
    except PamperError as exc:
        assert trees_module._canonical_trees(data) is None
        with pytest.raises(PamperError) as info:
            model_from_text(data)
        got = info.value
        assert type(got) is type(exc)
        assert getattr(got, "line_no", None) == getattr(exc, "line_no", None)
        assert str(got) == str(exc)
        return
    for source in (data, data.decode("utf-8")):
        got = model_from_text(source)
        assert (got.feature_count, got.max_depth, list(got.trees)) == (
            want.feature_count, want.max_depth, list(want.trees),
        )
        *arrays, depth = got.table
        *expected, want_depth = want.table
        assert depth == want_depth
        for array, reference in zip(arrays, expected):
            # Compared as bits, so that -0.0 and 0.0 differ.
            assert array.dtype == reference.dtype and array.tobytes() == reference.tobytes()
        assert model_to_text(got) == model_to_text(want)


CANONICAL_CORPORA = [
    random_corpus(np.random.default_rng(seed), max_points=12, max_features=6) for seed in range(10)
]
LINE_TOKENS = [b",", b"]", b"[", b" ", b"\r", b"#", b"\n"]
# Toggles keep a file canonical, so they are drawn more often than the rest.
EDITS = ["toggle", "toggle", "toggle", "truncate", "flip", "insert", "delete", "width", "name"]
NAME_EDITS = [
    b"", b"x", b"m042", b"co-auto", b"meson'", b" simp", b"a b", b"#", b"\xc3\xa9", b"\xff", b"[1]",
]


@st.composite
def mutated_canonical_files(draw):
    """A canonical database or vector file of a random corpus, its width,
    and whether it is a vector file, after one to four truncations, byte
    flips, 0/1 toggles, inserts or deletes of a line token, row-width
    changes (one flag dropped or some added), or method-name edits."""
    corpus = draw(st.sampled_from(CANONICAL_CORPORA))
    vectors = draw(st.booleans())
    text = serialize_database(corpus)
    if vectors:
        text = "".join(line.partition(", ")[2] + "\n" for line in text.splitlines())
    data = bytearray(text.encode("ascii"))
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        line = data.rfind(b"\n", 0, pos) + 1
        edit = draw(st.sampled_from(EDITS))
        if edit == "truncate":
            del data[pos:]
        elif edit == "flip" and pos < len(data):
            data[pos] = draw(st.sampled_from(b"01,[] #\r\n") | st.integers(0, 255))
        elif edit == "toggle":
            at = next((i for i in range(pos, len(data)) if data[i] in b"01"), None)
            if at is not None:
                data[at] ^= 1
        elif edit == "insert":
            data[pos:pos] = draw(st.sampled_from(LINE_TOKENS))
        elif edit == "delete":
            token = draw(st.sampled_from(LINE_TOKENS))
            at = data.find(token, pos)
            if at >= 0:
                del data[at:at + len(token)]
        elif edit == "width":
            close = data.find(b"]", line)
            if close >= 2:
                grow = draw(st.sampled_from([b"", b"0,", b"1,1,"]))
                data[close - 2:close] = grow + data[close - 2:close] if grow else b""
        elif edit == "name":
            end = data.find(b"," if not vectors else b"[", line)
            data[line:max(end, line)] = draw(st.sampled_from(NAME_EDITS))
    return bytes(data), corpus.feature_count, vectors


def strict_parse(parse, data):
    with mock.patch.object(corpus_module, "_canonical_records", lambda data, width: None):
        return parse(data)


def assert_paths_agree(parse, data) -> None:
    try:
        want = strict_parse(parse, data)
    except PamperError as exc:
        with pytest.raises(PamperError) as info:
            parse(data)
        got = info.value
        assert type(got) is type(exc)
        assert getattr(got, "line_no", None) == getattr(exc, "line_no", None)
        assert str(got) == str(exc)
    else:
        got = parse(data)
        if isinstance(want, Corpus):
            assert got == want
        else:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)


@FUZZ
@given(mutated_canonical_files())
def test_ingest_agrees_with_the_strict_parser_on_mutated_files(case):
    data, width, vectors = case
    parse = (lambda d: parse_vectors(d, width)) if vectors else parse_database
    assert_paths_agree(parse, data)
    if data.isascii():
        assert_paths_agree(parse, data.decode("ascii"))


READ_SIZES = [1, 7, 64, 4096]


def streamed_outcome(parse, source):
    try:
        got = parse(source)
    except PamperError as exc:
        return type(exc), getattr(exc, "line_no", None), str(exc)
    if isinstance(got, Corpus):
        features = got.features
        return got.method_names, got.vocab, got.codes.tolist(), features.dtype, features.tolist()
    return got.dtype, got.shape, got.tolist()


def assert_streaming_agrees(parse, data: bytes) -> None:
    """Parsing ``data`` in small blocks, from bytes or a file object, gives what one block gives."""
    want = streamed_outcome(parse, data)
    for size in READ_SIZES:
        with mock.patch.object(corpus_module, "_SCAN_BYTES", size):
            for source in input_sources(data):
                assert streamed_outcome(parse, source) == want, (size, type(source).__name__)


@FUZZ
@given(mutated_canonical_files())
def test_block_boundaries_do_not_change_what_ingest_gives(case):
    data, width, vectors = case
    assert_streaming_agrees((lambda d: parse_vectors(d, width)) if vectors else parse_database, data)


@pytest.mark.parametrize("name", list(late_block_inputs()))
@pytest.mark.parametrize("vectors", [False, True], ids=["database", "vector-file"])
def test_late_blocks_and_edges_agree_with_one_block(name, vectors):
    data = late_block_inputs(vectors)[name]
    assert_streaming_agrees((lambda d: parse_vectors(d, 6)) if vectors else parse_database, data)


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


ARGV_CONFIG = """\
features = 4
noise = 0.1
rule 0.5 : 0=1 -> simp:1.0
fallback : auto:0.6, blast:0.4
"""
NUMBERS = ["0", "1", "-1", "2", str(2**63), str(10**18), "nan", "inf", "1e-300", ""]
BAD_INPUTS = ["", "{missing}", "{dir}"]
BAD_OUTPUTS = ["", "{dir}", "{file}/out"]
# Argv placeholders by slot kind; the fixture paths replace the {names}.
# Good paths are drawn more often, so that most argvs reach the flag checks.
SLOTS = {
    "db": ["{db}"] * 6 + BAD_INPUTS,
    "model": ["{model}"] * 6 + BAD_INPUTS,
    "vector": ["{vectors}"] * 3 + ["[0,1,0,1]"] * 3 + ["[0,1]"] + BAD_INPUTS,
    "method": ["simp", "simp", "auto", "zap", ""],
    "config": ["{config}"] * 6 + BAD_INPUTS,
    "catalog": ["{catalog}"] * 3 + BAD_INPUTS,
    "out": ["{out}"] * 3 + BAD_OUTPUTS,
    "out_dir": ["{reports}"] * 3 + ["{file}"] + BAD_OUTPUTS,
    "number": NUMBERS,
}
# Subcommand -> (positional slots, {flag: value slot, or None for a switch}).
COMMANDS = {
    "train": (["db", "out"], {"--max-depth": "number", "--min-split": "number"}),
    "which": (["model", "vector"], {"-k": "number", "--json": None}),
    "why": (["model", "vector", "method"], {"--catalog": "catalog", "--json": None}),
    "rank": (["model", "vector", "method"], {"--json": None}),
    "evaluate": (
        ["db"],
        {
            "--fraction": "number", "--seed": "number", "--top": "number",
            "--max-depth": "number", "--min-split": "number", "--out-dir": "out_dir",
        },
    ),
    "prune": (["model"], {"--catalog": "catalog"}),
    "gen": (["config", "number", "number"], {"-o": "out"}),
    "stats": (["db"], {}),
    "inspect": (["model"], {}),
}
THREADS = [None, "1", "2", "0", "-1", "x", ""]


@st.composite
def cli_argvs(draw):
    """One subcommand with each positional and up to three flags drawn from its slots."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    slots, flags = COMMANDS[command]
    argv = [command] + [draw(st.sampled_from(SLOTS[slot])) for slot in slots]
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=3)) if flags else []
    for flag in chosen:
        argv.append(flag)
        if flags[flag]:
            argv.append(draw(st.sampled_from(SLOTS[flags[flag]])))
    return argv


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """A 60-point database, its model, vectors, a catalog and a planted config.

    The working directory moves into the same scratch directory, since an
    empty ``--out-dir`` writes the reports there.
    """
    root = tmp_path_factory.mktemp("argv")
    paths = {name: str(root / name) for name in ("config", "db", "model", "vectors", "catalog")}
    paths.update(
        missing=str(root / "missing"), dir=str(root / "dir"), file=str(root / "file"),
        out=str(root / "out"), reports=str(root / "reports"),
    )
    (root / "dir").mkdir()
    (root / "file").write_text("a regular file\n", encoding="utf-8")
    (root / "config").write_text(ARGV_CONFIG, encoding="utf-8")
    corpus = generate(parse_planted_config(ARGV_CONFIG), 60, 3)
    (root / "db").write_text(serialize_database(corpus), encoding="utf-8")
    save_model(train(corpus), paths["model"])
    (root / "vectors").write_text("[1,0,0,1]\n[0,0,0,0]\n", encoding="utf-8")
    (root / "catalog").write_text("0\tthe goal is an equation\n", encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(root)
    yield paths
    os.chdir(cwd)


@FUZZ
@given(argv=cli_argvs(), threads=st.sampled_from(THREADS))
@example(argv=["evaluate", "{db}", "--top", str(10**18), "--out-dir", "{reports}"], threads=None)
@example(argv=["gen", "{config}", str(2**63), "1"], threads=None)
def test_cli_exits_0_or_2_without_a_traceback(cli_files, argv, threads):
    env = {} if threads is None else {"PAMPER_THREADS": threads}
    with mock.patch.dict(os.environ, env):
        if threads is None:
            os.environ.pop("PAMPER_THREADS", None)
        code, _, err = run_main([arg.format(**cli_files) for arg in argv])
    assert code in (0, 2), err
    assert "Traceback" not in err
    if code == 2:  # argparse's usage error, or one line from main's PamperError handler
        assert "error: " in err or (err.startswith("pamper: ") and err.count("\n") == 1), err
