import contextlib
import io
import os
import threading
import tracemalloc
from collections import Counter
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from pamper.corpus import (
    Corpus,
    FeatureCatalog,
    corpus_stats,
    parse_database,
    parse_feature_catalog,
    parse_vector,
    parse_vectors,
    serialize_database,
    write_database,
)
from pamper._format import quantize_percents
from pamper.errors import (
    BadIndexError,
    DuplicateIndexError,
    EmptyDatabaseError,
    InconsistentWidthError,
    InvalidValueError,
    MalformedLineError,
    PamperError,
    PlantedConfigError,
    VectorWidthMismatchError,
)
from pamper import _kernels
from pamper import corpus as corpus_module
from pamper.preprocess import single_target_split
from pamper.synth import PlantedModel, generate, parse_planted_config, zipf_imbalance

from oracles import (
    WORD_ROWS,
    corpus_of_rows,
    input_sources,
    late_block_inputs,
    random_corpus,
    random_method_names,
    reference_parse_database,
    reference_parse_vectors,
    reference_serialize_database,
    reference_take,
)


def test_parse_single_record():
    c = parse_database("induct, [1,0,0,1,0]\n")
    assert len(c) == 1
    assert c.feature_count == 5
    assert c.method_names == ("induct",)
    assert c.features.tolist() == [[1, 0, 0, 1, 0]]


def test_parse_tolerates_spaces_blanks_comments_crlf():
    text = "# header comment\r\n\r\n  simp ,  [ 1 , 0 ]  \r\nauto, [0,1]\n\n"
    c = parse_database(text)
    assert c.method_names == ("simp", "auto")
    assert c.features.tolist() == [[1, 0], [0, 1]]


def test_parse_accepts_bytes():
    c = parse_database(b"simp, [1]\n")
    assert c.method_names == ("simp",)


def test_parse_rejects_non_utf8_bytes_with_line_number():
    with pytest.raises(MalformedLineError) as info:
        parse_database(b"simp, [1,0]\r\nauto, [\xff\xfe]\nsimp, [0,1]\n")
    assert info.value.line_no == 2
    assert "UTF-8" in str(info.value)


def test_parse_empty_database():
    with pytest.raises(EmptyDatabaseError):
        parse_database("# only a comment\n\n")


def test_parse_inconsistent_width_reports_line():
    with pytest.raises(InconsistentWidthError) as info:
        parse_database("a, [1,0]\nb, [1]\n")
    assert info.value.line_no == 2
    assert info.value.got == 1
    assert info.value.want == 2


@pytest.mark.parametrize(
    "line,message",
    [
        pytest.param(line, message, id=line)
        for line, message in [
            ("justaname", "expected '<method>, [<bits>]'"),
            ("a, 1,0", "feature vector must be bracketed"),
            ("a, [1,2]", "feature flag must be 0 or 1, got '2'"),
            ("a, []", "feature flag must be 0 or 1, got ''"),
            ("a, [1,]", "feature flag must be 0 or 1, got ''"),
            ("bad name, [1]", "invalid method name: 'bad name'"),
            ("a; [1]", "expected '<method>, [<bits>]'"),
            (", [1]", "invalid method name: ''"),
        ]
    ],
)
def test_parse_malformed_lines(line, message):
    with pytest.raises(MalformedLineError) as info:
        parse_database(f"ok, [1]\n{line}\n")
    assert info.value.line_no == 2
    assert str(info.value) == f"line 2: {message}"


def test_method_token_grammar_allows_odd_names():
    text = "-, [1]\nsimp_all, [0]\nmeson', [1]\nauto.intro, [0]\nco-auto, [1]\n"
    c = parse_database(text)
    assert c.method_names == ("-", "simp_all", "meson'", "auto.intro", "co-auto")


def test_duplicates_are_kept():
    c = parse_database("simp, [1]\nsimp, [1]\n")
    assert len(c) == 2
    assert c.method_counts == {"simp": 2}


def test_round_trip_property():
    rng = np.random.default_rng(1234)
    for _ in range(60):
        c = random_corpus(rng)
        again = parse_database(serialize_database(c))
        assert again == c


# Names that use every METHOD_TOKEN character class.
ODD_NAMES = ("meson'", "auto.intro", "co-auto", "simp_all", "m042", "-", "Xy'._-9")
BLOCK = corpus_module._BLOCK_ROWS


@pytest.mark.parametrize(
    "rows,width",
    [(0, 3), (7, 1), (BLOCK - 1, 5), (BLOCK, 2), (BLOCK + 1, 9), (300, 108)],
)
def test_writer_matches_reference_byte_for_byte(rows, width):
    rng = np.random.default_rng(rows * 1009 + width)
    X = (rng.random((rows, width)) < rng.uniform(0.2, 0.8)).astype(np.uint8)
    names = random_method_names(rng, rows)
    for i, name in zip(rng.choice(rows, size=min(rows, len(ODD_NAMES)), replace=False), ODD_NAMES):
        names[int(i)] = name
    c = Corpus(tuple(names), X, width)
    text = serialize_database(c)
    assert text == reference_serialize_database(c)
    writes = []
    write_database(c, SimpleNamespace(write=writes.append))
    assert (len(writes), "".join(writes)) == (-(-rows // BLOCK), text)  # one str per block
    if rows:
        assert parse_database(text) == c


def test_writing_a_database_holds_one_block_of_text():
    # The whole text is about 2 * n * F bytes; the writer holds one block's
    # text, rows and template at a time, whatever the corpus's size.
    n, width = 200_000, 108
    names = [f"m{i:03d}" for i in range(169)]
    corpus = generate(PlantedModel((), zipf_imbalance(names, 1.4322), width, 0.3), n, seed=0)
    tracemalloc.start()
    try:
        write_database(corpus, SimpleNamespace(write=len))  # a sink that discards its writes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * width // 2, peak


def _line_parser_must_not_run(*args):
    raise AssertionError("the line parser ran on canonical input")


def _vector_file(database_text: str) -> str:
    return "".join(line.partition(", ")[2] + "\n" for line in database_text.splitlines())


def _with_skipped_lines(rng, text: str) -> str:
    """``text`` after a ``# x, [0]`` comment, with empty and ``#`` lines between its lines."""
    skipped = ("\n", "#\n", "# a, [1,0]\n", "#[1]\n")
    out = ["# x, [0]\n"]
    for line in text.splitlines(keepends=True):
        if rng.random() < 0.3:
            out.append(skipped[int(rng.integers(len(skipped)))])
        out.append(line)
    return "".join(out)


def _no_line_parser(monkeypatch):
    for name in ("_parse_lines", "_parse_record", "_parse_bits"):
        monkeypatch.setattr(corpus_module, name, _line_parser_must_not_run)


def test_canonical_input_skips_the_strict_parser(monkeypatch):
    _no_line_parser(monkeypatch)
    rng = np.random.default_rng(808)
    skip_rng = np.random.default_rng(809)
    for _ in range(40):
        c = random_corpus(rng)
        text = serialize_database(c)
        assert parse_database(text.encode("ascii")) == c
        assert parse_database(text) == c  # ASCII text, as open(...).read() gives
        # Empty and '#' lines are skipped; a leading comment does not set the width.
        assert parse_database(_with_skipped_lines(skip_rng, text).encode("ascii")) == c
        vectors = _vector_file(text)
        mixed = _with_skipped_lines(skip_rng, vectors)
        for data in (vectors, vectors.encode("ascii"), mixed, mixed.encode("ascii")):
            got = parse_vectors(data, c.feature_count)
            assert got.dtype == np.uint8 and np.array_equal(got, c.features)


@pytest.mark.parametrize("size", [1, 7, 64, 300, 4096])
def test_small_blocks_and_file_objects_keep_the_canonical_reader(monkeypatch, size):
    _no_line_parser(monkeypatch)
    monkeypatch.setattr(corpus_module, "_SCAN_BYTES", size)
    rng = np.random.default_rng(810)
    skip_rng = np.random.default_rng(811)
    corpora = [random_corpus(rng) for _ in range(10)]
    if size >= 64:  # blocks of a few rows or more end before, on and after 64-row words
        corpora += [corpus_of_rows(rows, seed) for seed, rows in enumerate(WORD_ROWS) if rows]
    for c in corpora:
        text = _with_skipped_lines(skip_rng, serialize_database(c))
        for source in input_sources(text.encode("ascii")):
            got = parse_database(source)
            assert got == c and got.codes.tolist() == c.codes.tolist()
            # Whole words of the transposed features, padding bits zero.
            assert np.array_equal(got.columns, _kernels.pack_bits(c.features.T))
        vectors = _with_skipped_lines(skip_rng, _vector_file(serialize_database(c)))
        for source in input_sources(vectors.encode("ascii")):
            got = parse_vectors(source, c.feature_count)
            assert got.dtype == np.uint8 and np.array_equal(got, c.features)


@pytest.fixture
def line_blocks(monkeypatch):
    """The first line number of each block that the line parser reads."""
    blocks = []
    parse = corpus_module._parse_lines

    def counted(text, line_no, width, names):
        blocks.append(line_no)
        return parse(text, line_no, width, names)

    monkeypatch.setattr(corpus_module, "_parse_lines", counted)
    return blocks


def _outcome(parse, data):
    try:
        got = parse(data)
    except PamperError as exc:
        return type(exc), getattr(exc, "line_no", None), str(exc)
    if isinstance(got, Corpus):
        return got.method_names, got.features.tolist()
    return got.tolist()


ROWS = (("a", "b"), [[1, 0], [0, 1]])


@pytest.mark.parametrize(
    "parse,data,want",
    [
        pytest.param(parse_database, b"a, [1,0]\n\n# note\nb, [0,1]\n", ROWS, id="database"),
        pytest.param(
            lambda d: parse_vectors(d, 2), b"[1,0]\n\n# note\n[0,1]\n", ROWS[1], id="vector-file"
        ),
    ],
)
def test_blank_and_comment_lines_keep_the_canonical_reader(monkeypatch, parse, data, want):
    _no_line_parser(monkeypatch)
    assert _outcome(parse, data) == want


@pytest.mark.parametrize(
    "data,want",
    [
        pytest.param(b"a, [1,0]\r\nb, [0,1]\r\n", ROWS, id="crlf"),
        pytest.param(b"a, [1, 0]\nb, [0,1]\n", ROWS, id="spaced-vector"),
        pytest.param("# r\u00e9sum\u00e9\na, [1,0]\nb, [0,1]\n".encode("utf-8"), ROWS, id="non-ascii-comment"),
        pytest.param(b"a, [1,0]\nb, [0,1]", ROWS, id="no-final-lf"),
        pytest.param("a, [1]\n#\ud800\n", (("a",), [[1]]), id="lone-surrogate-text"),
        pytest.param(
            b"a, [\n", (MalformedLineError, 1, "line 1: feature vector must be bracketed"),
            id="no-flags",
        ),
        pytest.param(
            b"a, []\n", (MalformedLineError, 1, "line 1: feature flag must be 0 or 1, got ''"),
            id="zero-width",
        ),
        pytest.param(
            b"a, [1,0]\nb, [0,1]\nc, [1]\n",
            (InconsistentWidthError, 3, "line 3: feature vector has 1 entries, expected 2"),
            id="mixed-widths",
        ),
    ],
)
def test_other_databases_take_the_strict_parser(line_blocks, data, want):
    assert _outcome(parse_database, data) == want
    assert line_blocks == [1]


@pytest.mark.parametrize(
    "data,want",
    [
        pytest.param(b"[1,0]\r\n[0,1]\r\n", ROWS[1], id="crlf"),
        pytest.param(b"[1, 0]\n[0,1]\n", ROWS[1], id="spaced-vector"),
        pytest.param("# r\u00e9sum\u00e9\n[1,0]\n[0,1]\n".encode("utf-8"), ROWS[1], id="non-ascii-comment"),
        pytest.param(b"[1,0]\n[0,1]", ROWS[1], id="no-final-lf"),
        pytest.param("[1,1]\n#\ud800\n", [[1, 1]], id="lone-surrogate-text"),
        pytest.param(
            b"[]\n", (MalformedLineError, 1, "line 1: feature flag must be 0 or 1, got ''"),
            id="zero-width",
        ),
        pytest.param(
            b"[1,0]\n[0,1]\n[1]\n",
            (VectorWidthMismatchError, 3, "line 3: vector has 1 entries, model expects 2"),
            id="mixed-widths",
        ),
    ],
)
def test_other_vector_files_take_the_strict_parser(line_blocks, data, want):
    assert _outcome(lambda d: parse_vectors(d, 2), data) == want
    assert line_blocks == [1]


@pytest.mark.parametrize(
    "name,runs",
    [("canonical", 0), ("comment-only-first-block", 0), ("crlf-late", 1),
     ("width-change-late", 1), ("tab-late", 1), ("no-final-lf", 1), ("crlf-early", 1),
     ("bad-tab-early-non-utf8-late", 1)],
)
def test_an_odd_late_block_sends_the_whole_input_to_the_strict_parser_once(
    line_blocks, monkeypatch, name, runs
):
    # Only the odd blocks go to the line parser, each once: with 64-byte
    # blocks, the four or so rows around the odd line.
    monkeypatch.setattr(corpus_module, "_SCAN_BYTES", 64)
    for vectors in (False, True):
        data = late_block_inputs(vectors)[name]
        parse, reference = parse_database, reference_parse_database
        if vectors:
            parse = partial(parse_vectors, feature_count=6)
            reference = partial(reference_parse_vectors, feature_count=6)
        want = _outcome(reference, data)
        for source in input_sources(data):
            line_blocks.clear()
            assert _outcome(parse, source) == want
            assert len(line_blocks) == runs


def test_a_file_object_is_read_from_where_it_stands():
    for name in ("canonical", "crlf-late", "width-change-late"):
        data = late_block_inputs()[name]
        with io.BytesIO(b"not a record\n" + data) as handle:
            handle.seek(13)
            assert _outcome(parse_database, handle) == _outcome(parse_database, data)
            assert handle.tell() == 13 + len(data)


class _GrowingFile(io.BytesIO):
    """A file that holds half its bytes when it is first read, and the rest from then on."""

    def __init__(self, data: bytes):
        super().__init__(data[:len(data) // 2])
        self._rest = data[len(data) // 2:]

    def read(self, size=-1):
        got = super().read(size)
        at = self.tell()
        self.seek(0, io.SEEK_END)
        self.write(self._rest)
        self._rest = b""
        self.seek(at)
        return got


def test_a_file_that_grows_while_read_is_read_to_its_end(monkeypatch):
    monkeypatch.setattr(corpus_module, "_SCAN_BYTES", 64)
    for name in ("canonical", "crlf-early"):
        for vectors in (False, True):
            data = late_block_inputs(vectors)[name]
            parse = (lambda d: parse_vectors(d, 6)) if vectors else parse_database
            with _GrowingFile(data) as handle:
                assert _outcome(parse, handle) == _outcome(parse, data)
                assert handle.tell() == len(data)


class _CountedText(io.StringIO):
    """A text handle that counts its ``read`` calls."""

    def __init__(self, text: str):
        super().__init__(text)
        self.reads = 0

    def read(self, size=-1):
        self.reads += 1
        return super().read(size)


def test_a_text_source_raises_its_line_error_without_reading_on(monkeypatch):
    # Text holds no byte that is not UTF-8, so no later block could hold an
    # error to report first: the first block's line error is raised at once.
    monkeypatch.setattr(corpus_module, "_SCAN_BYTES", 64)
    handle = _CountedText("not a record\n" + "a, [1,0]\n" * 100)
    with pytest.raises(MalformedLineError, match="^line 1: "):
        parse_database(handle)
    assert handle.reads == 1


def _through_a_pipe(parse, data: bytes):
    reader, writer = os.pipe()
    # The input fits the pipe's buffer, so the write returns before anything reads.
    with open(writer, "wb") as sink:
        sink.write(data)
    with open(reader, "rb") as source:
        assert not source.seekable()
        return _outcome(parse, source)


@pytest.mark.parametrize(
    "data",
    [b"a, [1,0]\nb, [0,1]\n", b"[1,0]\n[0,1]\n", b"a, [1,0]\nb, [0,1,1]\n", b"a, [1,0]\r\n", b""],
    ids=["database", "vector-file", "mixed-widths", "crlf", "empty"],
)
def test_a_pipe_gives_what_bytes_give(data):
    for parse in (parse_database, lambda d: parse_vectors(d, 2)):
        assert _through_a_pipe(parse, data) == _outcome(parse, data)


def _traced_parse_peak(path, opener=partial(open, mode="rb")) -> tuple[Corpus, int]:
    """The corpus parsed from ``opener(path)`` and the traced peak above what was held before."""
    tracemalloc.start()
    try:
        with opener(path) as source:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            got = parse_database(source)
            peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return got, peak


def _database_20k(tmp_path):
    """A 20k x 108 corpus and its canonical database file (4.46 MB)."""
    names = [f"m{i:02d}" for i in range(40)]
    corpus = generate(PlantedModel((), zipf_imbalance(names, 1.2), 108, 0.3), 20000, seed=5)
    path = tmp_path / "db.txt"
    path.write_text(serialize_database(corpus), encoding="ascii")
    return corpus, path


def test_parsing_a_file_object_never_holds_the_file(tmp_path, monkeypatch):
    # The traced peak is the packed columns plus a slack that does not grow
    # with the file: a handful of small blocks, and the names and codes of
    # the corpus itself (24 bytes a row here, 0.5 MB in all). One byte per
    # flag would be 8 times the columns.
    slack = 1 << 20
    corpus, path = _database_20k(tmp_path)
    assert path.stat().st_size > 4 * slack
    monkeypatch.setattr(corpus_module, "_SCAN_BYTES", 4096)
    got, peak = _traced_parse_peak(path)
    assert got == corpus
    assert got.columns.base is None  # its words joined once, not a slice of a larger array
    assert peak < got.columns.nbytes + slack, (peak, got.columns.nbytes)


def test_a_text_source_holds_one_form_of_each_block(tmp_path):
    # A str or a text handle is encoded a block at a time and only the bytes
    # are kept, so its traced peak stays within one block of a binary
    # handle's; text and bytes held together were two blocks more.
    corpus, path = _database_20k(tmp_path)
    _, binary_peak = _traced_parse_peak(path)
    openers = (
        lambda p: contextlib.nullcontext(p.read_text(encoding="ascii")),
        partial(open, encoding="utf-8"),
    )
    for opener in openers:
        got, peak = _traced_parse_peak(path, opener)
        assert got == corpus
        assert peak < binary_peak + corpus_module._SCAN_BYTES, (peak, binary_peak)


def test_a_crlf_database_is_held_one_block_at_a_time(tmp_path):
    # Every block of the CRLF file goes to the line parser, which holds one
    # block's text and rows at a time, so the traced peak stays within twice
    # the canonical file's, where the whole decoded input was about 10 times.
    corpus, canonical = _database_20k(tmp_path)
    crlf = tmp_path / "crlf.txt"
    crlf.write_bytes(canonical.read_bytes().replace(b"\n", b"\r\n"))
    got, canonical_peak = _traced_parse_peak(canonical)
    assert got == corpus
    got, crlf_peak = _traced_parse_peak(crlf)
    assert got == corpus
    assert crlf_peak < 2 * canonical_peak, (crlf_peak, canonical_peak)


@contextlib.contextmanager
def _piped(path):
    """A binary pipe that a writer thread fills with the file's bytes as they are read."""
    data = path.read_bytes()
    reader, writer = os.pipe()

    def feed():
        with open(writer, "wb") as sink:
            sink.write(data)

    thread = threading.Thread(target=feed)
    thread.start()
    try:
        with open(reader, "rb") as source:
            yield source
    finally:
        thread.join(timeout=60)
    assert not thread.is_alive()


@pytest.mark.parametrize(
    "opener",
    [
        lambda path: contextlib.nullcontext(path.read_text(encoding="ascii")),
        partial(open, encoding="ascii"),
        _piped,
    ],
    ids=["str", "text-handle", "pipe"],
)
def test_text_and_pipes_are_read_a_block_at_a_time(tmp_path, opener):
    # A str is encoded and a text handle or a pipe read a block at a time,
    # as a binary file is, so the traced peak stays within twice the binary
    # file's, where encoding a str whole or reading a handle whole would take
    # 3 to 10 times as much.
    corpus, path = _database_20k(tmp_path)
    got, binary_peak = _traced_parse_peak(path)
    assert got == corpus
    got, peak = _traced_parse_peak(path, opener)
    assert got == corpus
    assert peak < 2 * binary_peak, (peak, binary_peak)


def test_counts_sum_to_points_property():
    rng = np.random.default_rng(99)
    for _ in range(40):
        c = random_corpus(rng)
        assert sum(c.method_counts.values()) == len(c)


def test_parse_is_total_under_fuzz():
    rng = np.random.default_rng(2024)
    alphabet = list("ab01,[] \t#'-.\\n;x")
    for _ in range(300):
        size = int(rng.integers(0, 60))
        soup = "".join(alphabet[int(i)] for i in rng.integers(0, len(alphabet), size))
        try:
            parse_database(soup)
        except PamperError as exc:
            assert isinstance(
                exc, (MalformedLineError, InconsistentWidthError, EmptyDatabaseError)
            )


def test_features_are_read_only():
    c = parse_database("a, [1,0]\nb, [0,1]\n")
    with pytest.raises(ValueError):
        c.features[0, 0] = 0


def test_feature_rows_unpack_any_rows_in_the_order_given(monkeypatch):
    monkeypatch.setattr(corpus_module, "_BLOCK_ROWS", 64)  # several blocks, word-aligned or not
    rng = np.random.default_rng(812)
    for rows in (1, 63, 64, 65, 200, 1000):
        X = (rng.random((rows, int(rng.integers(1, 12)))) < 0.5).astype(np.uint8)
        c = Corpus(tuple(random_method_names(rng, rows)), X, X.shape[1])
        for at in (np.arange(rows), rng.integers(0, rows, 300), np.arange(rows)[::-1], []):
            got = c.feature_rows(at)
            assert got.dtype == np.uint8 and got.flags.c_contiguous
            assert np.array_equal(got, X[np.asarray(at, dtype=np.intp)])
        assert np.array_equal(c.features, X) and not c.features.flags.writeable
        for bad in ([rows], [-1], [[0]], np.ones(rows, dtype=bool), [0.0]):
            with pytest.raises(IndexError):
                c.feature_rows(bad)


def test_take_preserves_order_given():
    c = parse_database("a, [1]\nb, [0]\nc, [1]\n")
    sub = reference_take(c, [2, 0])
    assert sub.method_names == ("c", "a")
    assert sub.features.tolist() == [[1], [1]]


def test_corpus_stats_single_method():
    c = parse_database("simp, [1]\nsimp, [0]\nsimp, [1]\nsimp, [0]\n")
    assert corpus_stats(c) == [("simp", 4, 100.0)]


def test_corpus_stats_order_and_percent():
    c = parse_database("simp, [1]\nsimp, [0]\nsimp, [1]\nauto, [0]\n")
    assert corpus_stats(c) == [("simp", 3, 75.0), ("auto", 1, 25.0)]


def test_corpus_stats_ties_break_by_name():
    c = parse_database("zz, [1]\naa, [1]\nmm, [1]\n")
    assert [r[0] for r in corpus_stats(c)] == ["aa", "mm", "zz"]


def test_corpus_stats_rounded_percents_sum_close_to_100():
    # independent per-row rounding drifts when many methods tie, so the
    # displayed column is quantized jointly; each entry still lands within
    # one decimal unit of its exact percent
    rng = np.random.default_rng(5)
    for _ in range(30):
        c = random_corpus(rng, max_points=37)
        exact = [pct for _, _, pct in corpus_stats(c)]
        shown = quantize_percents(exact)
        assert abs(sum(shown) - 100.0) <= 0.1 + 1e-9
        for got, want in zip(shown, exact):
            assert abs(got - want) < 0.1
            assert got == round(got, 1)


def test_parse_vector_literal_and_width():
    v = parse_vector(" [ 1 , 0 , 1 ] ")
    assert v.tolist() == [1, 0, 1]
    with pytest.raises(VectorWidthMismatchError) as info:
        parse_vector("[1,0]", feature_count=3)
    assert str(info.value) == "vector has 2 entries, model expects 3"
    with pytest.raises(MalformedLineError):
        parse_vector("1,0,1")
    with pytest.raises(VectorWidthMismatchError) as info:
        parse_vectors("[1,0,1]\n\n[1,0]\n", 3)
    assert info.value.line_no == 3
    assert str(info.value) == "line 3: vector has 2 entries, model expects 3"
    assert parse_vectors("# none\n", 3).shape == (0, 3)


def _read_database(data):
    corpus = parse_database(data)
    return corpus.method_names, corpus.features.tolist()


def _read_catalog(data):
    return dict(parse_feature_catalog(data).descriptions)


def _read_config(data):
    model = parse_planted_config(data)
    return model.feature_count, [dict(rule.pattern) for rule in model.rules], dict(model.fallback)


def _read_vectors(data):
    return parse_vectors(data, 2).tolist()


SKIPPED_LINES = ["", "   \t", "# comment", "  # indented comment"]


@pytest.mark.parametrize(
    "read,lines,want,bad,error",
    [
        pytest.param(
            _read_database, ["simp, [1,0]", " auto , [0, 1] "], (("simp", "auto"), [[1, 0], [0, 1]]),
            "auto [0,1]", MalformedLineError, id="database",
        ),
        pytest.param(
            _read_catalog, ["0\tthe goal is an equation", "1\t has a quantifier "],
            {0: "the goal is an equation", 1: "has a quantifier"},
            "x\tdesc", BadIndexError, id="catalog",
        ),
        pytest.param(
            _read_config, ["features = 2", "rule 0.5 : 1=1 -> simp:1.0", "fallback : auto:1.0"],
            (2, [{1: True}], {"auto": 1.0}),
            "rule 0.5", PlantedConfigError, id="config",
        ),
        pytest.param(
            _read_vectors, ["[1,0]", " [ 0 , 1 ]"], [[1, 0], [0, 1]],
            "[1,2]", MalformedLineError, id="vectors",
        ),
    ],
)
def test_readers_share_the_data_line_rules(read, lines, want, bad, error):
    # Blank, whitespace-only and '#' lines around every data line, CRLF endings.
    def framed(rows):
        return "".join(f"{line}\r\n" for row in rows for line in SKIPPED_LINES + [row])

    assert read("\n".join(lines)) == want
    assert read(framed(lines)) == want
    assert read(framed(lines).encode("utf-8")) == want
    with pytest.raises(error) as info:
        read(framed(lines[:-1] + [bad, bad]))
    assert info.value.line_no == len(lines) * (len(SKIPPED_LINES) + 1)


def test_catalog_parse_describe_and_fallback():
    cat = parse_feature_catalog("14\tthe context has locally defined assumptions\n")
    assert cat.describe(14) == "the context has locally defined assumptions"
    assert cat.describe(3) == "feature #3 holds"
    assert len(cat) == 1


def test_catalog_empty_input_is_valid():
    assert len(parse_feature_catalog("")) == 0
    assert len(parse_feature_catalog("# nothing\n")) == 0


def test_catalog_duplicate_index():
    with pytest.raises(DuplicateIndexError) as info:
        parse_feature_catalog("1\tone\n1\talso one\n")
    assert info.value.index == 1


@pytest.mark.parametrize("line", ["x\tdesc", "-3\tdesc", "5 desc", "7\t", "7\t   "])
def test_catalog_bad_lines(line):
    with pytest.raises(BadIndexError):
        parse_feature_catalog(line + "\n")


def test_catalog_range_check():
    cat = FeatureCatalog({3: "three"})
    cat.check_range(4)
    with pytest.raises(BadIndexError):
        cat.check_range(3)


def test_corpus_rejects_bad_programmatic_input():
    with pytest.raises(ValueError):
        Corpus(("a",), np.array([[2]], dtype=np.uint8), 1)
    with pytest.raises(ValueError):
        Corpus(("bad name",), np.array([[1]], dtype=np.uint8), 1)
    with pytest.raises(ValueError):
        Corpus(("a",), np.array([[1, 0]], dtype=np.uint8), 1)


@pytest.mark.parametrize(
    "count,message",
    [
        (2.0, "feature count must be an integer, got 2.0"),
        (np.float64(2.0), "feature count must be an integer, got np.float64(2.0)"),
        (True, "feature count must be an integer, got True"),
        ("2", "feature count must be an integer, got '2'"),
        (0, "feature count must be positive"),
        (-1, "feature count must be positive"),
    ],
    ids=["float", "float64", "bool", "str", "zero", "negative"],
)
def test_corpus_admits_only_an_integer_feature_count(count, message):
    # A float count used to pass the shape check ((2, 2) == (2, 2.0)) and fail
    # only later, in serialize_database or train.
    X = np.array([[1, 0], [0, 1]], dtype=np.uint8)
    with pytest.raises(InvalidValueError) as info:
        Corpus(("a", "b"), X, count)
    assert str(info.value) == message
    corpus = Corpus(("a", "b"), X, np.int64(2))
    assert serialize_database(corpus) == "a, [1,0]\nb, [0,1]\n"


def test_corpus_features_are_two_dimensional():
    with pytest.raises(ValueError) as info:
        Corpus(("a",), np.array([1], dtype=np.uint8), 1)
    assert str(info.value) == "features must be a 2-D array"


def test_corpus_stats_of_an_empty_corpus():
    with pytest.raises(EmptyDatabaseError) as info:
        corpus_stats(Corpus((), np.zeros((0, 2), dtype=np.uint8), 2))
    assert str(info.value) == "corpus has no points"


@pytest.mark.parametrize("data", [b"\n", b"#\n", b"# a, [0]\n\n#\n", "\n# x\n"])
def test_only_blank_and_comment_lines_are_an_empty_database(data):
    with pytest.raises(EmptyDatabaseError):
        parse_database(data)
    assert parse_vectors(data, 3).shape == (0, 3)


def test_vocab_codes_counts_and_labels_follow_the_names():
    rng = np.random.default_rng(21)
    for _ in range(40):
        c = random_corpus(rng)
        order = rng.permutation(len(c))[: int(rng.integers(0, len(c) + 1))]
        for corpus in (c, reference_take(c, order)):
            names = corpus.method_names
            vocab = tuple(sorted(set(names)))
            assert corpus.vocab == vocab
            assert corpus.codes.dtype == np.intp and not corpus.codes.flags.writeable
            assert corpus.codes.tolist() == [vocab.index(name) for name in names]
            assert corpus.method_counts == Counter(names)
            assert list(corpus.method_counts) == list(vocab)
            if len(corpus):
                split = single_target_split(corpus)
                assert list(split) == list(vocab)
                for i, dataset in enumerate(split.values()):
                    assert np.array_equal(dataset.labels, corpus.codes == i)
