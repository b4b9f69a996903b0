"""Parsing, validation, and summaries for proof-method databases.

A database is UTF-8 text holding one record per line::

    induct, [1,0,0,1,0]

The method name comes first, then a bracketed vector of 0/1 feature flags.
Spaces around the comma, brackets, and flags are tolerated, and both LF and
CRLF line endings are accepted. Blank lines and lines whose first non-space
character is ``#`` are skipped. The vector width of the first record fixes
the feature count for the whole file; later records must agree. A vector
file holds one bracketed vector per line under the same line rules.

An input written wholly in the canonical form that ``serialize_database``
(and so ``pamper gen``) writes -- ASCII, every line ``<name>, [b,...,b]``
(or ``[b,...,b]`` in a vector file) of one width and ended by LF, or
empty or starting with ``#`` -- is read by a vectorized path over the
raw bytes, in line-aligned blocks of about 1 MB, so a file object is never
held whole. Any other input, valid or not, goes through the strict line
parser, which is the only place that raises, so every accepted form, error
and line number is the same on both paths.

A ``Corpus`` works out its methods once, as ``vocab`` and ``codes``; every
reader of a row's method, from the writer to the evaluation, indexes by code.

A feature catalog is a separate tab-separated file mapping feature indices
to human-readable descriptions, used when rendering explanations::

    14\tthe context has locally defined assumptions
"""
from __future__ import annotations

import io
from dataclasses import dataclass, field
from functools import cached_property, partial
from types import MappingProxyType

import numpy as np

from .errors import (
    METHOD_TOKEN,
    BadIndexError,
    DuplicateIndexError,
    EmptyDatabaseError,
    InconsistentWidthError,
    MalformedLineError,
    PamperError,
    VectorWidthMismatchError,
    _as_bits,
    _check_feature_count,
    _check_index,
    _check_name,
    decode_utf8,
)


@dataclass(frozen=True, eq=False)
class Corpus:
    """An immutable sequence of (method, feature vector) records.

    ``features`` is adopted as the backing store and marked read-only, so
    pass a copy if you need to keep a writable original. Rows are uint8 in
    {0, 1} (``_as_bits``) and the matrix is C-contiguous. ``vocab`` holds the
    sorted distinct names and ``codes`` each row's index into it (read-only ``intp``).
    """

    method_names: tuple[str, ...]
    features: np.ndarray
    feature_count: int
    vocab: tuple[str, ...] = field(init=False, repr=False)
    codes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _check_feature_count(self.feature_count)
        X = _as_bits("feature values", self.features)
        if X.ndim != 2:
            raise ValueError("features must be a 2-D array")
        names = self.method_names
        if isinstance(names, str):
            raise ValueError(f"method names must be a sequence of names, not the str {names!r}")
        if X.shape != (len(names), self.feature_count):
            shape = f"{len(names)} points x {self.feature_count} features"
            raise ValueError(f"features shape {X.shape} does not match {shape}")
        try:
            distinct = set(names)
        except TypeError:  # an unhashable entry, which the scan below names
            distinct = names
        for name in distinct:
            _check_name(name)
        vocab = tuple(sorted(distinct))
        code_of = dict(zip(vocab, range(len(vocab))))
        codes = np.fromiter(map(code_of.__getitem__, names), dtype=np.intp, count=len(names))
        X.setflags(write=False)
        codes.setflags(write=False)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "method_names", tuple(names))
        object.__setattr__(self, "vocab", vocab)
        object.__setattr__(self, "codes", codes)

    def __len__(self) -> int:
        return len(self.method_names)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return (
            self.method_names == other.method_names
            and self.feature_count == other.feature_count
            and np.array_equal(self.features, other.features)
        )

    @cached_property
    def method_counts(self) -> dict[str, int]:
        """Occurrence count per distinct method name, in ``vocab`` (name) order."""
        return dict(zip(self.vocab, np.bincount(self.codes, minlength=len(self.vocab)).tolist()))


def data_lines(data: str | bytes, error: type[PamperError]) -> list[tuple[int, str]]:
    """The data lines of an input file as ``(line_no, stripped line)``, 1-based.

    Bytes are decoded by ``decode_utf8``, so one that is not UTF-8 raises
    ``error`` with its line number. Lines are split at LF and stripped (a CR
    before the LF goes with the other surrounding whitespace); blank lines
    and lines whose first non-space character is ``#`` are skipped. The
    result is a list so that the decoded text is freed before the caller
    parses the lines.
    """
    lines = map(str.strip, decode_utf8(data, error).split("\n"))
    return [(n, line) for n, line in enumerate(lines, start=1) if line and line[0] != "#"]


def _parse_bits(text: str, line_no: int) -> bytearray:
    """The 0/1 flags of one bracketed vector such as ``[1, 0, 1]``."""
    vec = text.strip()
    if not (vec.startswith("[") and vec.endswith("]")):
        raise MalformedLineError(line_no, "feature vector must be bracketed")
    row = bytearray()
    for token in vec[1:-1].split(","):
        bit = token.strip()
        if bit == "0":
            row.append(0)
        elif bit == "1":
            row.append(1)
        else:
            raise MalformedLineError(line_no, f"feature flag must be 0 or 1, got {bit!r}")
    return row


def _parse_record(line: str, line_no: int) -> tuple[str, bytearray]:
    head, sep, rest = line.partition(",")
    if not sep:
        raise MalformedLineError(line_no, "expected '<method>, [<bits>]'")
    method = head.strip()
    _check_name(method, partial(MalformedLineError, line_no))
    return method, _parse_bits(rest, line_no)


_BLOCK_ROWS = 4096  # rows per block of the writer
_SCAN_BYTES = 1 << 20  # bytes per line-aligned block of the canonical reader


def _canonical_records(source, width: int | None):
    """The records of an input written wholly in canonical form, or None.

    ``source`` is bytes, text, or a seekable binary file object read from
    its current position. Empty lines and lines starting with ``#`` are
    skipped. With ``width`` None the data lines are database records
    ``<name>, [b,...,b]`` and the first fixes the width; otherwise they are
    vector-file lines ``[b,...,b]`` of ``width`` flags. Returns
    ``(names, X)``, ``names`` None for a vector file, only when the input is
    ASCII, ends in LF, and each of its (one or more) data lines has exactly
    that form, width and a ``METHOD_TOKEN`` name: then the strict parser
    would return the same records. Any other input gives None and is left
    to the strict parser, so this never raises.

    The input is read in line-aligned blocks, ``_SCAN_BYTES`` bytes and the
    rest of the line they end in, so the whole file is never held. Each
    block gathers the fixed-length tail after each line's name (``, [`` or
    ``[``, then 2F bytes of flags, commas and ``]``) through a
    sliding-window view, checks every byte of it in one comparison and
    writes the flags into one matrix. That matrix is allocated once, for the
    most rows the input size admits (a data line takes at least ``2F + 5``
    bytes, or ``2F + 2`` in a vector file; untouched pages hold no memory),
    and shrunk in place to the rows read. Distinct names are decoded and
    checked once.
    """
    if isinstance(source, str):
        if not source.isascii():
            return None
        source = source.encode("ascii")
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    elif not hasattr(source, "read"):
        return None
    start = source.tell()
    size = source.seek(0, io.SEEK_END) - start
    source.seek(start)
    named = width is None
    head = b", [" if named else b"["
    X = None
    rows = 0
    names: list[str] = []
    decoded: dict[bytes, str] = {}
    while block := source.read(_SCAN_BYTES):
        block += source.readline()
        if not (isinstance(block, bytes) and block.endswith(b"\n") and block.isascii()):
            return None
        buf = np.frombuffer(block, dtype=np.uint8)
        ends = np.flatnonzero(buf == 10)
        starts = np.concatenate(([0], ends[:-1] + 1))
        data_rows = (ends > starts) & (buf[starts] != ord("#"))
        if not data_rows.all():
            starts, ends = starts[data_rows], ends[data_rows]
        if not len(ends):
            continue
        if X is None:
            if named:
                at = block.find(head, starts[0], ends[0])
                span = int(ends[0]) - at - len(head)
                if at <= starts[0] or span % 2:
                    return None
                width = span // 2
            if width < 1:
                return None
            tail = len(head) + 2 * width
            X = np.empty((size // (tail + 1 + named), width), dtype=np.uint8)
            want = np.frombuffer(head + b"0," * (width - 1) + b"0]", dtype=np.uint8)
            keep = np.full(tail, 0xFF, dtype=np.uint8)
            keep[len(head)::2] = 0xFE  # '0' and '1' differ only in the low bit
        lengths = ends - starts
        if (lengths.min() <= tail) if named else (lengths != tail).any():
            return None
        tail_at = ends - tail
        cells = np.lib.stride_tricks.sliding_window_view(buf, tail)[tail_at]
        if rows + len(cells) > len(X) or not ((cells & keep) == want).all():
            return None  # the file grew while it was read, or a line is not canonical
        np.bitwise_and(cells[:, len(head)::2], 1, out=X[rows:rows + len(cells)])
        rows += len(cells)
        if not named:
            continue
        keys = list(map(block.__getitem__, map(slice, starts.tolist(), tail_at.tolist())))
        for key in set(keys).difference(decoded):
            name = key.decode("ascii")
            if not METHOD_TOKEN.match(name):
                return None
            decoded[key] = name
        names.extend(map(decoded.__getitem__, keys))
    if X is None:
        return None
    X.resize((rows, width), refcheck=False)  # no view of X is alive; the rows stay in place
    return (names if named else None), X


def _ingest(source, width: int | None):
    """``(records, None)`` from ``_canonical_records``, or else ``(None, the whole input)``.

    A binary file object that cannot seek is read whole first. One that can
    is read from where it stands and, when the canonical reader gives up,
    read whole again from there for the strict parser.
    """
    start = None
    if hasattr(source, "read"):
        if source.seekable():
            start = source.tell()
        else:
            source = source.read()
    records = _canonical_records(source, width)
    if records is not None:
        return records, None
    if start is not None:
        source.seek(start)
        source = source.read()
    return None, source


def parse_database(source) -> Corpus:
    """Parse a database, as bytes, text or a binary file object, into a validated corpus.

    Raises MalformedLineError / InconsistentWidthError with the 1-based
    line number on bad records (bytes that are not UTF-8 included) and
    EmptyDatabaseError when no data lines remain after skipping blanks and
    comments. A file object is read from its current position.
    """
    records, text = _ingest(source, None)
    if records is not None:
        names, X = records
        return Corpus(tuple(names), X, X.shape[1])
    lines = data_lines(text, MalformedLineError)
    del text, source  # input read here is freed before the records are parsed
    methods: list[str] = []
    bits = bytearray()
    width = -1
    for line_no, line in lines:
        method, row = _parse_record(line, line_no)
        if width < 0:
            width = len(row)
        elif len(row) != width:
            raise InconsistentWidthError(line_no, len(row), width)
        methods.append(method)
        bits += row
    if width < 0:
        raise EmptyDatabaseError()
    X = np.frombuffer(bits, dtype=np.uint8).reshape(len(methods), width)
    return Corpus(tuple(methods), X, width)


def serialize_database(corpus: Corpus) -> str:
    """Render a corpus back to database text (canonical spacing, LF lines).

    Each row block fills one ``(rows, 2F+1)`` uint8 template, whose flag
    columns take ``features + 48`` and whose other columns hold the fixed
    ``,``, ``]`` and LF, and joins its rows with one ``<name>, [`` prefix
    each.
    """
    width = 2 * corpus.feature_count + 1
    template = np.empty((min(len(corpus), _BLOCK_ROWS), width), dtype=np.uint8)
    template[:] = np.frombuffer(b"0," * (corpus.feature_count - 1) + b"0]\n", dtype=np.uint8)
    prefix = [f"{name}, [".encode("ascii") for name in corpus.vocab]
    out = []
    for r0 in range(0, len(corpus), _BLOCK_ROWS):
        rows = corpus.features[r0:r0 + _BLOCK_ROWS]
        cells = template[:len(rows)]
        np.add(rows, 48, out=cells[:, :-1:2])
        parts = [b""] * (2 * len(rows))
        parts[::2] = map(prefix.__getitem__, corpus.codes[r0:r0 + len(rows)].tolist())
        parts[1::2] = cells.view(f"S{width}").ravel().tolist()
        out.append(b"".join(parts).decode("ascii"))
    return "".join(out)


def parse_vector(text: str, feature_count: int | None = None) -> np.ndarray:
    """Parse one bracketed feature-vector literal, e.g. ``[1,0,1]``.

    The grammar matches the database bracket syntax. When feature_count is
    given the width is checked and VectorWidthMismatchError raised on
    disagreement.
    """
    row = _parse_bits(text, 1)
    if feature_count is not None and len(row) != feature_count:
        raise VectorWidthMismatchError(len(row), feature_count)
    return np.frombuffer(row, dtype=np.uint8)


def parse_vectors(source, feature_count: int) -> np.ndarray:
    """Parse a vector file, one bracketed vector per line, into a (rows, F) uint8 matrix.

    Lines follow the database rules (blank and ``#`` lines skipped, LF or
    CRLF). A bad line raises MalformedLineError, and a vector whose width is
    not ``feature_count`` raises VectorWidthMismatchError, each with its
    1-based line number. A file without data lines gives zero rows. The
    input is bytes, text or a binary file object, as in ``parse_database``.
    """
    records, text = _ingest(source, feature_count)
    if records is not None:
        return records[1]
    lines = data_lines(text, MalformedLineError)
    del text, source  # as in parse_database
    bits = bytearray()
    rows = 0
    for line_no, line in lines:
        row = _parse_bits(line, line_no)
        if len(row) != feature_count:
            raise VectorWidthMismatchError(len(row), feature_count, line_no)
        bits += row
        rows += 1
    return np.frombuffer(bits, dtype=np.uint8).reshape(rows, feature_count)


def corpus_stats(corpus: Corpus) -> list[tuple[str, int, float]]:
    """Usage summary: (method, count, percent of all points).

    Rows are sorted by count descending, ties by ascending method name.
    Percents are exact (100 * count / points); rounding is left to renderers.
    """
    if len(corpus) == 0:
        raise EmptyDatabaseError("corpus has no points")
    total = len(corpus)
    rows = [(name, count, 100.0 * count / total) for name, count in corpus.method_counts.items()]
    return sorted(rows, key=lambda r: (-r[1], r[0]))


@dataclass(frozen=True, eq=False)
class FeatureCatalog:
    """Feature index (``_check_index``) -> nonblank ``str`` description, immutable."""

    descriptions: dict[int, str]

    def __post_init__(self):
        descriptions = dict(self.descriptions)
        for index, description in descriptions.items():
            _check_index(index)
            if not (isinstance(description, str) and description.strip()):
                raise ValueError(f"feature description must be nonblank text: {description!r}")
        object.__setattr__(self, "descriptions", MappingProxyType(descriptions))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FeatureCatalog):
            return NotImplemented
        return dict(self.descriptions) == dict(other.descriptions)

    def __len__(self) -> int:
        return len(self.descriptions)

    def describe(self, index: int) -> str:
        """Description for a feature, with a stable fallback phrasing."""
        got = self.descriptions.get(index)
        return got if got is not None else f"feature #{index} holds"

    def check_range(self, feature_count: int) -> None:
        for index in self.descriptions:
            if index >= feature_count:
                raise BadIndexError(
                    None,
                    f"catalog index {index} out of range for {feature_count} features",
                )


EMPTY_CATALOG = FeatureCatalog({})


def parse_feature_catalog(text: str | bytes, feature_count: int | None = None) -> FeatureCatalog:
    """Parse ``<index><TAB><description>`` lines; empty input is valid.

    Bytes that are not UTF-8, and an index at or above ``feature_count``
    when that is given, raise BadIndexError with their line number; an
    index defined twice raises DuplicateIndexError at its second line.
    """
    descriptions: dict[int, str] = {}
    for line_no, line in data_lines(text, BadIndexError):
        head, sep, rest = line.partition("\t")
        if not sep:
            raise BadIndexError(line_no, "expected '<index><TAB><description>'")
        try:
            index = int(head.strip())
        except ValueError:
            raise BadIndexError(line_no, f"bad feature index: {head.strip()!r}") from None
        _check_index(index, line_no)
        if feature_count is not None and index >= feature_count:
            raise BadIndexError(
                line_no, f"catalog index {index} out of range for {feature_count} features"
            )
        if index in descriptions:
            raise DuplicateIndexError(line_no, index)
        descriptions[index] = rest.strip()  # nonblank: the line is stripped, so it ends in text
    return FeatureCatalog(descriptions)
