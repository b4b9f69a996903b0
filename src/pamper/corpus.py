"""Parsing, validation, and summaries for proof-method databases.

A database is UTF-8 text holding one record per line::

    induct, [1,0,0,1,0]

The method name comes first, then a bracketed vector of 0/1 feature flags.
Spaces around the comma, brackets, and flags are tolerated, and both LF and
CRLF line endings are accepted. Blank lines and lines whose first non-space
character is ``#`` are skipped. The vector width of the first record fixes
the feature count for the whole file; later records must agree. A vector
file holds one bracketed vector per line under the same line rules.

Every database and vector file is read once, front to back, in
line-aligned blocks of about 256 kB, so no input is held or encoded whole.
A block in the canonical form that ``write_database`` (and so ``pamper
gen``) writes -- ASCII, every line ``<name>, [b,...,b]`` (or ``[b,...,b]``)
of one width and ended by LF, or empty or starting with ``#`` -- is read
by a vectorized pass over its raw bytes. Any other block is decoded and
parsed line by line, by the only code that raises, so every accepted form,
error and line number is the same whatever the blocks hold.

A ``Corpus`` keeps its flags only as packed bit columns, one bit per flag:
the reader packs the whole 64-row words of each block's rows as it reads
them, carries the rest into the next block and joins the packed parts once
at the end, and the constructor packs the 0/1 matrix it is given. Readers
that need flag rows (the writer, the evaluation's held-out rows,
``Corpus.features``) unpack just those rows, a block at a time, through
``Corpus.feature_rows``, and ``Corpus._take`` packs them back into a
corpus of those rows. A vector file's rows, which queries read by row, are
appended block by block to one byte buffer that the result matrix,
``(rows, F)`` uint8, views without a copy. ``write_database`` writes a
corpus to a text sink one block of rows at a time; ``serialize_database``
gathers that text into one ``str``.

A feature catalog is a separate tab-separated file mapping feature indices
to human-readable descriptions, used when rendering explanations::

    14\tthe context has locally defined assumptions
"""
from __future__ import annotations

import io
import sys
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import compress
from types import MappingProxyType

import numpy as np

from . import _kernels
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


@dataclass(frozen=True, eq=False, init=False)
class Corpus:
    """An immutable sequence of (method, feature vector) records.

    The features are stored once, packed: ``columns`` is a read-only
    ``(feature_count, ceil(points / 64))`` uint64 array holding one bitset
    per feature over the rows, bit i of a column being row i, with zero
    padding bits (the layout of ``_kernels.pack_columns``). The constructor
    takes a (points, feature_count) 0/1 matrix (``_as_bits``) and packs it,
    leaving the given matrix as it was. ``feature_rows`` unpacks the rows it
    is asked for and ``features`` all of them, each into a fresh uint8
    matrix. ``vocab`` holds the sorted distinct names and ``codes`` each
    row's index into it (read-only ``intp``); they are the only store of
    the names, and ``method_names`` is built from them on each read.
    """

    columns: np.ndarray = field(repr=False)
    feature_count: int
    vocab: tuple[str, ...]
    codes: np.ndarray = field(repr=False)

    def __init__(self, method_names, features, feature_count):
        _check_feature_count(feature_count)
        X = _as_bits("feature values", features)
        if X.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if isinstance(method_names, str):
            raise ValueError(
                f"method names must be a sequence of names, not the str {method_names!r}"
            )
        if X.shape != (len(method_names), feature_count):
            shape = f"{len(method_names)} points x {feature_count} features"
            raise ValueError(f"features shape {X.shape} does not match {shape}")
        self._adopt(_kernels.pack_columns(X), *_encode(method_names))

    @classmethod
    def _packed(cls, method_names: list[str], columns: np.ndarray) -> Corpus:
        """The corpus of these names over columns packed by the reader or ``generate``, as they are."""
        return cls.__new__(cls)._adopt(columns, *_encode(method_names))

    def _adopt(self, columns: np.ndarray, vocab: tuple[str, ...], codes: np.ndarray) -> Corpus:
        columns.setflags(write=False)
        codes.setflags(write=False)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "feature_count", columns.shape[0])
        object.__setattr__(self, "vocab", vocab)
        object.__setattr__(self, "codes", codes)
        return self

    def _take(self, rows) -> Corpus:
        """The corpus of the given rows (as ``feature_rows`` takes them), whose ``vocab`` keeps only
        their methods; each ``_BLOCK_ROWS`` block of rows is unpacked and packed in turn."""
        kept = np.bincount(self.codes[rows], minlength=len(self.vocab)) > 0
        codes = (np.cumsum(kept) - 1)[self.codes[rows]]
        columns = np.empty((self.feature_count, -(-len(rows) // 64)), dtype=np.uint64)
        for r0 in range(0, len(rows), _BLOCK_ROWS):
            block = _kernels.pack_columns(self.feature_rows(rows[r0:r0 + _BLOCK_ROWS]))
            columns[:, r0 // 64:r0 // 64 + block.shape[1]] = block
        return Corpus.__new__(Corpus)._adopt(columns, tuple(compress(self.vocab, kept)), codes)

    def __len__(self) -> int:
        return len(self.codes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return (
            self.vocab == other.vocab
            and np.array_equal(self.codes, other.codes)
            and self.feature_count == other.feature_count
            and np.array_equal(self.columns, other.columns)
        )

    @property
    def method_names(self) -> tuple[str, ...]:
        """Each row's method name, in row order."""
        return tuple(map(self.vocab.__getitem__, self.codes.tolist()))

    @property
    def features(self) -> np.ndarray:
        """Every row's 0/1 flags, a fresh read-only (points, feature_count) uint8 matrix."""
        X = self.feature_rows(np.arange(len(self)))
        X.setflags(write=False)
        return X

    def feature_rows(self, rows) -> np.ndarray:
        """The 0/1 flags of the given rows, a fresh C-contiguous (len(rows), F) uint8 matrix.

        ``rows`` is a 1-D array of integer row indices in ``[0, points)``,
        in any order, else IndexError. The rows are unpacked from ``columns``
        one ``_BLOCK_ROWS`` block at a time: each block gathers the byte that
        holds each row's bit in every column, shifts the bit down and masks
        it into place.
        """
        rows = np.asarray(rows)
        if rows.ndim != 1 or rows.size and (
            rows.dtype.kind not in "iu" or rows.min() < 0 or rows.max() >= len(self)
        ):
            raise IndexError(f"rows must be a 1-D array of integer indices below {len(self)}")
        rows = rows.astype(np.intp, copy=False)
        cells = self.columns.view(np.uint8)
        out = np.empty((len(rows), self.feature_count), dtype=np.uint8)
        for r0 in range(0, len(rows), _BLOCK_ROWS):
            at = rows[r0:r0 + _BLOCK_ROWS]
            block = cells[:, at >> 3]
            block >>= (at & 7).astype(np.uint8)
            np.bitwise_and(block.T, 1, out=out[r0:r0 + len(at)])
        return out

    @cached_property
    def method_counts(self) -> dict[str, int]:
        """Occurrence count per distinct method name, in ``vocab`` (name) order."""
        return dict(zip(self.vocab, np.bincount(self.codes, minlength=len(self.vocab)).tolist()))


def _encode(names) -> tuple[tuple[str, ...], np.ndarray]:
    """``(vocab, codes)`` of a sequence of method names, each distinct name checked once."""
    try:
        distinct = set(names)
    except TypeError:  # an unhashable entry, which the scan below names
        distinct = names
    for name in distinct:
        _check_name(name)
    vocab = tuple(sorted(distinct))
    code_of = dict(zip(vocab, range(len(vocab))))
    return vocab, np.fromiter(map(code_of.__getitem__, names), dtype=np.intp, count=len(names))


def data_lines(data: str | bytes, error: type[PamperError]) -> list[tuple[int, str]]:
    """``_data_lines`` of ``data`` from line 1; a byte that is not UTF-8 raises ``error`` there."""
    return list(_data_lines(decode_utf8(data, error), 1))


def _data_lines(text: str, line_no: int):
    """``(line_no, stripped line)`` of each LF-split line of ``text`` but blank and ``#`` ones."""
    for n, line in enumerate(map(str.strip, text.split("\n")), start=line_no):
        if line and line[0] != "#":
            yield n, line


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


_BLOCK_ROWS = 4096  # rows per block of the writer, of Corpus.feature_rows and of synth.generate
_SCAN_BYTES = 1 << 18  # bytes per line-aligned block of the database and vector-file reader


def _canonical_rows(block: bytes, ends: np.ndarray, width, names, decoded):
    """``(width, flags)`` of a block of canonical data lines, else None; this never raises.

    The block must be ASCII and end in LF (``ends`` are its LFs). Its lines
    are ``<name>, [b,...,b]`` with a ``METHOD_TOKEN`` name, decoded once in
    ``decoded`` and appended to ``names``, or ``[b,...,b]`` while ``names``
    is None, of ``width`` flags (the first line's while that is None). Each
    tail after a name is gathered through a sliding window and XORed in
    place with the all-0 tail, leaving the flags in place and zero elsewhere.
    """
    if not (block.endswith(b"\n") and block.isascii()):
        return None
    buf = np.frombuffer(block, dtype=np.uint8)
    starts = np.concatenate(([0], ends[:-1] + 1))
    data_rows = (ends > starts) & (buf[starts] != ord("#"))
    starts, ends = starts[data_rows], ends[data_rows]
    if not len(ends):
        return width, None
    head = b"[" if names is None else b", ["
    if width is None:
        at = block.find(head, starts[0], ends[0])
        span = int(ends[0]) - at - len(head)
        if at <= starts[0] or span < 2 or span % 2:
            return None
        width = span // 2
    tail = len(head) + 2 * width
    lengths = ends - starts
    if (lengths != tail).any() if names is None else lengths.min() <= tail:
        return None
    tail_at = ends - tail
    cells = np.lib.stride_tricks.sliding_window_view(buf, tail)[tail_at]
    cells ^= np.frombuffer(head + b"0," * (width - 1) + b"0]", dtype=np.uint8)
    flag = np.zeros(tail, dtype=np.uint8)
    flag[len(head)::2] = 1  # '0' and '1' differ only in the low bit
    if (cells.max(axis=0) > flag).any():
        return None  # a line is not canonical
    if names is not None:
        keys = list(map(block.__getitem__, map(slice, starts.tolist(), tail_at.tolist())))
        for key in set(keys).difference(decoded):
            name = key.decode("ascii")
            if not METHOD_TOKEN.match(name):
                return None
            decoded[key] = name
        names.extend(map(decoded.__getitem__, keys))
    return width, cells[:, len(head)::2]


def _parse_lines(text: str, line_no: int, width, names):
    """``(width, flags)`` of a block's ``_data_lines``, as ``_canonical_rows`` gives them."""
    bits = bytearray()
    for n, line in _data_lines(text, line_no):
        if names is None:
            row = _parse_bits(line, n)
        else:
            method, row = _parse_record(line, n)
            names.append(sys.intern(method))  # one object per name, as the canonical reader keeps
        if width is None:
            width = len(row)
        elif len(row) != width:
            if names is None:
                raise VectorWidthMismatchError(len(row), width, n)
            raise InconsistentWidthError(n, len(row), width)
        bits += row
    return width, np.frombuffer(bits, dtype=np.uint8).reshape(-1, width) if bits else None


def _line_blocks(source):
    """``(line_no, block, ends, from_text)`` of each run of ``_SCAN_BYTES`` units and the rest of a line.

    A ``str`` is sliced; a file object, binary or text, is read from where it
    stands, on to an LF (a text handle may end a line at a lone CR). ``block``
    is the run as bytes, and ``ends`` its LFs. A text run (``from_text``) is
    encoded with ``surrogatepass`` and only the bytes kept, so
    ``block.decode("utf-8", "surrogatepass")`` gives it back. No block is
    held here while the next one is read.
    """
    line_no, at = 1, 0
    while True:
        if isinstance(source, str):
            block = source[at:source.find("\n", at + _SCAN_BYTES - 1) + 1 or len(source)]
            at += len(block)
        else:
            block = source.read(_SCAN_BYTES)
            lf = "\n" if isinstance(block, str) else b"\n"
            while not block.endswith(lf) and (rest := source.readline()):
                block += rest
        if not block:
            return
        from_text = isinstance(block, str)
        if from_text:
            block = block.encode("utf-8", "surrogatepass")
        ends = np.flatnonzero(np.frombuffer(block, dtype=np.uint8) == 10)
        yield line_no, block, ends, from_text
        line_no += len(ends)
        del block, ends


def _parse_block(block: bytes, line_no: int, from_text: bool, width, names, rest):
    """``_parse_lines`` of a block that ``_canonical_rows`` declined, decoded here.

    Before a line error of a binary source is raised, the bytes of ``rest``,
    the blocks after this one, are checked for UTF-8, so that a bad byte
    anywhere is reported first.
    """
    if from_text:
        lines = block.decode("utf-8", "surrogatepass")
    else:
        lines = decode_utf8(block, MalformedLineError, line_no)
    try:
        return _parse_lines(lines, line_no, width, names)
    except PamperError:
        if not from_text:
            for line_no, block, _, _ in rest:
                decode_utf8(block, MalformedLineError, line_no)
        raise


def _read_records(source, width: int | None):
    """``(names, columns)`` of a database (``width`` None), or ``(None, X)`` of a vector file.

    The input, bytes-like, ``str`` or a file object, is read once, in
    ``_line_blocks``. Each goes through ``_canonical_rows`` or else, decoded,
    ``_parse_lines``. A vector block's flag bytes are appended to one
    ``bytearray``, which the result views as ``(rows, width)`` without a
    copy. A database block's rows follow the rows carried from the block
    before; its whole 64-row words are packed by ``_kernels.pack_columns``
    and the rest carried on, to be packed, zero-padded, after the last
    block, and the packed parts are joined once at the end. The result is
    None without data lines. Nothing of a block but its rows or parts and
    carry is held while the next one is read. A byte that is not UTF-8 is
    reported before any bad line, as if all were decoded first; text holds
    no such byte, so a text source raises its line error at once.
    """
    if not isinstance(source, str) and not hasattr(source, "read"):
        source = io.BytesIO(source)
    names = [] if width is None else None
    decoded: dict[bytes, str] = {}
    rows, parts, carry = bytearray(), [], []
    blocks = _line_blocks(source)
    for line_no, block, ends, from_text in blocks:
        width, flags = _canonical_rows(block, ends, width, names, decoded) or _parse_block(
            block, line_no, from_text, width, names, blocks
        )
        del block, ends
        if flags is not None and names is None:
            rows += flags.tobytes()
        elif flags is not None:
            flags = np.concatenate([*carry, flags])
            whole = len(flags) - len(flags) % 64
            if whole:
                parts.append(_kernels.pack_columns(flags[:whole]))
            carry = [flags[whole:].copy()] if whole < len(flags) else []
        del flags
    if names is None:
        return None, np.frombuffer(rows, dtype=np.uint8).reshape(-1, width) if rows else None
    if carry:
        parts.append(_kernels.pack_columns(carry[0]))
    return names, np.concatenate(parts, axis=1) if parts else None


def parse_database(source) -> Corpus:
    """Parse a database, as bytes, text or any file object, into a validated corpus.

    Raises MalformedLineError / InconsistentWidthError with the 1-based
    line number on bad records (bytes that are not UTF-8 included) and
    EmptyDatabaseError when no data lines remain after skipping blanks and
    comments. A file object is read from its current position.
    """
    names, columns = _read_records(source, None)
    if columns is None:
        raise EmptyDatabaseError()
    return Corpus._packed(names, columns)


def write_database(corpus: Corpus, out) -> None:
    """Write a corpus as database text (canonical spacing, LF lines) to the text sink ``out``.

    Each ``_BLOCK_ROWS`` block of rows is unpacked by ``Corpus.feature_rows``
    and fills one ``(rows, 2F+1)`` uint8 template, whose flag columns take
    the flags ``+ 48`` and whose other columns hold the fixed ``,``, ``]`` and
    LF; its rows, each after one ``<name>, [`` prefix, go to ``out.write`` as
    one ``str``, so no more than a block of text is held.
    """
    width = 2 * corpus.feature_count + 1
    template = np.empty((min(len(corpus), _BLOCK_ROWS), width), dtype=np.uint8)
    template[:] = np.frombuffer(b"0," * (corpus.feature_count - 1) + b"0]\n", dtype=np.uint8)
    prefix = [f"{name}, [".encode("ascii") for name in corpus.vocab]
    for r0 in range(0, len(corpus), _BLOCK_ROWS):
        rows = corpus.feature_rows(np.arange(r0, min(r0 + _BLOCK_ROWS, len(corpus))))
        cells = template[:len(rows)]
        np.add(rows, 48, out=cells[:, :-1:2])
        parts = [b""] * (2 * len(rows))
        parts[::2] = map(prefix.__getitem__, corpus.codes[r0:r0 + len(rows)].tolist())
        parts[1::2] = cells.view(f"S{width}").ravel().tolist()
        out.write(b"".join(parts).decode("ascii"))


def serialize_database(corpus: Corpus) -> str:
    """The database text of a corpus, as ``write_database`` writes it, in one ``str``."""
    out = io.StringIO()
    write_database(corpus, out)
    return out.getvalue()


def parse_vector(text: str, feature_count: int | None = None) -> np.ndarray:
    """Parse one bracketed feature-vector literal, e.g. ``[1,0,1]``.

    The grammar matches the database bracket syntax. When feature_count is
    given it must be a positive integer (``_check_feature_count``), and
    VectorWidthMismatchError is raised when the width disagrees.
    """
    if feature_count is not None:
        _check_feature_count(feature_count)
    row = _parse_bits(text, 1)
    if feature_count is not None and len(row) != feature_count:
        raise VectorWidthMismatchError(len(row), feature_count)
    return np.frombuffer(row, dtype=np.uint8)


def parse_vectors(source, feature_count: int) -> np.ndarray:
    """Parse a vector file, one bracketed vector per line, into a (rows, F) uint8 matrix.

    Lines follow the database rules (blank and ``#`` lines skipped, LF or
    CRLF). A bad line raises MalformedLineError, and a vector whose width
    is not ``feature_count`` (``_check_feature_count``) raises
    VectorWidthMismatchError, each with its 1-based line number. A file
    without data lines gives zero rows. The input is bytes, text or any
    file object, as in ``parse_database``.
    """
    _check_feature_count(feature_count)
    _, X = _read_records(source, feature_count)
    return np.empty((0, feature_count), dtype=np.uint8) if X is None else X


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

    ``feature_count``, if given, is a positive integer; bytes that are not
    UTF-8, and an index at or above it, raise BadIndexError at their line,
    and an index defined twice raises DuplicateIndexError at its second.
    """
    if feature_count is not None:
        _check_feature_count(feature_count)
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
