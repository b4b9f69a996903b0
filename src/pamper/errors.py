"""Exception types raised across the package.

Everything user-facing derives from :class:`PamperError` so the CLI can map
input problems to a single exit code. Parse errors carry the 1-based line
number of the offending input line; ``decode_utf8`` reports a byte that is
not UTF-8 the same way, as the parse error of the file being read. A
value out of its parameter's range raises InvalidValueError, also a ValueError.
Rules that several constructors share (``_check_*``, ``_as_bits``,
``_as_row_mask``) live here, among them the method-name grammar
``METHOD_TOKEN``: each taker passes ``_check_name`` its own error class,
line-numbered if it reads a file.
"""
from __future__ import annotations

import re

import numpy as np

METHOD_TOKEN = re.compile(r"[A-Za-z0-9_'.\-]+\Z")


class PamperError(Exception):
    """Base class for all errors raised by this package."""


class _LineError(PamperError):
    """An input problem at a 1-based line, or at none while ``line_no`` is None."""

    def __init__(self, line_no: int | None, reason: str):
        super().__init__(reason)
        self.line_no = line_no
        self.reason = reason

    def __str__(self) -> str:
        return self.reason if self.line_no is None else f"line {self.line_no}: {self.reason}"


class InvalidValueError(_LineError, ValueError):
    """A value outside the range its parameter admits, such as a flag value."""

    def __init__(self, reason: str):
        super().__init__(None, reason)


def _is_int(value) -> bool:
    """An integer that the writer prints as digits: an ``int`` or numpy integer, not a ``bool``."""
    return type(value) is int or isinstance(value, np.integer)


def _check_int(what: str, value, low: int) -> None:
    """Raise InvalidValueError unless ``value`` is an ``_is_int`` integer >= ``low`` (0 or 1)."""
    if not _is_int(value) or value < low:
        kind = "positive" if low else "nonnegative"
        raise InvalidValueError(f"{what} must be a {kind} integer, got {value!r}")


def _check_feature_count(count) -> None:
    """Raise InvalidValueError unless ``count`` is an ``_is_int`` integer >= 1."""
    if not _is_int(count):
        raise InvalidValueError(f"feature count must be an integer, got {count!r}")
    if count < 1:
        raise InvalidValueError("feature count must be positive")


def _check_index(index, line_no: int | None = None) -> None:
    """Raise BadIndexError at ``line_no`` unless ``index`` is an ``_is_int`` integer >= 0."""
    if not _is_int(index):
        raise BadIndexError(line_no, f"feature index must be an integer, got {index!r}")
    if index < 0:
        raise BadIndexError(line_no, f"negative feature index: {index}")


def _check_name(name, error=ValueError) -> None:
    """Raise ``error`` with the name unless ``name`` is a ``str`` that ``METHOD_TOKEN`` matches."""
    if not (isinstance(name, str) and METHOD_TOKEN.match(name)):
        raise error(f"invalid method name: {name!r}")


def _as_bits(what: str, values, error: type[ValueError] = ValueError) -> np.ndarray:
    """``values`` as a C-contiguous uint8 array (the input itself if it is one) when every entry
    is 0 or 1, else ``error("<what> must be 0 or 1")``. Checked before any cast: bool and unsigned
    arrays by their maximum, int, float and object ones entry by entry, strings never.
    """
    arr = np.asarray(values)
    if arr.dtype.kind in "bu":
        ok = arr.max(initial=0) <= 1
    else:
        ok = arr.dtype.kind in "ifO" and ((arr == 0) | (arr == 1)).all()
    if not ok:
        raise error(f"{what} must be 0 or 1")
    return np.ascontiguousarray(arr, dtype=np.uint8)


def _as_row_mask(what: str, values, points: int) -> np.ndarray:
    """``values`` as a bool mask with one entry per row of a ``points``-row corpus (``_as_bits``,
    1-D, of length ``points``, each else ValueError): ``run_evaluation``'s ``held_out``."""
    mask = _as_bits(what, values)
    if mask.ndim != 1:
        raise ValueError(f"{what} must be 1-dimensional")
    if mask.shape[0] != points:
        raise ValueError(f"{what} has {mask.shape[0]} entries, the corpus has {points} points")
    return mask.view(np.bool_)


class MalformedLineError(_LineError):
    """A database or vector line does not match the record grammar."""


class InconsistentWidthError(_LineError):
    """A feature vector disagrees with the width fixed by the first record."""

    def __init__(self, line_no: int, got: int, want: int):
        super().__init__(line_no, f"feature vector has {got} entries, expected {want}")
        self.got = got
        self.want = want


class EmptyDatabaseError(PamperError):
    """The database contains no data lines."""

    def __init__(self, message: str = "database contains no data lines"):
        super().__init__(message)


class DuplicateIndexError(_LineError):
    """A feature catalog defines the same index twice, the second time at ``line_no``."""

    def __init__(self, line_no: int, index: int):
        super().__init__(line_no, f"duplicate feature index {index}")
        self.index = index


class BadIndexError(_LineError):
    """A feature index is unparsable, negative, or out of range."""


class EmptyDatasetError(PamperError):
    """An operation that needs at least one data point received none."""

    def __init__(self, message: str = "dataset has no points"):
        super().__init__(message)


class ModelParseError(_LineError):
    """A model file violates the serialization grammar."""


class VectorWidthMismatchError(_LineError):
    """A query vector's width differs from the model's feature count.

    ``line_no`` is the vector's line in a vector file, None for a literal.
    """

    def __init__(self, got: int, want: int, line_no: int | None = None):
        super().__init__(line_no, f"vector has {got} entries, model expects {want}")
        self.got = got
        self.want = want


class UnknownMethodError(PamperError):
    """A queried method has no tree in the model."""

    def __init__(self, method: str):
        super().__init__(f"unknown method: {method}")
        self.method = method


class InvalidDistributionError(InvalidValueError):
    """A planted distribution has negative mass or does not sum to one."""


class PlantedConfigError(_LineError):
    """A planted-model config file violates its grammar."""


class NoTrainPointsError(PamperError):
    """The corpus split left no training points."""

    def __init__(self):
        super().__init__("split produced no training points")


class NoEvalPointsError(PamperError):
    """The corpus split left no evaluation points."""

    def __init__(self):
        super().__init__("split produced no evaluation points")


def decode_utf8(data: str | bytes, error: type[PamperError], line_no=1) -> str:
    """Decode an input file's bytes; text passes unchanged.

    A byte sequence that is not UTF-8 raises ``error(line_no, reason)``,
    the caller's own line-numbered parse error, with the line of the first
    bad byte, counting the first line of ``data`` as ``line_no``.
    """
    if not isinstance(data, (bytes, bytearray)):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no += data.count(b"\n", 0, exc.start)
        raise error(line_no, f"not valid UTF-8 (byte 0x{data[exc.start]:02x})") from None
