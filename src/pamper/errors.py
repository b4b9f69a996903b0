"""Exception types raised across the package.

Everything user-facing derives from :class:`PamperError` so the CLI can map
input problems to a single exit code. Parse errors carry the 1-based line
number of the offending input line; ``decode_utf8`` reports a byte that is
not UTF-8 the same way, as the parse error of the file being read.
"""
from __future__ import annotations


class PamperError(Exception):
    """Base class for all errors raised by this package."""


class _LineError(PamperError):
    """An input problem at a 1-based line, or at no line when ``line_no`` is None."""

    def __init__(self, line_no: int | None, reason: str):
        super().__init__(reason if line_no is None else f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


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


class FeatureWidthMismatchError(PamperError):
    """Training and evaluation corpora disagree on feature count."""

    def __init__(self, got: int, want: int):
        super().__init__(
            f"evaluation corpus has {got} features, training corpus has {want}"
        )
        self.got = got
        self.want = want


class InvalidDistributionError(PamperError):
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


def decode_utf8(data: str | bytes, error: type[PamperError]) -> str:
    """Decode an input file's bytes; text passes through unchanged.

    A byte sequence that is not UTF-8 raises ``error(line_no, reason)``,
    the caller's own line-numbered parse error, with the 1-based line of
    the first bad byte.
    """
    if not isinstance(data, (bytes, bytearray)):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise error(line_no, f"not valid UTF-8 (byte 0x{data[exc.start]:02x})") from None
