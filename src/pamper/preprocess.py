"""Single-target transformation of a corpus.

Learning "which method fits this proof state" is recast as one binary
regression problem per method: a point's label is 1.0 for the method that
was actually applied and 0.0 in every other method's dataset, so method
``i`` of the corpus's ``vocab`` takes ``codes == i`` over every row as its
labels. Every dataset shares the corpus's own packed feature columns
(``Corpus.columns``), uncopied; each method's labels are packed too, so
memory grows with methods x points / 64 words, never methods x points x
features, and no unpacked feature matrix is built.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .corpus import Corpus
from .errors import EmptyDatasetError, _as_bits


@dataclass(frozen=True, eq=False, init=False)
class BinaryDataset:
    """One method's binary view of the corpus.

    ``columns`` holds the corpus's feature columns as packed bitsets, one
    row of ``uint64`` words per feature (see ``_kernels.pack_bits``); all
    datasets of a corpus share its read-only ``Corpus.columns``. ``words``
    holds this method's 0/1 labels over the ``points`` rows, in corpus
    order, packed the same way into one read-only row of words; ``labels``
    unpacks them on each read, and ``positives`` is their sum. The
    constructor takes the labels unpacked (``_as_bits``, 1-D).
    """

    method: str
    words: np.ndarray
    points: int
    columns: np.ndarray
    positives: int

    def __init__(self, method: str, labels, columns):
        labels = _as_bits("labels", labels)
        if labels.ndim != 1:
            raise ValueError("labels must be 1-dimensional")
        if not isinstance(columns, np.ndarray) or columns.dtype != np.uint64 or columns.ndim != 2:
            raise ValueError("columns must be a 2-D uint64 array")
        if columns.shape[1] != -(-labels.shape[0] // 64):
            raise ValueError("labels and columns disagree on point count")
        words = _kernels.pack_bits(labels)
        words.setflags(write=False)
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "points", labels.shape[0])
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "positives", int(labels.sum()))

    @property
    def labels(self) -> np.ndarray:
        """The 0/1 labels as a fresh uint8 array, unpacked from ``words``."""
        return np.unpackbits(self.words.view(np.uint8), count=self.points, bitorder="little")

    def __len__(self) -> int:
        return self.points


def single_target_split(corpus: Corpus) -> dict[str, BinaryDataset]:
    """One BinaryDataset per distinct method, keyed and ordered by name.

    Point order is preserved inside every dataset, each method's positive
    labels sum to its corpus count, and methods absent from the corpus get
    no dataset. Each method's labels are packed as its dataset is built, so
    no unpacked label array outlives its method's turn.
    """
    if len(corpus) == 0:
        raise EmptyDatasetError("corpus has no points")
    codes = corpus.codes
    return {
        name: BinaryDataset(name, codes == code, corpus.columns)
        for code, name in enumerate(corpus.vocab)
    }
