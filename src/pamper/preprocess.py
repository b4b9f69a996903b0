"""Single-target transformation of a corpus.

Learning "which method fits this proof state" is recast as one binary
regression problem per method: a point's label is 1.0 for the method that
was actually applied and 0.0 in every other method's dataset. The feature
columns are packed into bitsets once and every dataset shares that one
array, so memory grows with methods x points, never methods x points x
features.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .corpus import Corpus
from .errors import EmptyDatasetError, _as_bits


@dataclass(frozen=True, eq=False)
class BinaryDataset:
    """One method's binary view of the corpus.

    ``columns`` holds the corpus's feature columns as packed bitsets, one
    row of ``uint64`` words per feature (see ``_kernels.pack_bits``); all
    datasets of a corpus share the one read-only array. ``labels`` holds
    this method's 0/1 labels (``_as_bits``, 1-D) in corpus order, and
    ``positives`` is their sum.
    """

    method: str
    labels: np.ndarray
    columns: np.ndarray
    positives: int = field(init=False)

    def __post_init__(self):
        labels = _as_bits("labels", self.labels)
        if labels.ndim != 1:
            raise ValueError("labels must be 1-dimensional")
        columns = self.columns
        if not isinstance(columns, np.ndarray) or columns.dtype != np.uint64 or columns.ndim != 2:
            raise ValueError("columns must be a 2-D uint64 array")
        if columns.shape[1] != -(-labels.shape[0] // 64):
            raise ValueError("labels and columns disagree on point count")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "positives", int(labels.sum()))

    def __len__(self) -> int:
        return self.labels.shape[0]


def single_target_split(corpus: Corpus) -> dict[str, BinaryDataset]:
    """One BinaryDataset per distinct method, keyed and ordered by name.

    Point order is preserved inside every dataset, each method's positive
    labels sum to its corpus count, and methods absent from the corpus get
    no dataset.
    """
    if len(corpus) == 0:
        raise EmptyDatasetError("corpus has no points")
    columns = _kernels.pack_bits(corpus.features.T)
    columns.setflags(write=False)
    names = np.asarray(corpus.method_names, dtype=object)
    vocab, inverse = np.unique(names, return_inverse=True)
    datasets: dict[str, BinaryDataset] = {}
    for target, name in enumerate(vocab.tolist()):
        labels = (inverse == target).astype(np.uint8)
        labels.setflags(write=False)
        datasets[name] = BinaryDataset(name, labels, columns)
    return datasets
