"""Single-target transformation of a corpus.

Learning "which method fits this proof state" is recast as one binary
regression problem per method: a point's label is 1.0 for the method that
was actually applied and 0.0 in every other method's dataset. The label
vectors share the corpus's feature matrix, so memory grows with
methods x points, never methods x points x features.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus
from .errors import EmptyDatasetError


@dataclass(frozen=True, eq=False)
class BinaryDataset:
    """One method's binary view of the corpus.

    ``features`` is the corpus matrix itself (shared, read-only);
    ``labels`` holds this method's 0/1 labels in corpus order.
    """

    method: str
    labels: np.ndarray
    features: np.ndarray
    positives: int

    def __post_init__(self):
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels and features disagree on point count")
        if self.positives != int(self.labels.sum()):
            raise ValueError("positives does not match the label vector")

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
    names = np.asarray(corpus.method_names, dtype=object)
    vocab, inverse = np.unique(names, return_inverse=True)
    datasets: dict[str, BinaryDataset] = {}
    for target, name in enumerate(vocab.tolist()):
        labels = (inverse == target).astype(np.uint8)
        labels.setflags(write=False)
        datasets[name] = BinaryDataset(
            name, labels, corpus.features, int(labels.sum())
        )
    return datasets

