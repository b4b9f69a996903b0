"""Queries against a trained model: rankings, ranks, and explanations.

Methods are ordered by descending expectation at the leaf the query
vector reaches in their tree, ties broken by ascending name; ``_ranks``
counts this order. Every query steps the node table the model numbers
once (``ModelSet.table``): ``_descend`` steps all trees for a ModelArena's
rows and for ``rank_method``'s one; ``why_method`` follows one tree.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._format import sig4
from .errors import UnknownMethodError, VectorWidthMismatchError, _check_int
from .trees import ModelSet


@dataclass(frozen=True)
class Recommendation:
    """Top slice of the ranking plus the total number of ranked methods."""

    ranked: tuple[tuple[str, float], ...]
    total_methods: int


class ExplanationStep(NamedTuple):
    feature: int
    value: bool
    description: str


@dataclass(frozen=True)
class Explanation:
    """Decision path for one method: branch observations, then the leaf."""

    method: str
    steps: tuple[ExplanationStep, ...]
    expectation: float


def _checked_bits(v, ndim: int, feature_count: int | None) -> np.ndarray:
    """Check a query vector (``ndim`` 1) or matrix (``ndim`` 2); return it as uint8.

    Every entry must be 0 or 1, checked before the cast so that no value
    wraps into range, and the last axis must hold ``feature_count`` entries
    when that is given.
    """
    arr = np.asarray(v)
    if arr.ndim != ndim:
        raise ValueError(f"query {'vector' if ndim == 1 else 'matrix'} must be {ndim}-dimensional")
    if arr.size and not ((arr == 0) | (arr == 1)).all():
        raise ValueError("query vector entries must be 0 or 1")
    if feature_count is not None and arr.shape[-1] != feature_count:
        raise VectorWidthMismatchError(arr.shape[-1], feature_count)
    return np.ascontiguousarray(arr, dtype=np.uint8)


def as_vector(v, feature_count: int | None = None) -> np.ndarray:
    """Normalize a query vector to uint8 and check its entries and width."""
    return _checked_bits(v, 1, feature_count)


def _method_column(model: ModelSet, method: str) -> int:
    """The method's column in the model, which is also its tree's root slot in ``model.table``."""
    column = model.columns.get(method)
    if column is None:
        raise UnknownMethodError(method)
    return column


def which_method(model: ModelSet, v, k: int = 15) -> Recommendation:
    """Top-k methods for one proof state; its ModelArena shares the model's node table."""
    return ModelArena(model).batch_which(as_vector(v, model.feature_count)[None, :], k)[0]


def rank_method(model: ModelSet, v, method: str) -> tuple[int, int]:
    """1-based rank of one method in the full ordering, plus the total."""
    column = _method_column(model, method)
    total = len(model.columns)
    E = _descend(model.table, as_vector(v, model.feature_count)[None, :], total)
    return int(_ranks(E, np.array([column]))[0]), total


def why_method(model: ModelSet, v, method: str) -> Explanation:
    """Decision path the vector takes through one method's tree."""
    slot = _method_column(model, method)
    feature, child, value, _ = model.table
    bits = as_vector(v, model.feature_count).tolist()
    steps = []
    while child.item(2 * slot) != slot:
        index = feature.item(slot)
        bit = bits[index]
        steps.append(ExplanationStep(index, bool(bit), model.catalog.describe(index)))
        slot = child.item(2 * slot + bit)
    return Explanation(method, tuple(steps), value.item(slot))


def render_recommendation(rec: Recommendation) -> str:
    lines = ["Promising methods for this proof goal are:"]
    for name, expectation in rec.ranked:
        lines.append(f"  {name} with expectation of {sig4(expectation)}")
    return "\n".join(lines)


def render_rank(method: str, rank: int, total: int) -> str:
    return f"{method} {rank} out of {total}"


def render_explanation(expl: Explanation) -> str:
    if not expl.steps:
        return f"No branching features; baseline expectation {sig4(expl.expectation)}."
    lines = []
    for step in expl.steps:
        if step.value:
            lines.append(f"Because {step.description}.")
        else:
            lines.append(f"Because it is not true that {step.description}.")
    return "\n".join(lines)


# Rows stepped through the trees together: expectations, batch_which and
# batch_rank each hold one block of (rows, trees) temporaries at a time.
_BLOCK_ROWS = 1024


def _descend(table, block: np.ndarray, trees: int) -> np.ndarray:
    """(rows, trees) expectations of the (rows, F) query ``block`` in a ``ModelSet.table``.

    A (rows, trees) cursor matrix starts at the roots and steps ``depth``
    times, one gather a step. A cursor at a leaf stays there: both its child
    slots point back at it, so the bit its -1 feature reads does not matter.
    """
    feature, child, value, depth = table
    bits = block.reshape(-1)
    row_base = np.arange(0, bits.size, block.shape[1])[:, None]
    cur = np.broadcast_to(np.arange(trees), (block.shape[0], trees))
    for _ in range(depth):
        cur = child[2 * cur + bits[row_base + feature[cur]]]
    return value[cur]


class ModelArena:
    """Every tree of a model evaluated together for a batch, on ``ModelSet.table`` uncopied."""

    def __init__(self, model: ModelSet):
        self.names = list(model.trees.keys())
        self.feature_count = model.feature_count
        self.table = model.table

    def expectations(self, matrix: np.ndarray) -> np.ndarray:
        """(B, F) query matrix -> (B, M) expectation matrix, names order."""
        V = _checked_bits(matrix, 2, self.feature_count)
        M = len(self.names)
        out = np.empty((V.shape[0], M), dtype=np.float64)
        for start in range(0, V.shape[0], _BLOCK_ROWS):
            out[start:start + _BLOCK_ROWS] = _descend(self.table, V[start:start + _BLOCK_ROWS], M)
        return out

    def batch_which(self, matrix: np.ndarray, k: int = 15) -> list[Recommendation]:
        """which_method over many vectors; identical ordering and ties."""
        _check_int("k", k, 1)
        V = _checked_bits(matrix, 2, self.feature_count)
        total = len(self.names)
        keep = min(k, total)
        names = np.asarray(self.names, dtype=object)
        out: list[Recommendation] = []
        for start in range(0, V.shape[0], _BLOCK_ROWS):
            E = self.expectations(V[start:start + _BLOCK_ROWS])
            # Columns are name-sorted, so a stable sort on -E breaks ties by name.
            order = np.argsort(-E, axis=1, kind="stable")[:, :keep]
            values = np.take_along_axis(E, order, axis=1)
            out += [
                Recommendation(tuple(zip(row_names, row_values)), total)
                for row_names, row_values in zip(names[order].tolist(), values.tolist())
            ]
        return out

    def batch_rank(self, matrix: np.ndarray, method_cols: np.ndarray) -> np.ndarray:
        """1-based rank of method_cols[i] in row i's full ordering.

        ``method_cols`` holds one column index in ``[0, M)`` per query row;
        anything else raises ValueError rather than wrap or broadcast.
        """
        V = _checked_bits(matrix, 2, self.feature_count)
        method_cols = np.asarray(method_cols)
        total = len(self.names)
        if method_cols.shape != (V.shape[0],):
            raise ValueError("method_cols must be 1-dimensional with one entry per query row")
        if method_cols.dtype.kind not in "iu" or (
            method_cols.size and (method_cols.min() < 0 or method_cols.max() >= total)
        ):
            raise ValueError(f"method_cols entries must be integers in [0, {total})")
        ranks = np.empty(V.shape[0], dtype=np.int64)
        for start in range(0, V.shape[0], _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            ranks[rows] = _ranks(self.expectations(V[rows]), method_cols[rows])
        return ranks


def _ranks(E: np.ndarray, mine: np.ndarray) -> np.ndarray:
    """1-based rank of column ``mine[i]`` in row i of name-ordered (B, M) expectations.

    A higher expectation, or an equal one under a smaller name, ranks ahead.
    """
    target = E[np.arange(E.shape[0]), mine][:, None]
    greater = (E > target).sum(axis=1)
    tied_before = ((E == target) & (np.arange(E.shape[1]) < mine[:, None])).sum(axis=1)
    return 1 + greater + tied_before
