"""Queries against a trained model: rankings, ranks, and explanations.

Methods are ordered by descending expectation at the leaf the query
vector reaches in their tree, ties broken by ascending name; ``_ranks``
counts this order. Rankings of every method step all trees together
through a ModelArena; a single method's rank walks each tree to its leaf,
and its explanation is its own tree's decision path, one sentence a step.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._format import sig4
from .errors import UnknownMethodError, VectorWidthMismatchError
from .trees import Internal, Leaf, ModelSet, TreeNode, _levels


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


def _walk(tree: TreeNode, bits) -> tuple[Leaf, list[tuple[int, bool]]]:
    """The leaf ``bits`` reaches in ``tree``, and the (feature, bit) tests on the way."""
    path: list[tuple[int, bool]] = []
    node = tree
    while isinstance(node, Internal):
        bit = bool(bits[node.feature])
        path.append((node.feature, bit))
        node = node.when_true if bit else node.when_false
    return node, path


def which_method(model: ModelSet, v, k: int = 15) -> Recommendation:
    """Top-k methods for one proof state, ordered as described above.

    Builds a ModelArena on every call; hold one arena for many vectors.
    """
    return ModelArena(model).batch_which(as_vector(v, model.feature_count)[None, :], k)[0]


def rank_method(model: ModelSet, v, method: str) -> tuple[int, int]:
    """1-based rank of one method in the full ordering, plus the total."""
    if method not in model.trees:
        raise UnknownMethodError(method)
    bits = as_vector(v, model.feature_count).tolist()
    E = np.array([[_walk(tree, bits)[0].expectation for tree in model.trees.values()]])
    return int(_ranks(E, np.array([list(model.trees).index(method)]))[0]), len(model.trees)


def why_method(model: ModelSet, v, method: str) -> Explanation:
    """Decision path the vector takes through one method's tree."""
    if method not in model.trees:
        raise UnknownMethodError(method)
    bits = as_vector(v, model.feature_count).tolist()
    leaf, path = _walk(model.trees[method], bits)
    steps = tuple(
        ExplanationStep(feature, bit, model.catalog.describe(feature)) for feature, bit in path
    )
    return Explanation(method, steps, leaf.expectation)


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


class ModelArena:
    """All trees of a model in one node table, evaluated together.

    Nodes are numbered level by level across every tree, so the M roots
    are slots ``0 .. M-1`` in name order and the i-th internal node's
    children are slots ``M + 2i`` (bit clear) and ``M + 2i + 1`` (bit set).
    Node ``s`` branches on ``feature[s]`` and its children sit at
    ``child[2*s]`` and ``child[2*s + 1]``; a leaf points both child slots
    at itself and holds its expectation in ``value[s]``. ``expectations``
    steps a (rows, trees) cursor matrix ``depth`` times, one gather per
    step, which parks every cursor at its leaf.
    """

    def __init__(self, model: ModelSet):
        feature: list[int] = []  # -1 marks a leaf until the child table is built
        value: list[float] = []
        depth = 0  # an empty model has no levels
        for depth, level in enumerate(_levels(model.trees.values())):
            for node in level:
                if isinstance(node, Leaf):
                    feature.append(-1)
                    value.append(node.expectation)
                else:
                    feature.append(node.feature)
                    value.append(0.0)
        self.names = list(model.trees.keys())
        self.feature_count = model.feature_count
        self.depth = depth
        self.feature = np.asarray(feature, dtype=np.intp)
        internal = self.feature >= 0
        first = np.where(
            internal,
            len(self.names) + 2 * (np.cumsum(internal) - 1),
            np.arange(self.feature.size),
        )
        self.child = np.stack([first, first + internal], axis=1).reshape(-1)
        self.feature[~internal] = 0  # any column will do: both children are the leaf
        self.value = np.asarray(value, dtype=np.float64)

    def expectations(self, matrix: np.ndarray) -> np.ndarray:
        """(B, F) query matrix -> (B, M) expectation matrix, names order."""
        V = _checked_bits(matrix, 2, self.feature_count)
        roots = np.arange(len(self.names))
        out = np.empty((V.shape[0], roots.size), dtype=np.float64)
        for start in range(0, V.shape[0], _BLOCK_ROWS):
            block = V[start:start + _BLOCK_ROWS]
            bits = block.reshape(-1)
            row_base = np.arange(0, bits.size, self.feature_count)[:, None]
            cur = np.broadcast_to(roots, (block.shape[0], roots.size))
            for _ in range(self.depth):
                cur = self.child[2 * cur + bits[row_base + self.feature[cur]]]
            out[start:start + block.shape[0]] = self.value[cur]
        return out

    def batch_which(self, matrix: np.ndarray, k: int = 15) -> list[Recommendation]:
        """which_method over many vectors; identical ordering and ties."""
        if k < 1:
            raise ValueError("k must be at least 1")
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
