"""Queries against a trained model: rankings, ranks, and explanations.

Every method's tree is evaluated on the query vector and methods are
ordered by descending expectation, ties broken by ascending name. The
explanation for a method is its root-to-leaf decision path rendered one
sentence per step.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ._format import sig4
from .errors import UnknownMethodError, VectorWidthMismatchError
from .trees import Internal, Leaf, ModelSet, TreeNode


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


def as_vector(v, feature_count: int | None = None) -> np.ndarray:
    """Normalize a query vector to uint8 and check its width."""
    arr = np.ascontiguousarray(v, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError("query vector must be one-dimensional")
    if arr.size and arr.max() > 1:
        raise ValueError("query vector entries must be 0 or 1")
    if feature_count is not None and arr.size != feature_count:
        raise VectorWidthMismatchError(arr.size, feature_count)
    return arr


def evaluate_tree(tree: TreeNode, v, feature_count: int | None = None) -> float:
    """Expectation at the leaf the vector reaches."""
    arr = as_vector(v, feature_count)
    node = tree
    while isinstance(node, Internal):
        if node.feature >= arr.size:
            raise VectorWidthMismatchError(arr.size, node.feature + 1)
        node = node.when_true if arr[node.feature] else node.when_false
    return node.expectation


def _full_ranking(model: ModelSet, arr: np.ndarray) -> list[tuple[str, float]]:
    items = [
        (name, evaluate_tree(tree, arr)) for name, tree in model.trees.items()
    ]
    items.sort(key=lambda item: (-item[1], item[0]))
    return items


def which_method(model: ModelSet, v, k: int = 15) -> Recommendation:
    """Top-k methods for a proof state, ordered as described above."""
    if k < 1:
        raise ValueError("k must be at least 1")
    arr = as_vector(v, model.feature_count)
    ranking = _full_ranking(model, arr)
    return Recommendation(tuple(ranking[:k]), len(ranking))


def rank_method(model: ModelSet, v, method: str) -> tuple[int, int]:
    """1-based rank of one method in the full ordering, plus the total."""
    if method not in model.trees:
        raise UnknownMethodError(method)
    arr = as_vector(v, model.feature_count)
    target = evaluate_tree(model.trees[method], arr)
    rank = 1
    for name, tree in model.trees.items():
        if name == method:
            continue
        expectation = evaluate_tree(tree, arr)
        if expectation > target or (expectation == target and name < method):
            rank += 1
    return rank, len(model.trees)


def why_method(model: ModelSet, v, method: str) -> Explanation:
    """Decision path the vector takes through one method's tree."""
    if method not in model.trees:
        raise UnknownMethodError(method)
    arr = as_vector(v, model.feature_count)
    steps: list[ExplanationStep] = []
    node = model.trees[method]
    while isinstance(node, Internal):
        value = bool(arr[node.feature])
        steps.append(
            ExplanationStep(node.feature, value, model.catalog.describe(node.feature))
        )
        node = node.when_true if value else node.when_false
    return Explanation(method, tuple(steps), node.expectation)


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


# Rows stepped through the trees together; bounds the (rows, trees) temporaries.
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
        level = list(model.trees.values())
        depth = 0
        while True:
            below: list[TreeNode] = []
            for node in level:
                if isinstance(node, Leaf):
                    feature.append(-1)
                    value.append(node.expectation)
                else:
                    feature.append(node.feature)
                    value.append(0.0)
                    below += (node.when_false, node.when_true)
            if not below:
                break
            level = below
            depth += 1
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
        V = np.ascontiguousarray(matrix, dtype=np.uint8)
        if V.ndim != 2 or V.shape[1] != self.feature_count:
            raise VectorWidthMismatchError(
                V.shape[1] if V.ndim == 2 else -1, self.feature_count
            )
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
        E = self.expectations(matrix)
        total = len(self.names)
        keep = min(k, total)
        # Columns are name-sorted, so a stable sort on -E breaks ties by name.
        order = np.argsort(-E, axis=1, kind="stable")[:, :keep]
        values = np.take_along_axis(E, order, axis=1)
        picked = np.asarray(self.names, dtype=object)[order]
        out: list[Recommendation] = []
        # One .tolist() per block of rows: per row is slower, and whole-batch
        # lists would sit in memory beside the finished recommendations.
        for start in range(0, len(picked), _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            out += [
                Recommendation(tuple(zip(row_names, row_values)), total)
                for row_names, row_values in zip(picked[rows].tolist(), values[rows].tolist())
            ]
        return out

    def batch_rank(self, matrix: np.ndarray, method_cols: np.ndarray) -> np.ndarray:
        """1-based rank of method_cols[i] in row i's full ordering."""
        E = self.expectations(matrix)
        rows = np.arange(E.shape[0])
        target = E[rows, method_cols][:, None]
        cols = np.arange(E.shape[1])[None, :]
        greater = (E > target).sum(axis=1)
        tied_before = ((E == target) & (cols < method_cols[:, None])).sum(axis=1)
        return 1 + greater + tied_before

