"""Queries against a trained model: rankings, ranks, and explanations.

Methods are ordered by descending expectation at the leaf the query
vector reaches in their tree, ties broken by ascending name; ``_ranks``
counts this order. Every query steps the node table the model numbers
once (``ModelSet.table``) with ``_descend``: all trees for a ModelArena's
rows and for ``batch_rank_method``'s, one tree for ``batch_why_method``'s.
``_top_k`` picks every ranked slice and ``_Layout`` spells every ``which``
answer, for one row or a whole file.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, NamedTuple, TextIO

import numpy as np

from ._format import sig4
from .errors import UnknownMethodError, VectorWidthMismatchError
from .errors import _as_bits, _check_feature_count, _check_int
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

    Every entry must be 0 or 1 (``_as_bits``), and the last axis must hold
    ``feature_count`` entries when that is given (``_check_feature_count``).
    """
    if feature_count is not None:
        _check_feature_count(feature_count)
    arr = np.asarray(v)
    if arr.ndim != ndim:
        raise ValueError(f"query {'vector' if ndim == 1 else 'matrix'} must be {ndim}-dimensional")
    arr = _as_bits("query vector entries", arr)
    if feature_count is not None and arr.shape[-1] != feature_count:
        raise VectorWidthMismatchError(arr.shape[-1], feature_count)
    return arr


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
    _method_column(model, method)  # an unknown method is reported before a bad vector
    ranks, total = batch_rank_method(model, as_vector(v, model.feature_count)[None, :], method)
    return int(ranks[0]), total


def batch_rank_method(model: ModelSet, matrix, method: str) -> tuple[np.ndarray, int]:
    """rank_method for every row of a (rows, F) query matrix: (rows,) ranks, plus the total.

    Each ``_BLOCK_ROWS`` block steps every tree down ``model.table`` and is
    ranked in the method's column; no ModelArena is built.
    """
    column = _method_column(model, method)
    V = _checked_bits(matrix, 2, model.feature_count)
    total = len(model.columns)
    roots, value = np.arange(total), model.table[2]
    ranks = np.empty(V.shape[0], dtype=np.int64)
    for start in range(0, V.shape[0], _BLOCK_ROWS):
        block = V[start:start + _BLOCK_ROWS]
        E = value[_descend(model.table, block, roots)]
        ranks[start:start + len(block)] = _ranks(E, np.full(len(block), column))
    return ranks, total


def write_which(model: ModelSet, matrix, out: TextIO, k: int = 15, as_json: bool = False) -> None:
    """Write which_method's answer for every row of a (rows, F) query matrix to ``out``.

    Text answers are ``render_recommendation``'s, each followed by a newline;
    ``as_json`` writes one JSON object per line instead. Every block of rows
    is ranked by one ``ModelArena.expectations`` call and ``_top_k``, then
    rendered from its distinct values and written as one string; no
    Recommendation is built.
    """
    arena = ModelArena(model)
    render = _renderer(_JSON if as_json else _TEXT, arena.names, len(arena.names))
    for columns, values in arena._top_blocks(matrix, k):
        out.write(render(columns, values))


def why_method(model: ModelSet, v, method: str) -> Explanation:
    """Decision path the vector takes through one method's tree."""
    _method_column(model, method)  # an unknown method is reported before a bad vector
    return batch_why_method(model, as_vector(v, model.feature_count)[None, :], method)[1][0]


def batch_why_method(model: ModelSet, matrix, method: str) -> tuple[np.ndarray, list[Explanation]]:
    """why_method for every row of a (rows, F) query matrix, as ``(answer, explanations)``.

    Row i's Explanation is ``explanations[answer[i]]``. Each distinct leaf's is built once, by
    walking the first row that reaches it down from the root, as ``_descend`` steps.
    """
    root = _method_column(model, method)
    V = _checked_bits(matrix, 2, model.feature_count)
    feature, child, value, _ = model.table
    reached = _descend(model.table, V, [root])[:, 0]
    leaves, first, answer = np.unique(reached, return_index=True, return_inverse=True)
    explanations = []
    for leaf, row in zip(leaves.tolist(), first.tolist()):
        steps, slot = [], root
        while slot != leaf:
            index = feature.item(slot)
            bit = V.item(row, index)
            steps.append(ExplanationStep(index, bool(bit), model.catalog.describe(index)))
            slot = child.item(2 * slot + bit)
        explanations.append(Explanation(method, tuple(steps), value.item(leaf)))
    return answer, explanations


class _Layout(NamedTuple):
    """How one ``which`` answer is spelled.

    ``head``, then for each ranked method ``entry(name)`` and
    ``value(expectation)``, with ``sep`` between methods, then
    ``tail(total_methods)``, which ends the answer's last line.
    """

    head: str
    entry: Callable[[str], str]
    value: Callable[[float], str]
    sep: str
    tail: Callable[[int], str]


_TEXT = _Layout(
    "Promising methods for this proof goal are:",
    lambda name: f"\n  {name} with expectation of ",
    sig4,
    "",
    lambda total: "\n",
)
# The line json.dumps writes for {"ranked": [{"method": ..., "expectation":
# ...}, ...], "total_methods": ...}; it spells a finite float as its repr.
# A value closes its method's object.
_JSON = _Layout(
    '{"ranked": [',
    lambda name: f'{{"method": {json.dumps(name)}, "expectation": ',
    lambda value: f"{value!r}}}",
    ", ",
    lambda total: f'], "total_methods": {total}}}\n',
)


def _renderer(layout: _Layout, names: list[str], total: int):
    """A function from (rows, k) ``columns`` into ``names`` and their ``values``
    to one string of ``layout`` answers, one per row.

    Each method's entry is spelled once here, and each distinct value once
    per call. Values are told apart by their float64 bits: a float unique
    would merge -0.0 into 0.0, which print differently.
    """
    first = np.array([layout.entry(name) for name in names], dtype=object)
    rest = layout.sep + first
    tail = layout.tail(total)

    def render(columns: np.ndarray, values: np.ndarray) -> str:
        rows, k = columns.shape
        bits, inverse = np.unique(values.view(np.uint64).ravel(), return_inverse=True)
        shown = np.array([layout.value(v) for v in bits.view(np.float64).tolist()], dtype=object)
        grid = np.empty((rows, 2 * k + 2), dtype=object)
        entries = rest[columns]
        entries[:, :1] = first[columns[:, :1]]
        grid[:, 0] = layout.head
        grid[:, 1:-1:2] = entries
        grid[:, 2:-1:2] = shown[inverse].reshape(rows, k)
        grid[:, -1] = tail
        return "".join(grid.ravel().tolist())

    return render


def render_recommendation(rec: Recommendation) -> str:
    names = [name for name, _ in rec.ranked]
    values = np.array([value for _, value in rec.ranked], dtype=np.float64)[None, :]
    columns = np.arange(len(names))[None, :]
    return _renderer(_TEXT, names, rec.total_methods)(columns, values)[:-1]


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


# Rows stepped through the trees together: every batch query holds one
# block of (rows, trees) temporaries at a time.
_BLOCK_ROWS = 1024


def _top_k(E: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns and values of the k best entries of each row of name-ordered (B, M) ``E``.

    Best first, ties by ascending column: the first k of a stable argsort of
    ``-E``. For k < M a partition finds each row's k-th largest value and
    every column at or above it is kept; in the few rows where that is more
    than k, only the first of the columns tied at the k-th value are. Only
    the k kept columns are then sorted.
    """
    rows, M = E.shape
    if k < M:
        kth = np.partition(E, M - k, axis=1)[:, M - k, None]
        keep = E >= kth
        over = np.flatnonzero(keep.sum(axis=1) > k)
        E_over, kth_over = E[over], kth[over]
        tied = E_over == kth_over
        need = k - (E_over > kth_over).sum(axis=1, keepdims=True)
        keep[over] = (E_over > kth_over) | (tied & (tied.cumsum(axis=1) <= need))
        flat = np.flatnonzero(keep)
        columns, values = (flat % M).reshape(rows, k), E.ravel()[flat].reshape(rows, k)
    else:
        columns, values = np.broadcast_to(np.arange(M), (rows, M)), E
    order = np.argsort(-values, axis=1, kind="stable")
    at = np.arange(rows)[:, None]
    return columns[at, order], values[at, order]


def _descend(table, block: np.ndarray, roots) -> np.ndarray:
    """(rows, len(roots)) leaf slots that (rows, F) ``block`` reaches from ``roots`` in a table.

    A cursor matrix starts at the root slots and steps ``depth`` times, one
    gather a step. A cursor at a leaf stays there: both its child slots point
    back at it, so the bit its -1 feature reads does not matter. Each step
    works in place on the cursors and one index matrix of the same shape, so
    only the step's uint8 bits are allocated; ``mode="clip"``, which no index
    here needs, keeps ``np.take`` from buffering its output.
    """
    feature, child, _, depth = table
    bits = block.reshape(-1)
    row_base = np.arange(0, bits.size, block.shape[1])[:, None]
    cur = np.empty((block.shape[0], len(roots)), dtype=np.intp)
    cur[:] = roots
    at = np.empty_like(cur)
    for _ in range(depth):
        np.take(feature, cur, out=at, mode="clip")
        at += row_base
        cur *= 2
        cur += bits[at]
        np.take(child, cur, out=at, mode="clip")
        cur, at = at, cur
    return cur


class ModelArena:
    """Every tree of a model evaluated together for a batch, on ``ModelSet.table`` uncopied."""

    def __init__(self, model: ModelSet):
        self.names = list(model.trees.keys())
        self.feature_count = model.feature_count
        self.table = model.table

    def expectations(self, matrix: np.ndarray) -> np.ndarray:
        """(B, F) query matrix -> (B, M) expectation matrix, names order.

        Each block's leaf values are gathered straight into its rows of the
        output (``mode="clip"`` as in ``_descend``).
        """
        V = _checked_bits(matrix, 2, self.feature_count)
        roots, value = np.arange(len(self.names)), self.table[2]
        out = np.empty((V.shape[0], roots.size), dtype=np.float64)
        for start in range(0, V.shape[0], _BLOCK_ROWS):
            block = V[start:start + _BLOCK_ROWS]
            leaves = _descend(self.table, block, roots)
            np.take(value, leaves, out=out[start:start + len(block)], mode="clip")
        return out

    def _top_blocks(self, matrix: np.ndarray, k: int):
        """``_top_k`` (columns, values) of each block, one ``expectations`` call per block."""
        _check_int("k", k, 1)
        V = _checked_bits(matrix, 2, self.feature_count)
        keep = min(k, len(self.names))
        for start in range(0, V.shape[0], _BLOCK_ROWS):
            yield _top_k(self.expectations(V[start:start + _BLOCK_ROWS]), keep)

    def batch_which(self, matrix: np.ndarray, k: int = 15) -> list[Recommendation]:
        """which_method over many vectors; identical ordering and ties."""
        total = len(self.names)
        names = np.asarray(self.names, dtype=object)
        out: list[Recommendation] = []
        for columns, values in self._top_blocks(matrix, k):
            out += [
                Recommendation(tuple(zip(row_names, row_values)), total)
                for row_names, row_values in zip(names[columns].tolist(), values.tolist())
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
