"""Per-method regression trees over boolean feature vectors.

Trees are grown top-down by binary splitting. At each node every
feature is scored by the summed residual sum of squares (RSS) of the two
sides it induces; the feature with the lowest post-split RSS wins, ties
going to the lowest feature index. Growth stops at the depth limit, on
nodes too small to split, on pure nodes, and when no feature strictly
reduces the node's own RSS. A leaf predicts the mean label of its region,
read as the expectation that the method applies there.

For 0/1 labels a region's RSS collapses to positives*(size-positives)/size,
so split selection runs entirely on integer counts. Comparisons between
candidate splits cross-multiply the exact rationals, which makes the chosen
feature and tie-break independent of floating-point rounding.

Every model, trained, loaded or given a catalog, is made by the one
``ModelSet`` constructor and stored as its trees' preorder rows.
"""
from __future__ import annotations

import os
import re
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from itertools import chain
from types import MappingProxyType
from typing import Iterator, NamedTuple, Union

import numpy as np

from . import _kernels
from .corpus import EMPTY_CATALOG, Corpus, FeatureCatalog
from .errors import (
    EmptyDatasetError,
    InvalidValueError,
    ModelParseError,
    PamperError,
    _check_int,
    _check_name,
    _is_int,
    decode_utf8,
)
from .preprocess import BinaryDataset, single_target_split


class _Node:
    """A tree node is its model text: equality, hash and repr all go through it.

    The writer prints the node's preorder rows (``_node_rows``), so it is the
    only encoding of a tree. It also prints nodes that ``ModelSet`` rejects,
    such as ``Internal(-1, ...)``, and is exact for every node it admits.
    Both are iterative, so trees of any depth compare, hash and print.
    """

    def __eq__(self, other) -> bool:
        if not isinstance(other, _Node):
            return NotImplemented
        return repr(self) == repr(other)

    def __hash__(self) -> int:
        return hash(repr(self))

    def __repr__(self) -> str:
        return _tree_text(_node_rows(self))


@dataclass(frozen=True, eq=False, repr=False)
class Leaf(_Node):
    """Terminal region: mean label (expectation) and point count."""

    expectation: float
    count: int


@dataclass(frozen=True, eq=False, repr=False)
class Internal(_Node):
    """Branch on one feature: bit clear goes left, bit set goes right."""

    feature: int
    when_false: "TreeNode"
    when_true: "TreeNode"


TreeNode = Union[Leaf, Internal]


@dataclass(frozen=True)
class TrainConfig:
    max_depth: int = 5
    min_points_to_split: int = 2

    def __post_init__(self):
        _check_int("max_depth", self.max_depth, 1)
        _check_int("min_points_to_split", self.min_points_to_split, 1)


class TreeStats(NamedTuple):
    internal: int
    leaves: int
    depth: int


@dataclass(frozen=True, eq=False)
class ModelSet:
    """All trained trees plus the bookkeeping queries need.

    ``trees`` is a read-only mapping from method name to tree, name-sorted;
    ``max_depth`` records the limit used at training time. A model is its
    model text: two models are equal when ``model_to_text`` writes the same
    text for both and their catalogs are equal. Every model is stored as its
    trees' preorder rows, numbered once into ``table``: given nodes, as
    ``train`` gives them, are read into rows and admitted only if the writer
    prints them as text the loader reads back (``_check_rows``); another
    model's ``trees`` share their rows, checked again only if they do not fit.
    """

    feature_count: int
    trees: Mapping[str, TreeNode]
    catalog: FeatureCatalog = field(default_factory=lambda: EMPTY_CATALOG)
    max_depth: int = 5
    table: tuple = field(init=False, repr=False)

    def __post_init__(self):
        feature_count, max_depth, trees = self.feature_count, self.max_depth, self.trees
        _check_int("feature_count", feature_count, 1)
        if feature_count > np.iinfo(np.intp).max:  # the node table indexes features as intp
            raise InvalidValueError(f"feature_count must fit a numpy intp, got {feature_count}")
        _check_int("max_depth", max_depth, 1)
        if not isinstance(trees, _Trees):
            for name in trees:
                _check_name(name)
            rows = {}
            for name, tree in sorted(trees.items()):
                rows[name] = _node_rows(tree)
                _check_rows(rows[name], feature_count, max_depth)
            trees = _Trees(rows)
        feature, _, _, depth = trees.table
        if depth > max_depth or feature.max(initial=-1) >= feature_count:  # shared, unfit rows
            for rows in trees.rows:
                _check_rows(rows, feature_count, max_depth)
        self.catalog.check_range(feature_count)
        object.__setattr__(self, "trees", trees)
        object.__setattr__(self, "table", trees.table)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModelSet):
            return NotImplemented
        return model_to_text(self) == model_to_text(other) and self.catalog == other.catalog

    @property
    def columns(self) -> Mapping[str, int]:
        """Method name -> its column: its root's slot in ``table`` and its ``ModelArena`` column."""
        return self.trees.columns

    def with_catalog(self, catalog: FeatureCatalog) -> ModelSet:
        """This model with ``catalog``, sharing its trees and table."""
        return replace(self, catalog=catalog)


class _Trees(Mapping):
    """A model's read-only name -> tree mapping over its trees' preorder rows.

    ``rows`` lists each tree's flat rows in name order; ``table`` numbers them
    when first read. Names, ``len`` and ``in`` come from the names alone, and
    the ``Leaf`` / ``Internal`` nodes are built from the rows once, when first read.
    """

    def __init__(self, rows: dict):
        names = sorted(rows)
        self.columns = MappingProxyType(dict(zip(names, range(len(names)))))
        self.rows = [rows[name] for name in names]
        self._roots = None

    @cached_property
    def table(self) -> tuple:
        return _node_table(self.rows)

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[str]:
        return iter(self.columns)

    def __contains__(self, name) -> bool:
        return name in self.columns

    def __getitem__(self, name: str) -> TreeNode:
        if self._roots is None:
            self._roots = [_tree_from_rows(tree) for tree in self.rows]
        return self._roots[self.columns[name]]

    def __repr__(self) -> str:
        return repr(dict(self))


def _node_rows(tree: TreeNode) -> list:
    """One tree's preorder rows, as ``_parse_tree`` writes them, read off its nodes unchecked.

    Each node adds its depth, feature (-1 for a leaf), expectation (0.0 for
    an internal node) and count (0 for an internal node).
    """
    rows: list = []
    todo = [(tree, 0)]
    while todo:
        node, depth = todo.pop()
        if isinstance(node, Internal):
            rows += (depth, node.feature, 0.0, 0)
            todo += ((node.when_true, depth + 1), (node.when_false, depth + 1))
        elif isinstance(node, Leaf):
            rows += (depth, -1, node.expectation, node.count)
        else:
            raise TypeError(f"not a tree node: {node!r}")
    return rows


def _tree_from_rows(rows: list) -> TreeNode:
    """One tree's ``Leaf`` / ``Internal`` nodes, built from its valid rows in reverse preorder.

    This is the only builder of nodes: ``_grow``, ``_parse_tree`` and
    ``_node_rows`` all write rows. Both subtrees of a node follow its row, so
    each is built before the node that holds it; the ``when_false`` subtree
    is then on top of the stack.
    """
    done: list = []
    for feature, value, count in zip(rows[-3::-4], rows[-2::-4], rows[-1::-4]):
        if feature < 0:
            done.append(Leaf(value, count))
        else:
            done.append(Internal(feature, done.pop(), done.pop()))
    return done.pop()


def _check_rows(rows: list, feature_count: int, max_depth: int) -> None:
    """Check that one tree's rows fit the header and that their model text loads back to them.

    An expectation must be a Python ``float`` in [0, 1] (``np.float64``
    prints as ``np.float64(...)``, and ``int`` or ``bool`` without a decimal
    point), and a count or feature index an integer that ``_is_int`` admits.
    As in the writer, a row is an internal node when the next row is deeper.
    Plain values cost one identity test each. The parser enforces the same rules.
    """
    depths = rows[0::4]
    for depth, feature, expectation, count, below in zip(
        depths, rows[1::4], rows[2::4], rows[3::4], depths[1:] + [0]
    ):
        if below > depth:
            if depth >= max_depth:
                raise ValueError(f"tree exceeds depth limit {max_depth}")
            if not (type(feature) is int or _is_int(feature)) or not 0 <= feature < feature_count:
                raise ValueError(f"feature must be an int in [0, {feature_count}), got {feature!r}")
            continue
        if type(expectation) is not float or not 0.0 <= expectation <= 1.0:
            raise ValueError(f"expectation must be a float in [0, 1], got {expectation!r}")
        if not (type(count) is int or _is_int(count)) or count < 0:
            raise ValueError(f"count must be a nonnegative int, got {count!r}")


def _node_table(rows: list) -> tuple:
    """Number each tree's preorder rows into one read-only table ``(feature, child, value, depth)``.

    One stable sort by depth lists the nodes level by level across the
    trees, each level in tree order and, within a tree, in preorder, which
    is left to right. The roots are slots ``0 .. len(rows)-1``; the i-th
    internal node's children are slots ``len(rows) + 2i`` (bit clear) and
    ``len(rows) + 2i + 1`` (bit set), stored at ``child[2*s]`` and
    ``child[2*s + 1]`` of its slot ``s``. A leaf has ``feature`` -1, points
    both child slots at itself and holds its expectation in ``value``;
    ``depth`` counts the levels below the roots.
    """
    flat = list(chain.from_iterable(rows))
    depths = np.array(flat[0::4], dtype=np.intp)
    order = np.argsort(depths, kind="stable")
    feature = np.array(flat[1::4], dtype=np.intp)[order]
    value = np.array(flat[2::4], dtype=np.float64)[order]
    internal = feature >= 0
    first = np.where(internal, len(rows) + 2 * (np.cumsum(internal) - 1), np.arange(feature.size))
    child = np.stack([first, first + internal], axis=1).reshape(-1)
    for array in (feature, child, value):
        array.setflags(write=False)
    return feature, child, value, int(depths.max(initial=0))


def _choose_split(n_true, pos_true, n, pos):
    """Exact-arithmetic argmin of the post-split RSS over every feature.

    Returns the feature with the lowest RSS, ties going to the lowest index,
    or None when no feature strictly beats the node's own RSS (degenerate
    one-sided splits can never win).
    """
    best = None
    for j, nt in enumerate(n_true):
        nf = n - nt
        if nt == 0 or nf == 0:
            continue
        pt = pos_true[j]
        pf = pos - pt
        num = pt * (nt - pt) * nf + pf * (nf - pf) * nt
        den = nt * nf
        if best is None or num * best[1] < best[0] * den:
            best = (num, den, j)
    if best is None:
        return None
    num, den, j = best
    if num * n >= pos * (n - pos) * den:
        return None
    return j


def _grow(Xp, yp, mask, n, pos, cfg) -> list:
    """Grow the tree of a root mask into its preorder rows, depth-first on an explicit stack.

    ``todo`` holds nodes still to grow as ``(mask, n, pos, depth)``, the
    ``when_false`` child pushed last, so nodes pop in the preorder of
    ``_parse_tree``'s rows. Each pop appends its node's row: a split's
    feature, or, past a stop or when no feature beats the node, a leaf's
    expectation and count.
    """
    rows: list = []
    todo: list = [(mask, n, pos, 0)]
    while todo:
        mask, n, pos, depth = todo.pop()
        j = None
        if depth < cfg.max_depth and n >= cfg.min_points_to_split and 0 < pos < n:
            n_true, pos_true = _kernels.node_counts(Xp, yp, mask)
            nt = n_true.tolist()
            pt = pos_true.tolist()
            j = _choose_split(nt, pt, n, pos)
        if j is None:
            rows += (depth, -1, pos / n, n)
            continue
        rows += (depth, j, 0.0, 0)
        mask_false, mask_true = _kernels.partition(Xp, mask, j)
        todo += (
            (mask_true, nt[j], pt[j], depth + 1),
            (mask_false, n - nt[j], pos - pt[j], depth + 1),
        )
    return rows


def build_tree(dataset: BinaryDataset, cfg: TrainConfig | None = None) -> TreeNode:
    """Grow one regression tree for a method's binary dataset, as rows, and build its nodes."""
    cfg = cfg or TrainConfig()
    n = len(dataset)
    if n == 0:
        raise EmptyDatasetError()
    root = _kernels.pack_bits(np.ones(n, dtype=np.uint8))
    yp = _kernels.pack_bits(dataset.labels)
    return _tree_from_rows(_grow(dataset.columns, yp, root, n, dataset.positives, cfg))


def resolve_threads(_ignored: None = None) -> int:
    """Worker count for per-method training, from PAMPER_THREADS (0 or unset = one per CPU).

    PAMPER_THREADS is the only thread setting. The optional argument is
    ignored; it keeps callers of the old ``resolve_threads(explicit)`` form,
    such as the ``perfbench/spans.py`` tracer, working with ``None``.
    """
    raw = os.environ.get("PAMPER_THREADS", "0").strip() or "0"
    try:
        threads = int(raw)
    except ValueError:
        raise PamperError(f"PAMPER_THREADS must be an integer, got {raw!r}") from None
    if threads < 0:
        raise PamperError(f"PAMPER_THREADS must be nonnegative, got {threads}")
    return threads or os.cpu_count() or 1


def train(corpus: Corpus, cfg: TrainConfig | None = None) -> ModelSet:
    """Train one tree per method observed in the corpus.

    This is ``single_target_split`` followed by ``build_tree`` on each
    method's dataset on a pool of ``resolve_threads()`` workers, a count
    that PAMPER_THREADS sets. The datasets come name-sorted and every tree
    depends only on its own dataset, which keeps the result identical for
    any thread count.
    """
    cfg = cfg or TrainConfig()
    datasets = single_target_split(corpus)
    names = list(datasets)
    with ThreadPoolExecutor(max_workers=resolve_threads()) as pool:
        built = list(pool.map(lambda name: build_tree(datasets[name], cfg), names))
    return ModelSet(corpus.feature_count, dict(zip(names, built)), EMPTY_CATALOG, cfg.max_depth)


def used_features(model: ModelSet) -> set[int]:
    """Every feature index that branches some tree in the model."""
    feature = model.table[0]
    return set(feature[feature >= 0].tolist())


def tree_stats(tree: TreeNode) -> TreeStats:
    """Internal-node count, leaf count, and depth of one tree."""
    return _row_stats(_node_rows(tree))


def _row_stats(rows: list) -> TreeStats:
    """``tree_stats`` of one tree's rows: a binary tree has one more leaf than it has splits."""
    internal = len(rows) // 8  # four entries per node, 2 * internal + 1 nodes
    return TreeStats(internal, internal + 1, max(rows[0::4]))


_HEADER = re.compile(r"pamper-model v1 features=(\d+) depth=(\d+)\s*$")


def _tree_text(rows: list) -> str:
    """One tree's model text, written from its preorder rows.

    A row is an internal node when the next row is deeper, and a leaf
    otherwise. After a leaf, one ``)`` closes each level that the next row
    climbs, and a ``,`` starts the ``when_true`` branch that the next row
    opens; after the last leaf, every open node closes.
    """
    depths = rows[0::4]
    return "".join([
        f"N({feature}," if below > depth
        else f"L({expectation!r},{count}){')' * (depth - below)}{',' if below else ''}"
        for depth, feature, expectation, count, below in zip(
            depths, rows[1::4], rows[2::4], rows[3::4], depths[1:] + [0]
        )
    ])


def model_to_text(model: ModelSet) -> str:
    """Serialize a model: a header line, then one name<TAB>tree line each.

    Expectations are written with repr, the shortest decimal form that
    round-trips, so save -> load -> save is byte-identical.
    """
    lines = [
        f"pamper-model v1 features={model.feature_count} depth={model.max_depth}"
    ]
    for name, rows in zip(model.trees, model.trees.rows):
        lines.append(f"{name}\t{_tree_text(rows)}")
    return "\n".join(lines) + "\n"


def _column(pieces: list[str], i: int, offset: int = 0) -> int:
    """1-based column of ``offset`` characters into piece ``i`` of a body cut at ','."""
    return sum(map(len, pieces[:i])) + i + offset + 1


def _parse_tree(body: str, line_no: int, feature_count: int, max_depth: int) -> list:
    """Parse one tree body in a single pass, with an explicit stack.

    The grammar is ``node := "L(" expectation "," count ")"`` or
    ``"N(" feature "," node "," node ")"``. The body is cut at every ``,``;
    each piece is then an ``N(<feature>`` or ``L(<expectation>`` opener, or
    a leaf's ``<count>)`` followed by one more ``)`` per node it closes. No
    number that holds ``(``, ``)`` or ``,`` converts, so cutting at the
    delimiters accepts exactly what scanning each number up to its own
    terminator would.

    Returns one flat list with a row of four entries per node, in preorder:
    the node's depth, its feature (-1 for a leaf), its expectation (0.0 for
    an internal node) and its count (0 for an internal node).
    """
    rows: list = []
    pieces = body.split(",")
    last = len(pieces) - 1
    stack: list[bool] = []  # open nodes, outermost first: True once their when_false branch is read
    i = 0
    while True:
        piece = pieces[i]
        head = piece[:2]
        if head == "N(":
            if len(stack) >= max_depth:
                raise ModelParseError(line_no, f"tree deeper than declared depth {max_depth}")
            if i == last:
                raise ModelParseError(line_no, "missing ',' after feature")
            try:
                feature = int(piece[2:])
            except ValueError:
                raise ModelParseError(line_no, f"bad feature index: {piece[2:]!r}") from None
            if not 0 <= feature < feature_count:
                raise ModelParseError(
                    line_no, f"feature {feature} out of range for {feature_count} features"
                )
            rows += (len(stack), feature, 0.0, 0)
            stack.append(False)
            i += 1
            continue
        if head != "L(":
            raise ModelParseError(line_no, f"expected node at column {_column(pieces, i)}")
        if i == last:
            raise ModelParseError(line_no, "missing ',' after expectation")
        try:
            expectation = float(piece[2:])
        except ValueError:
            raise ModelParseError(line_no, f"bad expectation: {piece[2:]!r}") from None
        if not (0.0 <= expectation <= 1.0):
            raise ModelParseError(line_no, f"expectation {piece[2:]} outside [0, 1]")
        i += 1
        token, sep, rest = pieces[i].partition(")")
        if not sep:
            raise ModelParseError(line_no, "missing ')' after count")
        try:
            count = int(token)
        except ValueError:
            raise ModelParseError(line_no, f"bad count: {token!r}") from None
        if count < 0:
            raise ModelParseError(line_no, "negative count")
        rows += (len(stack), -1, expectation, count)
        junk = rest.lstrip(")")
        closes = len(rest) - len(junk)
        while stack:
            if not stack[-1]:
                if closes or junk or i == last:
                    raise ModelParseError(line_no, "expected ',' between branches")
                stack[-1] = True
                break
            if not closes:
                raise ModelParseError(line_no, "expected ')' to close branch")
            closes -= 1
            stack.pop()
        else:
            if closes or junk or i != last:
                column = _column(pieces, i, len(token) + 1 + len(rest) - len(junk) - closes)
                raise ModelParseError(line_no, f"trailing characters at column {column}")
            return rows
        i += 1


def model_from_text(text: str | bytes) -> ModelSet:
    """Parse model text; raises ModelParseError with the offending line.

    The parser's rows, which it has checked, go to ``ModelSet`` as trees
    in name order, and the nodes are built only when a caller reads them.
    """
    text = decode_utf8(text, ModelParseError)
    lines = text.split("\n")
    match = _HEADER.match(lines[0].rstrip("\r"))
    if not match:
        raise ModelParseError(1, "bad header, expected 'pamper-model v1 features=<F> depth=<D>'")
    try:
        feature_count = int(match.group(1))
        max_depth = int(match.group(2))
    except ValueError:  # more digits than int() converts
        raise ModelParseError(1, "header number too long") from None
    if feature_count < 1:
        raise ModelParseError(1, "feature count must be positive")
    if max_depth < 1:
        raise ModelParseError(1, "depth must be positive")
    trees: dict[str, list] = {}
    for line_no, raw in enumerate(lines[1:], start=2):
        line = raw.rstrip("\r")
        if not line.strip():
            continue
        name, sep, body = line.partition("\t")
        if not sep:
            raise ModelParseError(line_no, "expected '<method><TAB><tree>'")
        _check_name(name, partial(ModelParseError, line_no))
        if name in trees:
            raise ModelParseError(line_no, f"duplicate method: {name}")
        trees[name] = _parse_tree(body, line_no, feature_count, max_depth)
    return ModelSet(feature_count, _Trees(trees), EMPTY_CATALOG, max_depth)


def save_model(model: ModelSet, sink) -> None:
    """Write model text to a path or file object, LF line endings."""
    text = model_to_text(model)
    if hasattr(sink, "write"):
        sink.write(text)
    else:
        with open(sink, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def load_model(source) -> ModelSet:
    """Read a model from a path or file object."""
    if hasattr(source, "read"):
        return model_from_text(source.read())
    with open(source, "rb") as handle:
        return model_from_text(handle.read())
