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
``ModelSet`` constructor and stored as preorder node arrays: one array per
field (depth, feature, value, count) over all its trees in name order, plus
each tree's end. Model text that ``model_to_text`` could have written is
read in bulk, straight into those arrays (``_canonical_trees``); any other
text goes to the strict parser (``_parse_tree``), which is the only code
that raises, so its messages and line numbers are the only ones a user sees.
"""
from __future__ import annotations

import os
import re
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from itertools import chain
from types import MappingProxyType
from typing import Iterator, NamedTuple, Union

import numpy as np

from . import _kernels
from .corpus import EMPTY_CATALOG, Corpus, FeatureCatalog
from .errors import (
    METHOD_TOKEN,
    EmptyDatasetError,
    InvalidValueError,
    ModelParseError,
    PamperError,
    _check_feature_count,
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
    trees' preorder node arrays, numbered once into ``table``: given nodes, as
    ``train`` gives them, are read into rows and admitted only if the writer
    prints them as text the loader reads back (``_check_rows``); another
    model's ``trees`` share their arrays, checked again only if they do not fit.
    """

    feature_count: int
    trees: Mapping[str, TreeNode]
    catalog: FeatureCatalog = field(default_factory=lambda: EMPTY_CATALOG)
    max_depth: int = 5
    table: tuple = field(init=False, repr=False)

    def __post_init__(self):
        feature_count, max_depth, trees = self.feature_count, self.max_depth, self.trees
        _check_feature_count(feature_count)
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
            trees = _Trees.from_rows(rows)
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
    """A model's read-only name -> tree mapping over its nodes' preorder arrays.

    ``depth``, ``feature``, ``value`` and ``count`` hold one entry per node,
    tree after tree in name order and each tree in preorder, as the rows of
    ``_parse_tree`` hold them; tree ``i`` ends before node ``ends[i]``.
    ``table`` numbers the nodes when first read. Names, ``len`` and ``in``
    come from the names alone; each tree's ``rows`` and its ``Leaf`` /
    ``Internal`` nodes are built from the arrays once, when first read.
    """

    def __init__(self, names: list, depth, feature, value, count, ends):
        self.columns = MappingProxyType(dict(zip(names, range(len(names)))))
        self.depth, self.feature, self.value, self.count = depth, feature, value, count
        self.ends = ends
        for array in (depth, feature, value, count, ends):
            array.setflags(write=False)

    @classmethod
    def from_rows(cls, rows: dict) -> _Trees:
        """The trees of name -> checked preorder rows, flattened once in name order."""
        names = sorted(rows)
        flat = list(chain.from_iterable(map(rows.__getitem__, names)))
        return cls(
            names,
            np.array(flat[0::4], dtype=np.intp),
            np.array(flat[1::4], dtype=np.intp),
            np.array(flat[2::4], dtype=np.float64),
            np.array(flat[3::4], dtype=object),  # counts past int64 print exactly
            np.cumsum([len(rows[name]) // 4 for name in names], dtype=np.intp),
        )

    @cached_property
    def level_order(self) -> np.ndarray:
        """The node indices level by level across the trees, as ``_node_table`` numbers them."""
        return np.argsort(self.depth, kind="stable")

    @cached_property
    def table(self) -> tuple:
        order = self.level_order
        depth = int(self.depth.max(initial=0))
        return _node_table(self.feature[order], self.value[order], len(self.columns), depth)

    @cached_property
    def rows(self) -> list:
        """Each tree's flat preorder rows, in name order, as ``_parse_tree`` writes them."""
        flat = [None] * (4 * self.depth.size)
        flat[0::4] = self.depth.tolist()
        flat[1::4] = self.feature.tolist()
        flat[2::4] = self.value.tolist()
        flat[3::4] = self.count.tolist()
        ends = (4 * self.ends).tolist()
        return [flat[start:end] for start, end in zip([0] + ends, ends)]

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[str]:
        return iter(self.columns)

    def __contains__(self, name) -> bool:
        return name in self.columns

    @cached_property
    def roots(self) -> list:
        return [_tree_from_rows(tree) for tree in self.rows]

    def __getitem__(self, name: str) -> TreeNode:
        return self.roots[self.columns[name]]

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


def _node_table(feature, value, roots: int, depth: int) -> tuple:
    """Number the nodes' features and values, in ``level_order``, into one read-only table.

    The table is ``(feature, child, value, depth)``. ``level_order``, one
    stable sort by depth, lists the nodes level by level across the trees,
    each level in tree order and, within a tree, in preorder, which is left
    to right. The roots are slots ``0 .. roots-1``; the i-th
    internal node's children are slots ``roots + 2i`` (bit clear) and
    ``roots + 2i + 1`` (bit set), stored at ``child[2*s]`` and
    ``child[2*s + 1]`` of its slot ``s``. A leaf has ``feature`` -1, points
    both child slots at itself and holds its expectation in ``value``;
    ``depth`` counts the levels below the roots.
    """
    internal = feature >= 0
    first = np.where(internal, roots + 2 * (np.cumsum(internal) - 1), np.arange(feature.size))
    child = np.stack([first, first + internal], axis=1).reshape(-1)
    for array in (feature, child, value):
        array.setflags(write=False)
    return feature, child, value, depth


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


def _grow(Xp, yp, n, pos, cfg) -> list:
    """Grow the tree of all ``n`` rows into its preorder rows, depth-first on an explicit stack.

    ``todo`` holds nodes still to grow as ``(mask, n, pos, depth, counts)``,
    the ``when_false`` child pushed last, so nodes pop in the preorder of
    ``_parse_tree``'s rows. Each pop appends its node's row: a split's
    feature, or a leaf's expectation and count.

    ``node`` makes each entry and holds the stop rule: a node that may split
    gets its ``_kernels.node_counts`` as it is made, at its parent's split;
    any other gets None. A split makes its ``when_false`` child first; if
    both children are counted, the ``when_true`` one's ``n_true`` is its
    parent's minus its sibling's, so the kernel counts only its positives.
    The kernel runs once per tested node; no entry holds counts for another.
    """
    def node(mask, n, pos, depth, parent_n_true=None, sibling=None):
        if not (depth < cfg.max_depth and n >= cfg.min_points_to_split and 0 < pos < n):
            return mask, n, pos, depth, None
        n_true = None if sibling is None else parent_n_true - sibling[0]
        return mask, n, pos, depth, _kernels.node_counts(Xp, yp, mask, n_true)

    rows: list = []
    todo = [node(_kernels.pack_bits(np.ones(n, dtype=np.uint8)), n, pos, 0)]
    while todo:
        mask, n, pos, depth, counts = todo.pop()
        j = None
        if counts is not None:
            nt, pt = counts[0].tolist(), counts[1].tolist()
            j = _choose_split(nt, pt, n, pos)
        if j is None:
            rows += (depth, -1, pos / n, n)
            continue
        rows += (depth, j, 0.0, 0)
        mask_false, mask_true = _kernels.partition(Xp, mask, j)
        *_, false_counts = when_false = node(mask_false, n - nt[j], pos - pt[j], depth + 1)
        todo += (node(mask_true, nt[j], pt[j], depth + 1, counts[0], false_counts), when_false)
    return rows


def build_tree(dataset: BinaryDataset, cfg: TrainConfig | None = None) -> TreeNode:
    """Grow one regression tree over all of a method's binary dataset and build its nodes."""
    cfg = cfg or TrainConfig()
    if len(dataset) == 0:
        raise EmptyDatasetError()
    return _tree_from_rows(_grow(dataset.columns, dataset.words, len(dataset), dataset.positives, cfg))


def resolve_threads(_ignored: None = None) -> int:
    """Worker count for per-method training, from PAMPER_THREADS (0 or unset = one per usable CPU).

    The usable CPUs are those ``os.sched_getaffinity`` lets this process
    run on, or ``os.cpu_count()`` where the platform lacks it.
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
    if threads:
        return threads
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def train(corpus: Corpus, cfg: TrainConfig | None = None) -> ModelSet:
    """Train one tree per method observed in the corpus, on all of its rows.

    This is ``single_target_split`` followed by ``build_tree`` on each
    method's dataset on a pool of ``resolve_threads()`` workers, a count
    that PAMPER_THREADS sets. The datasets come name-sorted and every tree
    depends only on its own dataset, which keeps the result identical for
    any thread count. To train on some rows only, train on a corpus of
    just those rows (``run_evaluation`` packs its training rows so).
    """
    from concurrent.futures import ThreadPoolExecutor

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


_CANONICAL_HEADER = re.compile(rb"pamper-model v1 features=([1-9]\d{0,17}) depth=([1-9]\d{0,17})")
_TREE_BYTES = b"NL(),-.0123456789e"  # the writer's delimiters, then its number bytes
_NUMBERS_ONLY = bytes.maketrans(b"NL(),", b"     ")
_N, _L, _OPEN, _CLOSE, _COMMA = b"NL(),"
_POW10 = 10 ** np.arange(18, dtype=np.int64)


def _decimals(buf, starts, ends) -> tuple:
    """The values of the runs ``buf[starts[i]:ends[i]]``, and the runs' byte offsets run after run.

    The values are int64, or None unless every run is 1-18 digits, which int64 holds.
    """
    lengths = ends - starts
    first = np.cumsum(lengths) - lengths
    offsets = np.arange(lengths.sum()) + np.repeat(starts - first, lengths)
    digits = buf[offsets] - ord("0")  # wraps past 9 for every other byte
    if lengths.max(initial=0) > 18 or not (digits <= 9).all():
        return None, offsets
    return np.add.reduceat(digits * _POW10[np.repeat(ends - 1, lengths) - offsets], first), offsets


def _canonical_trees(data: str | bytes):
    """``(feature_count, max_depth, trees)`` of model text wholly in canonical form, or None.

    Canonical text is what ``model_to_text`` writes: ASCII ending in LF, the
    header with numbers that have no leading zero, then one
    ``<name>\t<tree>`` line per tree, the ``METHOD_TOKEN`` names strictly
    ascending. Each tree holds only the writer's bytes, in the grammar that
    ``_parse_tree`` reads and with nothing around a number. Features and
    counts are 1-18 digits, so they fit int64. Each expectation is a float
    in [0, 1] whose last digit is not a 0 unless it follows the point, as
    in ``0.0``: ``repr`` writes no other trailing zero in a fraction, so
    ``0.50`` and ``0`` (and an exponent such as ``1e-50``) are left to the
    strict parser. Every feature is below the header's count and every
    internal node shallower than its depth. The strict parser reads such
    text to the same model. Any other text gives None and is left to it, so
    this never raises.

    ``_canonical_nodes`` reads the node arrays. Each internal node's next
    node in preorder must then sit at the first child slot that
    ``_node_table`` gives it, which holds only if every internal node has
    exactly two children.
    """
    nodes = _canonical_nodes(data)  # its buffers are freed before the table is built
    if nodes is None:
        return None
    feature_count, max_depth, names, *arrays = nodes
    trees = _Trees(names, *arrays)
    feature, child, _, _ = trees.table
    slots = np.flatnonzero(feature >= 0)  # the internal nodes, level by level
    order = trees.level_order
    if order.size != len(names) + 2 * slots.size:
        return None
    if (order[child[2 * slots]] != order[slots] + 1).any():
        return None
    return feature_count, max_depth, trees


def _canonical_nodes(data: str | bytes):
    """The header, names and preorder node arrays of canonical model text, or None.

    The trees are joined into one buffer and checked in one pass over its
    delimiters: each node opens with ``N(`` or ``L(``, a number and a
    ``,``, a leaf then has its count and ``)``, an internal node's ``,`` is
    followed by its first child, and a leaf by ``)``s and, unless it ends
    its tree, one ``,``. A node's depth is its count of open ``(``; only
    the roots and each tree's last ``)`` are at depth 0. Features and
    counts are converted from their digits in numpy; the expectations are
    cut at the delimiters and converted with ``float``, one token each.
    Returns ``(feature_count, max_depth, names, depth, feature, value,
    count, ends)`` as ``_Trees`` takes them.
    """
    if isinstance(data, str):
        if not data.isascii():
            return None
        data = data.encode("ascii")
    if not (isinstance(data, bytes) and data.endswith(b"\n") and data.isascii()):
        return None
    lines = data.split(b"\n")  # the last is empty
    match = _CANONICAL_HEADER.fullmatch(lines[0])
    if match is None or len(lines) < 3:
        return None
    feature_count, max_depth = int(match[1]), int(match[2])
    names, bodies = [], []
    for line in lines[1:-1]:
        name, _, body = line.partition(b"\t")
        names.append(name.decode("ascii"))
        bodies.append(body)
    if names != sorted(set(names)) or not all(map(METHOD_TOKEN.match, names)):
        return None
    text = b"".join(bodies)
    if text.translate(None, _TREE_BYTES):
        return None
    buf = np.frombuffer(text, dtype=np.uint8)
    sizes = [len(body) for body in bodies]
    ends = np.cumsum(sizes)
    at = np.flatnonzero(
        (buf == _N) | (buf == _L) | (buf == _OPEN) | (buf == _CLOSE) | (buf == _COMMA)
    )
    sym = buf[at]
    opener = np.flatnonzero((sym == _N) | (sym == _L))
    n = opener.size
    if not n or opener[-1] + 3 >= sym.size or at[0] != 0 or at[-1] != buf.size - 1:
        return None
    leaf = sym[opener] == _L
    internal = ~leaf
    gap = np.diff(at) > 1  # a number between delimiters k and k + 1
    after = np.append(opener[1:], sym.size)  # the next node's opener
    shaped = (
        (sym[opener + 1] == _OPEN) & gap[opener + 1] & (sym[opener + 2] == _COMMA)
        & np.where(leaf, gap[opener + 2] & (sym[opener + 3] == _CLOSE), after == opener + 3)
    )
    level = np.cumsum((sym == _OPEN).view(np.int8) - (sym == _CLOSE).view(np.int8))
    bounds = np.searchsorted(at, np.stack([ends - sizes, ends - 1], axis=1).ravel())
    zeros = np.flatnonzero(level == 0)
    tree_ends = np.searchsorted(at[opener], ends)
    followed = leaf.copy()
    followed[tree_ends - 1] = False  # a tree's last leaf; a ',' follows every other leaf
    separators = after[followed] - 1
    if not (
        shaped.all()
        and zeros.size == bounds.size and (zeros == bounds).all()
        and (sym[separators] == _COMMA).all()
        and np.count_nonzero(sym == _OPEN) == n
        and np.count_nonzero(sym == _COMMA) == n + separators.size
        and np.count_nonzero(gap) == n + np.count_nonzero(leaf)
    ):
        return None
    depth = level[opener]
    last = at[opener[leaf] + 2] - 1  # each expectation's last byte
    features, feature_bytes = _decimals(buf, at[opener[internal] + 1] + 1, at[opener[internal] + 2])
    counts, count_bytes = _decimals(buf, at[opener[leaf] + 2] + 1, at[opener[leaf] + 3])
    if (
        features is None
        or counts is None
        or features.max(initial=-1) >= feature_count
        or depth[internal].max(initial=-1) >= max_depth
        or ((buf[last] == ord("0")) & (buf[last - 1] != ord("."))).any()
    ):
        return None
    numbers = np.frombuffer(bytearray(text.translate(_NUMBERS_ONLY)), dtype=np.uint8)
    numbers[feature_bytes] = numbers[count_bytes] = ord(" ")  # leaving the expectations
    try:
        expectations = np.array(list(map(float, numbers.tobytes().split())), dtype=np.float64)
    except ValueError:
        return None
    if not ((expectations >= 0.0) & (expectations <= 1.0)).all():
        return None
    feature = np.full(n, -1, dtype=np.intp)
    feature[internal] = features
    value = np.zeros(n, dtype=np.float64)
    value[leaf] = expectations
    count = np.zeros(n, dtype=np.int64)
    count[leaf] = counts
    return feature_count, max_depth, names, depth, feature, value, count, tree_ends


def model_from_text(text: str | bytes) -> ModelSet:
    """Parse model text; raises ModelParseError with the offending line.

    Canonical text, as ``model_to_text`` writes it, is read in bulk by
    ``_canonical_trees``. Any other text goes to the strict parser, whose
    checked rows go to ``ModelSet`` as trees in name order; it is the only
    code here that raises, and a header feature count that ``ModelSet``
    rejects is reported at line 1. Either way the nodes are built only when
    a caller reads them.
    """
    canonical = _canonical_trees(text)
    if canonical is not None:
        feature_count, max_depth, trees = canonical
        return ModelSet(feature_count, trees, EMPTY_CATALOG, max_depth)
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
    try:
        return ModelSet(feature_count, _Trees.from_rows(trees), EMPTY_CATALOG, max_depth)
    except InvalidValueError as exc:  # a header feature count that ModelSet rejects
        raise ModelParseError(1, exc.reason) from None


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
