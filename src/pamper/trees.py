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
"""
from __future__ import annotations

import os
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Iterator, NamedTuple, Union

import numpy as np

from . import _kernels
from .corpus import EMPTY_CATALOG, METHOD_TOKEN, Corpus, FeatureCatalog
from .errors import EmptyDatasetError, ModelParseError, PamperError, decode_utf8
from .preprocess import BinaryDataset, single_target_split


class _Node:
    """A tree node is its model text: equality, hash and repr all go through it.

    Two nodes are equal when ``_format_tree`` writes the same text for them,
    and a node hashes like its text, so the writer is the only encoding of a
    tree. The text is exact for every node ``ModelSet`` admits (see
    ``_check_trees``). ``_format_tree`` is iterative, so trees of any depth
    compare, hash and print without recursion.
    """

    def __eq__(self, other) -> bool:
        if not isinstance(other, _Node):
            return NotImplemented
        return _format_tree(self) == _format_tree(other)

    def __hash__(self) -> int:
        return hash(_format_tree(self))

    def __repr__(self) -> str:
        return _format_tree(self)


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
        if not _is_int(self.max_depth) or self.max_depth < 1:
            raise ValueError(f"max_depth must be a positive int, got {self.max_depth!r}")
        if self.min_points_to_split < 1:
            raise ValueError("min_points_to_split must be at least 1")


class TreeStats(NamedTuple):
    internal: int
    leaves: int
    depth: int


@dataclass(frozen=True, eq=False)
class ModelSet:
    """All trained trees plus the bookkeeping queries need.

    ``trees`` is keyed by method name and kept name-sorted; ``max_depth``
    records the limit used at training time. A model is its model text: two
    models are equal when ``model_to_text`` writes the same text for both
    and their catalogs are equal. Only values that the writer prints as text
    the loader reads back are admitted (see ``_check_trees``).
    """

    feature_count: int
    trees: dict[str, TreeNode]
    catalog: FeatureCatalog = field(default_factory=lambda: EMPTY_CATALOG)
    max_depth: int = 5

    def __post_init__(self):
        if not _is_int(self.feature_count) or self.feature_count < 1:
            raise ValueError(f"feature_count must be a positive int, got {self.feature_count!r}")
        if not _is_int(self.max_depth) or self.max_depth < 1:
            raise ValueError(f"max_depth must be a positive int, got {self.max_depth!r}")
        ordered = dict(sorted(self.trees.items()))
        for name in ordered:
            if not METHOD_TOKEN.match(name):
                raise ValueError(f"invalid method name: {name!r}")
        _check_trees(ordered.values(), self.feature_count, self.max_depth)
        self.catalog.check_range(self.feature_count)
        object.__setattr__(self, "trees", MappingProxyType(ordered))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModelSet):
            return NotImplemented
        return model_to_text(self) == model_to_text(other) and self.catalog == other.catalog


def _levels(roots: Iterable[TreeNode]) -> Iterator[list[TreeNode]]:
    """Yield ``roots``, then their children, and so on, one level at a time.

    Each level lists the children of the level above in order, the
    ``when_false`` child before the ``when_true`` child.
    """
    level = list(roots)
    while level:
        yield level
        below: list[TreeNode] = []
        for node in level:
            if isinstance(node, Internal):
                below += (node.when_false, node.when_true)
        level = below


def _is_int(value) -> bool:
    """An integer that the writer prints as digits: an ``int`` or numpy integer, not a ``bool``."""
    return type(value) is int or isinstance(value, np.integer)


def _check_trees(roots: Iterable[TreeNode], feature_count: int, max_depth: int) -> None:
    """Check that the trees fit the header and that their model text loads back to them.

    Nodes compare and hash by their text, so an expectation must be a Python
    ``float`` in [0, 1] (``np.float64`` prints as ``np.float64(...)``, and
    ``int`` or ``bool`` without a decimal point), and a count or feature index
    an integer that ``_is_int`` admits. This runs on every model load, so
    all trees share one level walk and exact types are tested inline first:
    plain values cost one identity test each.
    """
    for depth, level in enumerate(_levels(roots)):
        for node in level:
            if isinstance(node, Leaf):
                expectation, count = node.expectation, node.count
                if type(expectation) is not float or not 0.0 <= expectation <= 1.0:
                    raise ValueError(f"expectation must be a float in [0, 1], got {expectation!r}")
                if not (type(count) is int or _is_int(count)) or count < 0:
                    raise ValueError(f"count must be a nonnegative int, got {count!r}")
            elif isinstance(node, Internal):
                if depth >= max_depth:
                    raise ValueError(f"tree exceeds depth limit {max_depth}")
                feature = node.feature
                if not (type(feature) is int or _is_int(feature)) or not (
                    0 <= feature < feature_count
                ):
                    raise ValueError(
                        f"feature must be an int in [0, {feature_count}), got {feature!r}"
                    )
            else:
                raise TypeError(f"not a tree node: {node!r}")


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


def _grow(Xp, yp, mask, n, pos, cfg) -> TreeNode:
    """Grow the tree of a root mask depth-first, false side first, on an explicit stack.

    ``todo`` holds nodes still to grow as ``(mask, n, pos, depth)`` and, under
    each split node's two children, its feature; popping the feature joins
    the last two finished subtrees into an Internal node.
    """
    todo: list = [(mask, n, pos, 0)]
    done: list[TreeNode] = []
    while todo:
        item = todo.pop()
        if isinstance(item, int):
            when_true = done.pop()
            when_false = done.pop()
            done.append(Internal(item, when_false, when_true))
            continue
        mask, n, pos, depth = item
        if (
            depth >= cfg.max_depth
            or n < cfg.min_points_to_split
            or pos == 0
            or pos == n
        ):
            done.append(Leaf(pos / n, n))
            continue
        n_true, pos_true = _kernels.node_counts(Xp, yp, mask)
        nt = n_true.tolist()
        pt = pos_true.tolist()
        j = _choose_split(nt, pt, n, pos)
        if j is None:
            done.append(Leaf(pos / n, n))
            continue
        mask_false, mask_true = _kernels.partition(Xp, mask, j)
        todo += (
            j,
            (mask_true, nt[j], pt[j], depth + 1),
            (mask_false, n - nt[j], pos - pt[j], depth + 1),
        )
    return done.pop()


def build_tree(dataset: BinaryDataset, cfg: TrainConfig | None = None) -> TreeNode:
    """Grow one regression tree for a method's binary dataset."""
    cfg = cfg or TrainConfig()
    n = len(dataset)
    if n == 0:
        raise EmptyDatasetError()
    root = _kernels.pack_bits(np.ones(n, dtype=np.uint8))
    yp = _kernels.pack_bits(dataset.labels)
    return _grow(dataset.columns, yp, root, n, dataset.positives, cfg)


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
    return {
        node.feature
        for level in _levels(model.trees.values())
        for node in level
        if isinstance(node, Internal)
    }


def tree_stats(tree: TreeNode) -> TreeStats:
    """Internal-node count, leaf count, and depth of one tree."""
    internal = leaves = 0
    for depth, level in enumerate(_levels([tree])):
        branching = sum(isinstance(node, Internal) for node in level)
        internal += branching
        leaves += len(level) - branching
    return TreeStats(internal, leaves, depth)


_HEADER = re.compile(r"pamper-model v1 features=(\d+) depth=(\d+)\s*$")


def _format_tree(tree: TreeNode) -> str:
    out: list[str] = []
    todo: list = []  # when_true branches still to write, each above a None closing its parent
    node = tree
    while True:
        if isinstance(node, Internal):
            out.append(f"N({node.feature},")
            todo.append(None)
            todo.append(node.when_true)
            node = node.when_false
            continue
        out.append(f"L({node.expectation!r},{node.count})")
        while todo:
            node = todo.pop()
            if node is not None:
                out.append(",")
                break
            out.append(")")
        else:
            return "".join(out)


def model_to_text(model: ModelSet) -> str:
    """Serialize a model: a header line, then one name<TAB>tree line each.

    Expectations are written with repr, the shortest decimal form that
    round-trips, so save -> load -> save is byte-identical.
    """
    lines = [
        f"pamper-model v1 features={model.feature_count} depth={model.max_depth}"
    ]
    for name, tree in model.trees.items():
        lines.append(f"{name}\t{_format_tree(tree)}")
    return "\n".join(lines) + "\n"


def _column(pieces: list[str], i: int, offset: int = 0) -> int:
    """1-based column of ``offset`` characters into piece ``i`` of a body cut at ','."""
    return sum(map(len, pieces[:i])) + i + offset + 1


def _parse_tree(body: str, line_no: int, feature_count: int, max_depth: int) -> TreeNode:
    """Parse one tree body in a single pass, with an explicit stack.

    The grammar is ``node := "L(" expectation "," count ")"`` or
    ``"N(" feature "," node "," node ")"``. The body is cut at every ``,``;
    each piece is then an ``N(<feature>`` or ``L(<expectation>`` opener, or
    a leaf's ``<count>)`` followed by one more ``)`` per node it closes. No
    number that holds ``(``, ``)`` or ``,`` converts, so cutting at the
    delimiters accepts exactly what scanning each number up to its own
    terminator would.
    """
    pieces = body.split(",")
    last = len(pieces) - 1
    stack: list[list] = []  # open nodes as [feature, when_false or None], outermost first
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
            stack.append([feature, None])
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
        node: TreeNode = Leaf(expectation, count)
        junk = rest.lstrip(")")
        closes = len(rest) - len(junk)
        while stack:
            top = stack[-1]
            if top[1] is None:
                if closes or junk or i == last:
                    raise ModelParseError(line_no, "expected ',' between branches")
                top[1] = node
                break
            if not closes:
                raise ModelParseError(line_no, "expected ')' to close branch")
            closes -= 1
            stack.pop()
            node = Internal(top[0], top[1], node)
        else:
            if closes or junk or i != last:
                column = _column(pieces, i, len(token) + 1 + len(rest) - len(junk) - closes)
                raise ModelParseError(line_no, f"trailing characters at column {column}")
            return node
        i += 1


def model_from_text(text: str | bytes) -> ModelSet:
    """Parse model text; raises ModelParseError with the offending line."""
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
    trees: dict[str, TreeNode] = {}
    for line_no, raw in enumerate(lines[1:], start=2):
        line = raw.rstrip("\r")
        if not line.strip():
            continue
        name, sep, body = line.partition("\t")
        if not sep:
            raise ModelParseError(line_no, "expected '<method><TAB><tree>'")
        if not METHOD_TOKEN.match(name):
            raise ModelParseError(line_no, f"invalid method name: {name!r}")
        if name in trees:
            raise ModelParseError(line_no, f"duplicate method: {name}")
        trees[name] = _parse_tree(body, line_no, feature_count, max_depth)
    return ModelSet(feature_count, trees, EMPTY_CATALOG, max_depth)


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
