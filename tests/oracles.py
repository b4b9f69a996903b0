"""Independent reference implementations and random-instance generators.

Everything here recomputes results from first principles (exact rational
arithmetic, direct definitional formulas, plain list filtering) so the
package's optimized paths have something honest to be compared against.
"""
from __future__ import annotations

import io
import json
import re
from fractions import Fraction

import numpy as np

from pamper._format import sig4
from pamper._kernels import pack_bits
from pamper.corpus import (
    EMPTY_CATALOG, METHOD_TOKEN, Corpus, _parse_bits, _parse_record, data_lines,
)
from pamper.errors import (
    EmptyDatabaseError,
    InconsistentWidthError,
    MalformedLineError,
    ModelParseError,
    VectorWidthMismatchError,
    _is_int,
    decode_utf8,
)
from pamper.preprocess import BinaryDataset
from pamper.recommend import Explanation, ExplanationStep
from pamper.trees import Internal, Leaf, ModelSet


def side_rss(labels) -> Fraction:
    """Sum of squared deviations about the mean, exactly."""
    if not labels:
        return Fraction(0)
    mean = Fraction(sum(labels), len(labels))
    return sum((Fraction(label) - mean) ** 2 for label in labels)


def brute_force_best_split(labels, rows):
    """Exhaustive minimum-RSS split with exact arithmetic.

    labels is a list of 0/1 ints and rows a list of 0/1 sequences. Every
    feature is scored as the sum of the two sides' RSS; the lowest wins,
    first (lowest) feature on ties. Returns (feature, Fraction) or None
    when nothing strictly beats the unsplit RSS.
    """
    node_rss = side_rss(labels)
    best = None
    for j in range(len(rows[0])):
        left = [lab for lab, row in zip(labels, rows) if not row[j]]
        right = [lab for lab, row in zip(labels, rows) if row[j]]
        if not left or not right:
            continue
        total = side_rss(left) + side_rss(right)
        if best is None or total < best[1]:
            best = (j, total)
    if best is None or best[1] >= node_rss:
        return None
    return best


def reference_build_tree(X, y, cfg):
    """The whole tree, grown by recursion with ``brute_force_best_split`` at every node.

    The ground truth for ``trees.build_tree``: a node is a leaf of its mean
    label and point count at the depth limit, below ``min_points_to_split``
    points, when its labels are pure, or when no feature strictly lowers its
    RSS; otherwise it splits on the oracle's feature, bit clear to
    ``when_false``. X is a (points, features) 0/1 array and y its labels.
    """
    def grow(labels, rows, depth):
        pos, n = sum(labels), len(labels)
        split = None
        if depth < cfg.max_depth and n >= cfg.min_points_to_split and 0 < pos < n:
            split = brute_force_best_split(labels, rows)
        if split is None:
            return Leaf(pos / n, n)
        j = split[0]
        when_false, when_true = (
            grow([lab for lab, row in zip(labels, rows) if row[j] == bit],
                 [row for row in rows if row[j] == bit], depth + 1)
            for bit in (0, 1)
        )
        return Internal(j, when_false, when_true)

    return grow(np.asarray(y).tolist(), np.asarray(X).tolist(), 0)


def walk_tree(tree, bits) -> float:
    """Plain descent: bit set goes true-side, else false-side."""
    node = tree
    while isinstance(node, Internal):
        node = node.when_true if bits[node.feature] else node.when_false
    return node.expectation


def ranking(model, bits) -> list[tuple[str, float]]:
    """Every method with its walked expectation, highest first, ties by name."""
    walked = [(name, walk_tree(tree, bits)) for name, tree in model.trees.items()]
    return sorted(walked, key=lambda item: (-item[1], item[0]))


def reference_why(model: ModelSet, bits, method: str) -> Explanation:
    """One method's decision path for one vector, walked slot by slot down ``model.table``.

    The ground truth for ``recommend.batch_why_method``: from the method's
    root slot, read the bit of the slot's feature, record the step and move to
    that child, until the cursor reaches a leaf, whose child slots point back
    at it.
    """
    slot = model.columns[method]
    feature, child, value, _ = model.table
    bits = np.asarray(bits).tolist()
    steps = []
    while child.item(2 * slot) != slot:
        index = feature.item(slot)
        bit = bits[index]
        steps.append(ExplanationStep(index, bool(bit), model.catalog.describe(index)))
        slot = child.item(2 * slot + bit)
    return Explanation(method, tuple(steps), value.item(slot))


def top_k_by_argsort(E, k):
    """Columns and values of each row's k best expectations: a stable argsort of -E, cut at k.

    Columns are in name order, so the stable sort breaks ties by name.
    """
    order = np.argsort(-E, axis=1, kind="stable")[:, :k]
    return order, np.take_along_axis(E, order, axis=1)


def reference_which_text(ranked, total: int, as_json: bool = False) -> str:
    """One ``pamper which`` answer, spelled line by line with ``sig4`` or ``json.dumps``."""
    if as_json:
        entries = [{"method": name, "expectation": value} for name, value in ranked]
        return json.dumps({"ranked": entries, "total_methods": total}) + "\n"
    lines = ["Promising methods for this proof goal are:"]
    lines += [f"  {name} with expectation of {sig4(value)}" for name, value in ranked]
    return "\n".join(lines) + "\n"


def leaf_regions(tree, X):
    """Yield (leaf, row mask) pairs by replaying every root-to-leaf path."""
    stack = [(tree, np.ones(X.shape[0], dtype=bool))]
    while stack:
        node, mask = stack.pop()
        if isinstance(node, Leaf):
            yield node, mask
        else:
            bit = X[:, node.feature] != 0
            stack.append((node.when_false, mask & ~bit))
            stack.append((node.when_true, mask & bit))


def make_binary_dataset(X, y, method: str = "m") -> BinaryDataset:
    columns = pack_bits(np.asarray(X, dtype=np.uint8).T)
    columns.setflags(write=False)
    yr = np.ascontiguousarray(y, dtype=np.uint8)
    yr.setflags(write=False)
    return BinaryDataset(method, yr, columns)


def random_dataset(rng, max_points: int = 64, max_features: int = 8):
    """Random binary dataset as (X, y) uint8 arrays, at least one point."""
    n = int(rng.integers(1, max_points + 1))
    n_feat = int(rng.integers(1, max_features + 1))
    p_bit = float(rng.uniform(0.1, 0.9))
    p_label = float(rng.uniform(0.1, 0.9))
    X = (rng.random((n, n_feat)) < p_bit).astype(np.uint8)
    y = (rng.random(n) < p_label).astype(np.uint8)
    return X, y


_NAME_POOL = (
    "simp", "auto", "blast", "metis", "induct", "fastforce", "rule",
    "cases", "arith", "-", "simp_all", "meson'", "auto.intro", "co-auto",
)


def random_method_names(rng, count: int) -> list[str]:
    picks = rng.choice(len(_NAME_POOL), size=count)
    return [_NAME_POOL[int(p)] for p in picks]


def random_corpus(rng, max_points: int = 40, max_features: int = 10) -> Corpus:
    n = int(rng.integers(1, max_points + 1))
    n_feat = int(rng.integers(1, max_features + 1))
    X = (rng.random((n, n_feat)) < rng.uniform(0.2, 0.8)).astype(np.uint8)
    names = random_method_names(rng, n)
    return Corpus(tuple(names), X, n_feat)


def corpus_of_rows(rows: int, seed: int) -> Corpus:
    """A random corpus of exactly ``rows`` rows (none included) and 1 to 6 features."""
    rng = np.random.default_rng(seed)
    width = int(rng.integers(1, 7))
    X = (rng.random((rows, width)) < 0.5).astype(np.uint8)
    return Corpus(tuple(random_method_names(rng, rows)), X, width)


# 0 to 200 rows and a few over 1000, so that blocks of a few hundred bytes end
# before, on and after each 64-row word of the packed columns.
WORD_ROWS = [0, 1, 2, 17, 40, 63, 64, 65, 90, 127, 128, 129, 150, 191, 192, 193, 200, 1000, 1024, 1089]


def reference_take(corpus: Corpus, indices) -> Corpus:
    """A new corpus holding the given rows, in the given order: the copy that a row mask avoids."""
    idx = np.asarray(indices, dtype=np.int64)
    names = tuple(map(corpus.method_names.__getitem__, idx.tolist()))
    return Corpus(names, corpus.features[idx], corpus.feature_count)


def split_corpus(corpus: Corpus, spec) -> tuple[Corpus, Corpus]:
    """The (train, eval) copies of ``spec``'s split, drawn by ``numpy.random`` itself.

    Row i is held out when the i-th draw of ``Generator(PCG64(seed)).random(n)``
    is below ``eval_fraction``: the rule ``SplitSpec.held_out`` computes
    without ``numpy.random``.
    """
    held_out = np.random.Generator(np.random.PCG64(spec.seed)).random(len(corpus)) < spec.eval_fraction
    return (
        reference_take(corpus, np.flatnonzero(~held_out)),
        reference_take(corpus, np.flatnonzero(held_out)),
    )


def reference_serialize_database(corpus: Corpus) -> str:
    """Database text written one f-string per row: the ground truth for
    ``corpus.serialize_database``, which must match it byte for byte."""
    out = []
    for name, row in zip(corpus.method_names, corpus.features):
        out.append(f"{name}, [{','.join('1' if b else '0' for b in row.tolist())}]\n")
    return "".join(out)


def reference_parse_database(data: str | bytes) -> Corpus:
    """The whole input decoded, split into lines and parsed one record at a time:
    the ground truth for ``corpus.parse_database``, which reads in blocks."""
    methods: list[str] = []
    bits = bytearray()
    width = -1
    for line_no, line in data_lines(data, MalformedLineError):
        method, row = _parse_record(line, line_no)
        if width < 0:
            width = len(row)
        elif len(row) != width:
            raise InconsistentWidthError(line_no, len(row), width)
        methods.append(method)
        bits += row
    if width < 0:
        raise EmptyDatabaseError()
    X = np.frombuffer(bits, dtype=np.uint8).reshape(len(methods), width)
    return Corpus(tuple(methods), X, width)


def reference_parse_vectors(data: str | bytes, feature_count: int) -> np.ndarray:
    """The whole vector file parsed one line at a time, as ``reference_parse_database``."""
    bits = bytearray()
    rows = 0
    for line_no, line in data_lines(data, MalformedLineError):
        row = _parse_bits(line, line_no)
        if len(row) != feature_count:
            raise VectorWidthMismatchError(len(row), feature_count, line_no)
        bits += row
        rows += 1
    return np.frombuffer(bits, dtype=np.uint8).reshape(rows, feature_count)


class Unseekable(io.RawIOBase):
    """A binary stream over ``data`` that cannot seek, as a pipe or a socket cannot."""

    def __init__(self, data: bytes):
        self._inner = io.BytesIO(data)

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        return self._inner.readinto(buffer)


def input_sources(data: bytes):
    """``data`` as bytes, as a seekable binary file object, and as one that cannot seek."""
    yield data
    with io.BytesIO(data) as handle:
        yield handle
    with Unseekable(data) as handle:
        yield handle


def late_block_inputs(vectors: bool = False) -> dict[str, bytes]:
    """A canonical database, or vector file, of 400 rows x 6 flags (about 8 kB), and variants.

    Each variant's odd part comes after the first 5 kB: a CRLF, a width
    change, a non-ASCII comment, a byte that is not UTF-8 or a tab, all on
    or after the last row, or a first 5 kB that is one comment. Also a
    missing final LF, an empty input, an input of one comment line, CRLF
    on the first three lines only, and a first line made bad by a tab
    before a byte that is not UTF-8 on the last row, which is the error
    reported.
    """
    rng = np.random.default_rng(77)
    bits = (rng.random((400, 6)) < 0.5).astype(int).tolist()
    lines = [
        ("" if vectors else f"m{i % 7}, ") + "[" + ",".join(map(str, row)) + "]"
        for i, row in enumerate(bits)
    ]
    last = lines[-1]
    comment = "# " + "x" * 5000

    def text(rows: list[str]) -> bytes:
        return "".join(row + "\n" for row in rows).encode("utf-8")

    return {
        "canonical": text(lines),
        "comment-only-first-block": text([comment, "", "#"] + lines),
        "crlf-late": text(lines[:-1]) + (last + "\r\n").encode("ascii"),
        "width-change-late": text(lines[:-1] + [last[:-1] + ",1]"]),
        "non-ascii-comment-late": text(lines + ["# r\u00e9sum\u00e9"]),
        "non-utf8-byte-late": text(lines[:-1]) + b"\xff" + text([last]),
        "tab-late": text(lines[:-1] + [last.replace("[", "\t[")]),
        "no-final-lf": text(lines)[:-1],
        "empty": b"",
        "comments-only": text([comment]),
        "crlf-early": "".join(row + "\r\n" for row in lines[:3]).encode("ascii") + text(lines[3:]),
        "bad-tab-early-non-utf8-late": (
            text([lines[0].replace(",", "\t", 1)] + lines[1:-1]) + b"\xff" + text([last])
        ),
    }


def random_tree(rng, n_feat: int, depth_left: int, values=None):
    """Random tree; leaf expectations are uniform, or drawn from ``values``."""
    if depth_left == 0 or rng.random() < 0.35:
        if values is None:
            expectation = float(rng.random())
        else:
            expectation = float(values[int(rng.integers(0, len(values)))])
        return Leaf(expectation, int(rng.integers(1, 50)))
    return Internal(
        int(rng.integers(0, n_feat)),
        random_tree(rng, n_feat, depth_left - 1, values),
        random_tree(rng, n_feat, depth_left - 1, values),
    )


def tree_depth(tree) -> int:
    if isinstance(tree, Leaf):
        return 0
    return 1 + max(tree_depth(tree.when_false), tree_depth(tree.when_true))


def random_model(rng, max_methods: int = 8, max_features: int = 12, values=None) -> ModelSet:
    n_feat = int(rng.integers(1, max_features + 1))
    count = int(rng.integers(1, max_methods + 1))
    names = []
    for i, base in enumerate(random_method_names(rng, count)):
        names.append(f"{base}{i}" if base != "-" else f"minus{i}")
    trees = {}
    for name in names:
        trees[name] = random_tree(rng, n_feat, int(rng.integers(0, 5)), values)
    max_depth = max(1, max(tree_depth(t) for t in trees.values()))
    return ModelSet(n_feat, trees, max_depth=max_depth)


# --- reference model parser: recursive descent, one scan per token ---

_HEADER = re.compile(r"pamper-model v1 features=(\d+) depth=(\d+)\s*$")


def _scan_until(text: str, pos: int, stop: str, line_no: int, what: str) -> tuple[str, int]:
    end = text.find(stop, pos)
    if end < 0:
        raise ModelParseError(line_no, f"missing {stop!r} after {what}")
    return text[pos:end], end + 1


def _parse_node(text, pos, line_no, feature_count, max_depth, depth):
    if text.startswith("L(", pos):
        token, pos = _scan_until(text, pos + 2, ",", line_no, "expectation")
        try:
            expectation = float(token)
        except ValueError:
            raise ModelParseError(line_no, f"bad expectation: {token!r}") from None
        if not (0.0 <= expectation <= 1.0):
            raise ModelParseError(line_no, f"expectation {token} outside [0, 1]")
        token, pos = _scan_until(text, pos, ")", line_no, "count")
        try:
            count = int(token)
        except ValueError:
            raise ModelParseError(line_no, f"bad count: {token!r}") from None
        if count < 0:
            raise ModelParseError(line_no, "negative count")
        return Leaf(expectation, count), pos
    if text.startswith("N(", pos):
        if depth >= max_depth:
            raise ModelParseError(line_no, f"tree deeper than declared depth {max_depth}")
        token, pos = _scan_until(text, pos + 2, ",", line_no, "feature")
        try:
            feature = int(token)
        except ValueError:
            raise ModelParseError(line_no, f"bad feature index: {token!r}") from None
        if not 0 <= feature < feature_count:
            raise ModelParseError(
                line_no, f"feature {feature} out of range for {feature_count} features"
            )
        when_false, pos = _parse_node(text, pos, line_no, feature_count, max_depth, depth + 1)
        if pos >= len(text) or text[pos] != ",":
            raise ModelParseError(line_no, "expected ',' between branches")
        when_true, pos = _parse_node(text, pos + 1, line_no, feature_count, max_depth, depth + 1)
        if pos >= len(text) or text[pos] != ")":
            raise ModelParseError(line_no, "expected ')' to close branch")
        return Internal(feature, when_false, when_true), pos + 1
    raise ModelParseError(line_no, f"expected node at column {pos + 1}")


def reference_model_from_text(text: str | bytes) -> ModelSet:
    """Model text parsed by recursive descent, each token found with str.find.

    The ground truth for ``trees.model_from_text``: both must accept the
    same texts, build equal models, and reject on the same line. Recursion
    limits it to shallow trees.
    """
    text = decode_utf8(text, ModelParseError)
    lines = text.split("\n")
    match = _HEADER.match(lines[0].rstrip("\r"))
    if not match:
        raise ModelParseError(1, "bad header, expected 'pamper-model v1 features=<F> depth=<D>'")
    feature_count = int(match.group(1))
    max_depth = int(match.group(2))
    if feature_count < 1:
        raise ModelParseError(1, "feature count must be positive")
    if max_depth < 1:
        raise ModelParseError(1, "depth must be positive")
    trees = {}
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
        node, end = _parse_node(body, 0, line_no, feature_count, max_depth, 0)
        if end != len(body):
            raise ModelParseError(line_no, f"trailing characters at column {end + 1}")
        trees[name] = node
    return ModelSet(feature_count, trees, EMPTY_CATALOG, max_depth)


# --- reference node numbering and writer: level walk and iterative descent over node objects ---


def _levels(roots):
    """Yield ``roots``, then their children, and so on, one level at a time.

    Each level lists the children of the level above in order, the
    ``when_false`` child before the ``when_true`` child.
    """
    level = list(roots)
    while level:
        yield level
        below = []
        for node in level:
            if isinstance(node, Internal):
                below += (node.when_false, node.when_true)
        level = below


def reference_node_table(roots, feature_count: int, max_depth: int) -> tuple:
    """Check node trees against a header and number them level by level.

    The ground truth for the node table that ``ModelSet`` and
    ``model_from_text`` build: nodes are listed level by level across every
    tree, each level in tree order and, within a tree, left to right. The
    ``len(roots)`` roots are slots ``0 .. len(roots)-1``, and the i-th
    internal node's children are slots ``len(roots) + 2i`` (bit clear) and
    ``len(roots) + 2i + 1`` (bit set). A leaf has feature -1 and points
    both child slots at itself. Raises the messages ``ModelSet`` raises.
    """
    features, values = [], []
    depth = 0  # an empty model has no levels
    for depth, level in enumerate(_levels(roots)):
        for node in level:
            if isinstance(node, Leaf):
                expectation, count = node.expectation, node.count
                if type(expectation) is not float or not 0.0 <= expectation <= 1.0:
                    raise ValueError(f"expectation must be a float in [0, 1], got {expectation!r}")
                if not (type(count) is int or _is_int(count)) or count < 0:
                    raise ValueError(f"count must be a nonnegative int, got {count!r}")
                features.append(-1)
                values.append(expectation)
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
                features.append(feature)
                values.append(0.0)
            else:
                raise TypeError(f"not a tree node: {node!r}")
    feature, value = np.array(features, dtype=np.intp), np.array(values, dtype=np.float64)
    internal = feature >= 0
    first = np.where(internal, len(roots) + 2 * (np.cumsum(internal) - 1), np.arange(feature.size))
    child = np.stack([first, first + internal], axis=1).reshape(-1)
    return feature, child, value, depth


def reference_tree_text(tree) -> str:
    """One tree's model text, written by an iterative descent over the node objects.

    The ground truth for the writer behind ``model_to_text`` and a node's
    ``repr``. It tells an internal node by its class, so it prints nodes that
    ``ModelSet`` rejects, such as ``Internal(-1, ...)``, too.
    """
    out = []
    todo = []  # when_true branches still to write, each above a None closing its parent
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
