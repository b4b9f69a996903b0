"""Split-count and partition kernels over packed column bitsets.

Feature columns, labels and tree nodes are all bitsets over the corpus
rows, packed into little-endian ``uint64`` words by ``pack_bits``: bit i of
a bitset is row i. Padding bits past the last row are zero, so AND-ing with
a node mask never counts them, even after a complement.
"""
import numpy as np

# Name reported by benchmark tooling: the one kernel is plain numpy.
backend_name = "pure"

_BIT_WEIGHTS = np.array([1, 2, 4, 8, 16, 32, 64, 128], dtype=np.uint8)


def pack_bits(bits):
    """Pack 0/1 values along the last axis into whole, zero-padded uint64 words."""
    n = bits.shape[-1]
    packed = np.zeros(bits.shape[:-1] + (-(-n // 64) * 8,), dtype=np.uint8)
    packed[..., : -(-n // 8)] = np.packbits(bits, axis=-1, bitorder="little")
    return packed.view(np.uint64)


def pack_columns(features):
    """``pack_bits(features.T)``: a bitset per column of a C-contiguous (rows, F) 0/1 uint8 matrix.

    Each block of eight rows becomes one byte per column through a single
    uint8 ``einsum`` against the weights 1, 2, ..., 128, whose sum is at most
    255. Only the last partial 64-row block is copied, to pad it with zero rows.
    """
    n, width = features.shape
    head = n - n % 64
    packed = np.empty((-(-n // 64) * 8, width), dtype=np.uint8)
    blocks = [(features[:head], packed[:head // 8])]
    if head < n:
        tail = np.zeros((64, width), dtype=np.uint8)
        tail[:n - head] = features[head:]
        blocks.append((tail, packed[head // 8:]))
    for rows, out in blocks:
        np.einsum("bkf,k->bf", rows.reshape(-1, 8, width), _BIT_WEIGHTS, out=out)
    return np.ascontiguousarray(packed.T).view(np.uint64)


def node_counts(Xp, yp, mask, n_true=None):
    """Per-feature bit counts over the rows in ``mask``.

    ``Xp`` is the (features, words) packed matrix, ``yp`` the packed labels.
    Returns ``(n_true, pos_true)``: for each feature j, ``n_true[j]``
    counts node rows with bit j set and ``pos_true[j]`` counts label-1 rows
    with bit j set. Positives are counted only over their nonzero words,
    which are few for rare methods. A caller that already knows ``n_true``
    (a split's second child, as its parent's counts minus its sibling's)
    passes it in; the pass over every word is then skipped and ``n_true``
    comes back as given.
    """
    if n_true is None:
        n_true = np.bitwise_count(Xp & mask).sum(axis=1, dtype=np.int64)
    live = np.flatnonzero(mask & yp)
    sub = Xp[:, live]  # a copy, so the AND can run in place
    sub &= mask[live] & yp[live]
    return n_true, np.bitwise_count(sub).sum(axis=1, dtype=np.int64)


def partition(Xp, mask, feature):
    """Split a node mask by one feature: (bit clear, bit set)."""
    column = Xp[feature]
    return mask & ~column, mask & column
