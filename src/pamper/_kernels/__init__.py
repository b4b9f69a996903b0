"""Split-count and partition kernels over packed column bitsets.

Feature columns, labels and tree nodes are all bitsets over the corpus
rows, packed into little-endian ``uint64`` words by ``pack_bits``: bit i of
a bitset is row i. Padding bits past the last row are zero, so AND-ing with
a node mask never counts them, even after a complement.
"""
import numpy as np

# Name reported by benchmark tooling: the one kernel is plain numpy.
backend_name = "pure"


def pack_bits(bits):
    """Pack 0/1 values along the last axis into whole, zero-padded uint64 words."""
    n = bits.shape[-1]
    packed = np.zeros(bits.shape[:-1] + (-(-n // 64) * 8,), dtype=np.uint8)
    packed[..., : -(-n // 8)] = np.packbits(bits, axis=-1, bitorder="little")
    return packed.view(np.uint64)


def node_counts(Xp, yp, mask):
    """Per-feature bit counts over the rows in ``mask``.

    ``Xp`` is the (features, words) packed matrix, ``yp`` the packed labels.
    Returns ``(n_true, pos_true, pos)``: for each feature j, ``n_true[j]``
    counts node rows with bit j set and ``pos_true[j]`` counts label-1 rows
    with bit j set; ``pos`` is the number of label-1 rows. Positives are
    counted only over their nonzero words, which are few for rare methods.
    """
    n_true = np.bitwise_count(Xp & mask).sum(axis=1, dtype=np.int64)
    live = np.flatnonzero(mask & yp)
    pos_mask = mask[live] & yp[live]
    pos_true = np.bitwise_count(Xp[:, live] & pos_mask).sum(axis=1, dtype=np.int64)
    return n_true, pos_true, int(np.bitwise_count(pos_mask).sum())


def partition(Xp, mask, feature):
    """Split a node mask by one feature: (bit clear, bit set)."""
    column = Xp[feature]
    return mask & ~column, mask & column
