"""Column-entropy kernel.

Scoring needs the Shannon entropy of every column of every map's padded
code matrix. All matrices are concatenated row-major into one flat uint8
buffer of symbol indices, and one call counts them sparsely: each cell gets
the key ``column * N_SYMBOLS + symbol``, one sort (``np.unique``) counts the
distinct keys, and -p*log2(p) is summed over the nonzero counts only.
Columns of three or more distinct symbols, whose sum depends on the order of
its terms, are summed as dense rows of ``N_SYMBOLS`` terms (at most one row
per three cells), so every value rounds as a dense per-column sum does.
Memory is O(cells), whatever the number of columns.
"""

from __future__ import annotations

import numpy as np

from .gem_io import N_SYMBOLS, offsets


def batch_column_entropies(
    flat: np.ndarray, heights: np.ndarray, widths: np.ndarray
) -> np.ndarray:
    """Per-column entropies (bits) of a batch of matrices.

    ``flat`` holds the row-major cells of every matrix back to back;
    ``heights[k]``/``widths[k]`` are the k-th matrix's row and column counts.
    Returns the concatenated per-column entropies, ``sum(widths)`` values.
    """
    heights = np.asarray(heights, dtype=np.int64)
    widths = np.asarray(widths, dtype=np.int64)
    n_cols = int(widths.sum())
    if n_cols == 0:
        return np.zeros(0)
    # column of every cell: its row's first column plus its place in the row
    row_width = np.repeat(widths, heights)
    row_cell = offsets(row_width)[:-1]
    row_col = np.repeat(offsets(widths)[:-1], heights)
    cell_col = np.arange(len(flat)) - np.repeat(row_cell - row_col, row_width)
    keys, counts = np.unique(cell_col * N_SYMBOLS + flat, return_counts=True)
    col = keys // N_SYMBOLS
    p = counts / np.repeat(heights, widths)[col]
    terms = p * np.log2(p)
    sums = np.bincount(col, weights=terms, minlength=n_cols)
    # One or two terms sum exactly in any order; three or more are summed as
    # a dense row, because near-ties between maps' scores decide outlier
    # ranks and cuts, which must not move with the rounding.
    many = np.bincount(col, minlength=n_cols) > 2
    if many.any():
        dense_cols = np.flatnonzero(many)
        in_dense = many[col]
        dense = np.zeros((len(dense_cols), N_SYMBOLS))
        dense[np.searchsorted(dense_cols, col[in_dense]), keys[in_dense] % N_SYMBOLS] = (
            terms[in_dense]
        )
        sums[dense_cols] = dense.sum(axis=1)
    return 0.0 - sums  # not -sums: a constant column has entropy +0.0, not -0.0


def matrix_column_entropies(codes: np.ndarray) -> np.ndarray:
    """Per-column entropies of a single (m, n) symbol matrix."""
    m, n = codes.shape
    return batch_column_entropies(
        codes.reshape(-1),
        np.array([m], dtype=np.int64),
        np.array([n], dtype=np.int64),
    )
