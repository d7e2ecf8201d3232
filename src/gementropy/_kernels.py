"""Column-entropy kernel.

Scoring needs the Shannon entropy of every column of every map's padded
code matrix. A batch of matrices is concatenated row-major into one flat
uint8 buffer of symbol indices, and one call counts them sparsely: each cell
gets the key ``column * N_SYMBOLS + symbol`` in the narrowest unsigned type,
one in-place sort makes each distinct key a run as long as its count, and
-p*log2(p) is summed over the nonzero counts only.
Columns of three or more distinct symbols, whose sum depends on the order of
its terms, are summed as dense rows of ``N_SYMBOLS`` terms (at most one row
per three cells), so every value rounds as a dense per-column sum does.
A call's working arrays take about 30-45 bytes per cell of its batch, more
where more of its columns hold three or more symbols, whatever the number
of columns; :func:`gementropy.entropy.column_entropies` bounds them by
calling the kernel on blocks of maps.

Only maps of three or more rows reach the kernel. A column of one or two
rows has at most two symbols, each of probability 1 or 1/2, whose terms
are exact in binary (``1.0 * log2(1.0)`` = 0.0, ``0.5 * log2(0.5)`` =
-0.5): such a column's entropy is exactly +0.0 or 1.0, which
``column_entropies`` writes without a call.
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
    keys = cell_col.astype(np.min_scalar_type(n_cols * N_SYMBOLS))
    del cell_col, row_width, row_cell, row_col  # before the sort's arrays
    keys *= N_SYMBOLS
    keys += flat
    keys.sort()
    first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    counts = np.diff(first, append=len(keys))
    keys = keys[first]
    del first
    col = keys // N_SYMBOLS
    p = counts / np.repeat(heights.astype(np.float64), widths)[col]
    del counts
    terms = p * np.log2(p)
    del p
    sums = np.bincount(col, weights=terms, minlength=n_cols)
    # One or two terms sum exactly in any order; three or more are summed as
    # a dense row, because near-ties between maps' scores decide outlier
    # ranks and cuts, which must not move with the rounding. A column has
    # three or more distinct symbols where keys i and i + 2 share it.
    three = col[2:] == col[:-2]
    if three.any():
        dense = np.zeros(len(col), dtype=bool)
        for lag in range(3):
            dense[lag : len(three) + lag] |= three
        keys, terms = keys[dense], terms[dense]
        col = keys // N_SYMBOLS
        new = np.concatenate(([True], col[1:] != col[:-1]))
        # the k-th dense column's symbol s goes to k * N_SYMBOLS + s
        slot = (np.cumsum(new) - 1) * N_SYMBOLS + (keys - col * N_SYMBOLS)
        rows = np.zeros(int(np.count_nonzero(new)) * N_SYMBOLS)
        rows[slot] = terms
        sums[col[new]] = rows.reshape(-1, N_SYMBOLS).sum(axis=1)
    return 0.0 - sums  # not -sums: a constant column has entropy +0.0, not -0.0
