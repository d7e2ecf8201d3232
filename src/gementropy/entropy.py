"""Entropic complexity measures of a map, computed a corpus at a time.

Three per-map measures, all in bits:

* alphabet entropy: sum of the Shannon entropies of the columns of the
  map's padded code matrix (character-variation complexity);
* row entropy: log2 of the number of valid representations v of the source
  code (one stand-alone pick, or one full selection across a scenario's
  choice lists);
* the uncertainty-rate baseline log2(m) used by prior work for comparison.

:func:`column_entropies` computes the columns of the padded code matrices
of the maps of a :class:`~gementropy.gem_io.MapTable`. A one-row map's
columns are +0.0, and a two-row map's column is 1.0 where its two rows
differ and +0.0 where they agree: these are the kernel's values bit for bit,
since their terms (0.0 and -0.5) sum exactly. Only the maps of three or more
rows are laid into a flat buffer for the column kernel, one gather and one
call per block of ``_KERNEL_BLOCK`` maps. :func:`score_maps` splits the
table at its first no-match map into two views (the excluded maps come last)
and sums each block's columns into H(A) as the block is done; m, m0 and v
come from the table. It returns a :class:`ScoreTable` of columns, which
:func:`normalize_scores` turns into corpus z-scores (a
:class:`ZScoreTable`), one per entry of :data:`MEASURES`. Each table
holds one column per field of its row type, :class:`MapScores` or
:class:`NormalizedScores`, named by that type's ``_fields``, and reads as a
sequence of those rows built on access. :func:`adjust_by_frequency` returns
the frequency-adjusted z-scores, which only ``score`` reports, as columns of
their own. A single map is scored as a table of one.
"""

from __future__ import annotations

import itertools
import math
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import _kernels
from .errors import DegenerateMeasureError
from .gem_io import MAX_CODE, MapTable, RowTable, offsets

# Finite positive per-position weights, one per matrix column.
WeightVector = Sequence[float]

# Maps per kernel call: the kernel's working arrays take about 45 bytes per
# cell of the maps of three or more rows, 4.3 MB for narrow-score's blocks,
# where its 67,719 scored maps in one call took 25 MB (tracemalloc peaks of
# column_entropies).
_KERNEL_BLOCK = 8192


class MapScores(NamedTuple):
    """Raw entropic measures of one map."""

    source: str
    m: int
    m0: int
    v: int
    h_a: float
    h_b: float
    ur: float
    h_a_weighted: float | None = None


class NormalizedScores(NamedTuple):
    """Corpus-normalized z-scores of one map."""

    source: str
    z_alpha: float
    z_beta: float
    z_ur: float


class _Columns(RowTable):
    """One array per field of the row type ``_type`` (None for an absent
    optional field), named by its ``_fields``; read as rows of ``_type``."""

    _type: type

    def __len__(self) -> int:
        return len(self.source)

    def _rows(self, part: slice):
        columns = [getattr(self, name) for name in self._fields]
        return itertools.starmap(
            self._type,
            zip(*(itertools.repeat(None) if c is None else c[part].tolist() for c in columns)),
        )


class ScoreTable(_Columns):
    """Raw measures of the scored maps, one array per :class:`MapScores`
    field; ``v`` is int64, or Python ints when a count exceeds int64, and
    ``h_a_weighted`` is None when no weights were given."""

    _type, _fields = MapScores, MapScores._fields


class ZScoreTable(_Columns):
    """Corpus z-scores, one array per :class:`NormalizedScores` field: the
    columns that ``score``, ``rank``, ``outliers`` and ``textnet`` all read."""

    _type, _fields = NormalizedScores, NormalizedScores._fields


def _block_columns(maps: MapTable, widths: np.ndarray):
    """Each block of ``_KERNEL_BLOCK`` maps: its slice and its columns (see
    :func:`column_entropies`); no block is held during the next one's kernel."""
    words = maps.lines.targets.view("<u8")[:, 0]  # a padded row as one word
    position = np.arange(MAX_CODE)
    for k in range(0, len(maps), _KERNEL_BLOCK):
        part = slice(k, min(k + _KERNEL_BLOCK, len(maps)))
        m, n = maps.m[part], widths[part]
        rows = maps.rows[maps.starts[k] : maps.starts[part.stop]]
        # each map's kind by its height (3: three rows or more), over its rows
        kind = np.minimum(m, 3).astype(np.uint8)
        row_kind = np.repeat(kind, m)
        # maps of three or more rows: their rows, each cut to its map's width,
        # row-major, as the kernel's symbols
        many = kind == 3
        cut = position < np.repeat(n[many], m[many])[:, None]
        flat = _kernels.SYMBOL[words[rows[row_kind == 3]].view(np.uint8).reshape(-1, MAX_CODE)[cut]]
        del cut  # before the kernel's arrays
        entropies = _kernels.batch_column_entropies(flat, m[many], n[many])
        col_kind = np.repeat(kind, n)
        cols = np.zeros(len(col_kind))
        cols[col_kind == 3] = entropies
        # two-row maps: rows in pairs, bytes that differ, cut to the map's width
        pairs = words[rows[row_kind == 2]].view(np.uint8).reshape(-1, 2, MAX_CODE)
        cols[col_kind == 2] = (pairs[:, 0] != pairs[:, 1])[position < n[kind == 2][:, None]]
        yield part, cols
        del cols, entropies, pairs


def column_entropies(maps: MapTable) -> tuple[np.ndarray, np.ndarray]:
    """Per-column entropies (bits) of every map's padded code matrix, and
    each map's width n.

    Map k's matrix has its m target codes as rows, in entry order
    (duplicates kept), right-padded with the pad, which counts as an
    ordinary symbol, to n, the longest code of the map. Its columns are
    ``cols[sum(widths[:k]):][:widths[k]]``. Every map must have m >= 1.

    Only maps of three or more rows reach the kernel. The others have
    closed forms that the kernel would give bit for bit: a one-row map's
    columns are ``0.0 - 1.0 * log2(1.0)`` = +0.0, and a two-row map's column
    is +0.0 where its two padded rows agree and ``0.0 - (-0.5 + -0.5)`` =
    1.0 where they differ, which their bytes tell without the kernel's
    symbols (``_kernels.SYMBOL``). The maps are taken a block of
    ``_KERNEL_BLOCK`` at a time: the gather of the cells of its maps of three
    or more rows and one kernel call, an empty batch included, then its
    two-row columns. A column's entropy depends on its own cells alone, so
    the blocks give the values of one call bit for bit.
    """
    widths = np.maximum.reduceat(maps.lines.target_len[maps.rows], maps.starts[:-1])
    blocks = [cols for _, cols in _block_columns(maps, widths)]
    return np.concatenate([np.zeros(0)] + blocks), widths.astype(np.int64)


def _log2(counts: np.ndarray) -> np.ndarray:
    """``math.log2`` of each count (Python ints past int64 included), taken
    once per distinct count."""
    distinct = np.unique(counts, return_counts=True)[0]  # a plain np.unique imports numpy.ma
    logs = np.array(list(map(math.log2, distinct.tolist())), dtype=np.float64)
    return logs[np.searchsorted(distinct, counts)]


def score_maps(
    maps: MapTable, weights: WeightVector | None = None
) -> tuple[ScoreTable, MapTable]:
    """Score every map of a corpus, summing each block's columns into H(A).

    Returns (scores for maps with m >= 1, excluded no-match maps), views of
    the table split at its first no-match map. When ``weights`` is given it
    must cover the widest map; each map uses its first n positions.
    """
    maps, excluded = maps.split(int(np.count_nonzero(maps.m)))
    widths = np.maximum.reduceat(maps.lines.target_len[maps.rows], maps.starts[:-1])  # uint8
    h_a = np.empty(len(maps))

    h_a_weighted = None
    if weights is not None:
        wfull = np.asarray(weights, dtype=np.float64)
        if wfull.ndim != 1 or not np.all(np.isfinite(wfull) & (wfull > 0)):
            raise ValueError("weights must be a flat list of finite positive numbers")
        widest = int(widths.max(initial=0))
        if wfull.shape[0] < widest:
            raise ValueError(
                f"{wfull.shape[0]} weights cannot cover the widest map "
                f"({widest} positions)"
            )
        h_a_weighted = np.empty(len(maps))
    for part, cols in _block_columns(maps, widths):
        col_starts = offsets(widths[part])[:-1]
        h_a[part] = np.add.reduceat(cols, col_starts)
        if weights is not None:
            flat_w = wfull[np.arange(len(cols)) - np.repeat(col_starts, widths[part])]
            h_a_weighted[part] = (np.add.reduceat(cols * flat_w, col_starts)
                                  / np.add.reduceat(flat_w, col_starts))
            del flat_w
        del cols  # before the next block's kernel

    scores = ScoreTable(
        source=maps.source,
        m=maps.m,
        m0=maps.m0,
        v=maps.v,
        h_a=h_a,
        # v >= 1 and m >= 1 for every scored map
        h_b=_log2(maps.v),
        ur=_log2(maps.m),
        h_a_weighted=h_a_weighted,
    )
    return scores, excluded


# Each raw measure and the name of its z-score, in report order.
MEASURES = {"h_a": "z_alpha", "h_b": "z_beta", "ur": "z_ur"}


def normalize_scores(scores: ScoreTable, denominator: str = "std") -> ZScoreTable:
    """Center each measure over the corpus and divide by its spread.

    ``denominator`` is ``"std"`` (sample standard deviation, n-1) or
    ``"variance"`` (sample variance). Excluded maps must already be removed;
    a constant measure raises DegenerateMeasureError.
    """
    if denominator not in ("std", "variance"):
        raise ValueError(f"denominator must be 'std' or 'variance', got {denominator!r}")
    if len(scores) < 2:
        raise ValueError("normalization needs at least 2 scored maps")
    z_columns = {}
    for field, z_name in MEASURES.items():
        values = getattr(scores, field)
        var = float(np.var(values, ddof=1))
        denom = math.sqrt(var) if denominator == "std" else var
        if denom == 0.0:
            raise DegenerateMeasureError(field)
        z_columns[z_name] = (values - values.mean()) / denom
    return ZScoreTable(source=scores.source, **z_columns)


def adjust_by_frequency(z: ZScoreTable, p: Mapping[str, float]) -> dict[str, np.ndarray] | None:
    """Scale z-scores by the probability, in [0, 1], of each map's concept.

    ``p`` maps sources to probabilities. Returns the ``adjusted_<z>`` object
    column of each z-score of :data:`MEASURES`, None where ``p`` lacks the
    source, or None when ``p`` covers no source.
    """
    covered = np.array([source in p for source in z.source.tolist()])
    if not covered.any():
        return None
    probs = np.zeros(len(z))
    probs[covered] = [p[source] for source in z.source[covered].tolist()]
    bad = ~((probs >= 0.0) & (probs <= 1.0))
    if bad.any():
        raise ValueError(f"probability {probs[bad][0]} outside [0, 1]")
    return {f"adjusted_{name}": np.where(covered, getattr(z, name) * probs, None)
            for name in MEASURES.values()}
